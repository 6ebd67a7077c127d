"""Command-line interface, driven in-process through main(argv)."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import hermrank
from hermrank import (
    ChannelSpec,
    SplitMix64,
    build_params,
    corrupt,
    decode,
    encode,
    enumerate_code,
    nearest_codeword,
    params_to_json_obj,
    random_message,
    random_rank_error,
    rank_distance,
    substream_seed,
)
from hermrank import cli, oracle
from hermrank.cli import main
from hermrank.exceptions import HermrankError
from hermrank.codec import message_from_json_obj, message_to_json_obj, word_from_json_obj, word_to_json_obj


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def workspace(tmp_path, params_for):
    """Params file plus a deterministic message file for (2, 5, 3)."""
    p = params_for(2, 5, 3)
    params_path = _write(tmp_path / "params.json", params_to_json_obj(p))
    msg = random_message(p, SplitMix64(1))
    msg_path = _write(tmp_path / "msg.json", message_to_json_obj(p, msg))
    return p, msg, params_path, msg_path, tmp_path


# -- params -----------------------------------------------------------------


def test_params_to_file_matches_library(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["params", "--q", "2", "--n", "5", "--d", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == params_to_json_obj(build_params(2, 5, 3))


def test_params_to_stdout(capsys):
    assert main(["params", "--q", "2", "--n", "3", "--d", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["q"] == 2 and obj["n"] == 3 and obj["d"] == 3
    assert len(obj["alpha"]) == 3


def test_params_rejects_bad_triple(capsys):
    assert main(["params", "--q", "2", "--n", "4", "--d", "3"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["params", "--q", "9", "--n", "3", "--d", "3"]) == 2


def test_oversized_params_exit_2_at_once(tmp_path, workspace, capsys):
    p, _, _, msg_path, _ = workspace
    params_path = _write(tmp_path / "big.json", dict(params_to_json_obj(p), q=1000000000000000003, n=1))
    runs = [
        ["params", "--q", "1000000000000000003", "--n", "1", "--d", "1"],
        ["params", "--q", "3", "--n", "100000001", "--d", "1"],
        ["encode", "--params", params_path, "--message", msg_path],
    ]
    for argv in runs:
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# -- encode / corrupt / decode pipeline -------------------------------------


def test_pipeline_clean_roundtrip(workspace, capsys):
    p, msg, params_path, msg_path, tmp = workspace
    word_path = tmp / "word.json"
    assert main(["encode", "--params", params_path, "--message", msg_path, "--out", str(word_path)]) == 0
    assert word_from_json_obj(p, json.loads(word_path.read_text())) == encode(p, msg)

    out_path = tmp / "decoded.json"
    rc = main(["decode", "--params", params_path, "--in", str(word_path), "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["status"] == "Success"
    assert report["t"] == 0
    assert report["message"] == message_to_json_obj(p, msg)


def test_pipeline_corrupt_then_decode(workspace):
    p, msg, params_path, msg_path, tmp = workspace
    word_path = tmp / "word.json"
    main(["encode", "--params", params_path, "--message", msg_path, "--out", str(word_path)])

    noisy_path = tmp / "noisy.json"
    err_path = tmp / "err.json"
    rc = main(
        ["corrupt", "--params", params_path, "--in", str(word_path), "--rank", "1",
         "--seed", "42", "--out", str(noisy_path), "--error-out", str(err_path)]
    )
    assert rc == 0
    noisy = word_from_json_obj(p, json.loads(noisy_path.read_text()))
    err = word_from_json_obj(p, json.loads(err_path.read_text()))
    assert corrupt(p.ctx, encode(p, msg), err) == noisy

    out_path = tmp / "decoded.json"
    assert main(["decode", "--params", params_path, "--in", str(noisy_path), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["status"] == "Success"
    assert report["t"] == 1
    assert report["message"] == message_to_json_obj(p, msg)


def test_corrupt_is_reproducible(workspace):
    _, _, params_path, msg_path, tmp = workspace
    word_path = tmp / "word.json"
    main(["encode", "--params", params_path, "--message", msg_path, "--out", str(word_path)])
    a, b = tmp / "a.json", tmp / "b.json"
    args = ["corrupt", "--params", params_path, "--in", str(word_path), "--rank", "2", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_decode_failure_exits_1(workspace):
    p, msg, params_path, msg_path, tmp = workspace
    word_path = tmp / "word.json"
    main(["encode", "--params", params_path, "--message", msg_path, "--out", str(word_path)])
    noisy_path = tmp / "noisy.json"
    main(["corrupt", "--params", params_path, "--in", str(word_path), "--rank", "2",
          "--seed", "5", "--out", str(noisy_path)])
    out_path = tmp / "decoded.json"
    rc = main(["decode", "--params", params_path, "--in", str(noisy_path), "--out", str(out_path)])
    assert rc == 1
    report = json.loads(out_path.read_text())
    assert report["status"] == "Failure"
    assert report["reason"]


def test_decode_verdicts_match_exhaustive_scan(tmp_path, params_for):
    # beyond-radius corruption at (2,3,3): the CLI verdict must agree with a
    # full codebook scan, whichever way each seed falls
    p = params_for(2, 3, 3)
    table = enumerate_code(p)
    params_path = _write(tmp_path / "p.json", params_to_json_obj(p))
    msg = random_message(p, SplitMix64(2))
    word_path = _write(tmp_path / "w.json", word_to_json_obj(p, encode(p, msg)))
    for seed in range(8):
        noisy_path = tmp_path / f"noisy{seed}.json"
        main(["corrupt", "--params", params_path, "--in", word_path, "--rank", "2",
              "--seed", str(seed), "--out", str(noisy_path)])
        rc = main(["decode", "--params", params_path, "--in", str(noisy_path),
                   "--out", str(tmp_path / "dec.json")])
        noisy = word_from_json_obj(p, json.loads(noisy_path.read_text()))
        near = nearest_codeword(p, table, noisy)
        assert rc == (0 if near.distance <= p.radius else 1)


def test_corrupt_requires_seed(workspace):
    _, _, params_path, _, tmp = workspace
    with pytest.raises(SystemExit) as exc:
        main(["corrupt", "--params", params_path, "--in", "x.json", "--rank", "1"])
    assert exc.value.code == 2


# -- simulate ---------------------------------------------------------------


def test_simulate_report_and_determinism(tmp_path, capsys):
    base = ["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "10",
            "--ranks", "0,1", "--seed", "7"]
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    assert main(base + ["--out", str(a)]) == 0
    assert "simulate: 20 trials" in capsys.readouterr().err
    assert main(base + ["--out", str(b)]) == 0
    assert main(base + ["--threads", "2", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == c.read_bytes()

    report = json.loads(a.read_text())
    assert report["params"] == {"d": 3, "n": 5, "q": 2}
    assert report["ranks"] == [0, 1]
    assert report["seed"] == 7
    assert report["trials_per_rank"] == 10
    for row in report["results"]:
        assert row["trials"] == 10
        assert row["successes"] == 10
        assert row["failures"] == 0
        assert row["mismatches"] == 0
        assert "mean_ms" not in row


def test_simulate_counts_mismatches(tmp_path, params_for):
    # past the radius a decode can certify another codeword: at (2,3,3)
    # rank-2 errors give 190 failures and 10 mismatches in 200 trials
    out = tmp_path / "m.json"
    assert main(["simulate", "--q", "2", "--n", "3", "--d", "3", "--trials", "200",
                 "--ranks", "2", "--seed", "7", "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())["results"]
    assert (row["successes"], row["failures"], row["mismatches"]) == (0, 190, 10)
    assert row["successes"] + row["failures"] + row["mismatches"] == row["trials"] == 200
    # each mismatched message encodes to a codeword within the radius of the
    # received word, drawn as simulate draws trial i
    p = params_for(2, 3, 3)
    mismatched = 0
    for i in range(200):
        rng = SplitMix64(substream_seed(7, (2 << 32) + i))
        msg = random_message(p, rng)
        err = random_rank_error(p, ChannelSpec(t=2, seed=rng.next_u64()))
        word = corrupt(p.ctx, encode(p, msg), err)
        result = decode(p, word)
        if result.ok and result.message != msg:
            mismatched += 1
            assert rank_distance(p, encode(p, result.message), word) <= p.radius
    assert mismatched == 10


def test_simulate_rank_range_syntax(tmp_path):
    out = tmp_path / "r.json"
    assert main(["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "4",
                 "--ranks", "0-1", "--seed", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ranks"] == [0, 1]


@pytest.fixture
def fake_pool(monkeypatch):
    """Stands in for simulate's process pool: the shards run in this process,
    and the list returned records the worker count each pool was asked for."""
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "_process_pool", InProcessPool)
    return asked


@pytest.fixture
def fresh_sim_params():
    # simulate's params are cached per process; a test that patches
    # build_params must see every build, and must leave none behind
    cli._sim_params.cache_clear()
    yield
    cli._sim_params.cache_clear()


def test_simulate_builds_params_once(tmp_path, monkeypatch, fake_pool, fresh_sim_params):
    # one build whether the shards run in this process or on the pool
    calls = []

    def counting(*args):
        calls.append(args)
        return build_params(*args)

    monkeypatch.setattr(cli, "build_params", counting)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    out = tmp_path / "s.json"
    for threads, pools in (("1", []), ("64", [2])):
        calls.clear()
        fake_pool.clear()
        cli._sim_params.cache_clear()
        assert main(["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "2", "--ranks", "0-4",
                     "--seed", "3", "--threads", threads, "--out", str(out)]) == 0
        assert calls == [(2, 5, 3)]
        assert fake_pool == pools
        assert [row["trials"] for row in json.loads(out.read_text())["results"]] == [2] * 5


def test_simulate_forked_workers_inherit_params(tmp_path, monkeypatch, fresh_sim_params):
    # a real pool: forked workers find the parent's params in the cache, so
    # the whole run builds them once
    method = multiprocessing.get_start_method()
    if method != "fork":
        pytest.skip(f"workers started by {method!r} do not inherit the parent's params; each builds its own")
    log = tmp_path / "builds.log"

    def logging_build(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return build_params(*args)

    monkeypatch.setattr(cli, "build_params", logging_build)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    out = tmp_path / "s.json"
    assert main(["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "4", "--ranks", "0,1",
                 "--seed", "3", "--threads", "2", "--out", str(out)]) == 0
    assert log.read_text().splitlines() == [str(os.getpid())]
    assert [row["successes"] for row in json.loads(out.read_text())["results"]] == [4, 4]


def test_simulate_pool_bounded_by_shards_and_cores(tmp_path, monkeypatch, fake_pool):
    # every worker of a pool starts at the first submit, so --threads 64 with
    # 2 trials must ask for no more workers than shards and cores; the fake
    # pool runs in this process and starts none
    asked = fake_pool
    base = ["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "2", "--ranks", "0-2", "--seed", "1"]
    one, many = tmp_path / "one.json", tmp_path / "many.json"
    assert main(base + ["--threads", "1", "--out", str(one)]) == 0
    assert asked == []
    assert main(base + ["--threads", "64", "--out", str(many)]) == 0
    assert all(w <= min(2, os.cpu_count() or 1) for w in asked)
    assert many.read_bytes() == one.read_bytes()

    # on a host with more cores than shards the shards bound the pool
    asked.clear()
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert main(base + ["--threads", "64", "--out", str(many)]) == 0
    assert asked == [2]
    assert many.read_bytes() == one.read_bytes()

    # the shard bounds follow min(--threads, trials), so a huge --threads
    # allocates nothing in proportion to it
    tracemalloc.start()
    try:
        assert main(base + ["--threads", "1000000", "--out", str(many)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert many.read_bytes() == one.read_bytes()


def test_simulate_with_timing(tmp_path, monkeypatch, fake_pool):
    # shards always return their latencies; --with-timing alone decides
    # whether the report shows them, in this process or through the pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        assert main(["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "3", "--ranks", "1",
                     "--seed", "11", "--threads", threads, "--with-timing", "--out", str(out)]) == 0
        row = json.loads(out.read_text())["results"][0]
        assert row["trials"] == 3
        assert row["mean_ms"] > 0
        assert row["p95_ms"] >= 0
    assert fake_pool == [2]


def test_simulate_zero_trials(tmp_path):
    out = tmp_path / "z.json"
    assert main(["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "0",
                 "--ranks", "1", "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"][0]["trials"] == 0


def test_simulate_bad_ranks(capsys):
    base = ["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "1", "--seed", "1"]
    assert main(base + ["--ranks", "oops"]) == 2
    assert main(base + ["--ranks", ""]) == 2
    assert main(base + ["--ranks", "7"]) == 2  # exceeds n
    capsys.readouterr()
    # a token that is not a rank or a range is named, without int()'s text
    for token in ("a", "-1", "1-", "2-x"):
        assert main(base + ["--ranks", token]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad rank {token!r}\n"
        assert "invalid literal" not in captured.err


def test_simulate_rank_ranges_bounded_before_expanding(capsys):
    # a range past n fails before it is expanded, and a reversed range
    # is an error rather than an empty one
    base = ["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "1", "--seed", "1"]
    for ranks in ("0-10000000000", "0,5-3", "2-6"):
        start = time.perf_counter()
        assert main(base + ["--ranks", ranks]) == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("flag,value", [("--trials", "-3"), ("--threads", "-4"), ("--threads", "0")])
def test_simulate_rejects_bad_counts(tmp_path, capsys, flag, value):
    out = tmp_path / "bad.json"
    argv = ["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "2", "--ranks", "1",
            "--seed", "1", "--out", str(out)]
    # argparse keeps the last value given for a repeated flag
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and flag in captured.err
    assert captured.out == ""
    assert not out.exists()


# -- mindist ----------------------------------------------------------------


def test_mindist_report(tmp_path, capsys):
    # the elapsed time goes to stderr, so reruns give byte-equal reports
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["mindist", "--q", "2", "--n", "3", "--d", "3", "--out"]
    assert main(argv + [str(a)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("mindist: 8 words in ") and err.endswith(" ms\n")
    report = json.loads(a.read_text())
    assert report["min_distance"] == 3
    assert report["code_size"] == 8
    assert set(report) == {"code_size", "d", "min_distance", "n", "q"}
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mindist_enumerates_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_code(*args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_code", counting)
    out = tmp_path / "m.json"
    assert main(["mindist", "--q", "3", "--n", "3", "--d", "3", "--out", str(out)]) == 0
    assert len(calls) == 1
    report = json.loads(out.read_text())
    assert report["min_distance"] == 3 and report["code_size"] == 27


def test_mindist_respects_limit(capsys):
    assert main(["mindist", "--q", "2", "--n", "7", "--d", "3"]) == 2
    assert "error:" in capsys.readouterr().err


# -- matrix -----------------------------------------------------------------


def test_matrix_prints_grid_and_flag(workspace, capsys):
    p, msg, params_path, msg_path, tmp = workspace
    word_path = tmp / "word.json"
    main(["encode", "--params", params_path, "--message", msg_path, "--out", str(word_path)])
    capsys.readouterr()
    out_path = tmp / "mat.json"
    assert main(["matrix", "--params", params_path, "--in", str(word_path),
                 "--out", str(out_path)]) == 0
    shown = capsys.readouterr().out
    lines = shown.strip().splitlines()
    assert len(lines) == p.n + 1
    assert lines[-1] == "hermitian: true"
    saved = json.loads(out_path.read_text())
    assert saved["hermitian"] is True
    assert len(saved["entries"]) == p.n


def test_matrix_flags_non_hermitian_word(workspace, capsys):
    p, _, params_path, _, tmp = workspace
    ctx = p.ctx
    unit = (ctx.one,) + (ctx.zero,) * (p.n - 1)
    word_path = _write(tmp / "unit.json", word_to_json_obj(p, unit))
    assert main(["matrix", "--params", params_path, "--in", word_path]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "hermitian: false"


# -- error handling ---------------------------------------------------------


def test_missing_and_malformed_files(workspace, capsys):
    _, _, params_path, _, tmp = workspace
    assert main(["decode", "--params", params_path, "--in", str(tmp / "nope.json")]) == 2
    bad = tmp / "bad.json"
    bad.write_text("{not json")
    assert main(["decode", "--params", params_path, "--in", str(bad)]) == 2
    capsys.readouterr()


def test_tampered_params_rejected(workspace, capsys):
    p, _, params_path, msg_path, tmp = workspace
    obj = json.loads(Path(params_path).read_text())
    obj["alpha"][0] = [0] * p.ctx.deg
    tampered = _write(tmp / "tampered.json", obj)
    assert main(["encode", "--params", tampered, "--message", msg_path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("q,n,d", [(2, 5, 3), (3, 5, 3)])
def test_params_with_other_eta_rejected(tmp_path, params_for, capsys, q, n, d):
    p = params_for(q, n, d)
    obj = params_to_json_obj(p)
    obj["eta"] = p.ctx.to_coeffs(p.ctx.add(p.ctx.gen, p.ctx.one))
    params_path = _write(tmp_path / "p.json", obj)
    msg_path = _write(tmp_path / "msg.json", message_to_json_obj(p, random_message(p, SplitMix64(3))))
    out = tmp_path / "out.json"
    assert main(["encode", "--params", params_path, "--message", msg_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "eta" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("q,n,d", [(2, 3, 3), (3, 3, 3)])
@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_non_integer_coefficients_rejected(tmp_path, params_for, capsys, q, n, d, bad):
    p = params_for(q, n, d)
    params_path = _write(tmp_path / "p.json", params_to_json_obj(p))
    elem = [bad] + [0] * (p.ctx.deg - 1)
    zero = [0] * p.ctx.deg
    msg_path = _write(tmp_path / "msg.json", {"f": [elem] + [zero] * (p.k - 1)})
    word_path = _write(tmp_path / "word.json", {"v": [elem] + [zero] * (p.n - 1)})
    runs = [
        ["encode", "--params", params_path, "--message", msg_path],
        ["decode", "--params", params_path, "--in", word_path],
    ]
    for argv in runs:
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "integer coefficients" in lines[0]
        assert not out.exists()


#: Raw file text: a list nested 200,000 deep, far past the JSON parser's
#: recursion limit.
DEEP_JSON = b"[" * 200_000


@pytest.mark.parametrize(
    "kind,doc,shown",
    [
        ("message", {"f": 5}, "message field 'f' must be a list, got an integer"),
        ("message", [1], "message must be a JSON object, got a list"),
        ("message", {}, "message has no 'f' field"),
        ("word", {"v": 3}, "word field 'v' must be a list, got an integer"),
        ("word", "v", "word must be a JSON object, got a string"),
        ("word", {"v": [[0] * 6]}, "word needs exactly 3 components"),
        pytest.param("message", DEEP_JSON, "JSON document is nested too deeply", id="message-nested"),
        pytest.param("word", DEEP_JSON, "JSON document is nested too deeply", id="word-nested"),
        pytest.param("params", DEEP_JSON, "JSON document is nested too deeply", id="params-nested"),
    ],
)
def test_malformed_message_and_word_files_rejected(tmp_path, params_for, capsys, kind, doc, shown):
    p = params_for(3, 3, 3)
    params_path = _write(tmp_path / "p.json", params_to_json_obj(p))
    if isinstance(doc, bytes):
        (tmp_path / "doc.json").write_bytes(doc)
        doc_path = str(tmp_path / "doc.json")
    else:
        with pytest.raises(HermrankError):
            (message_from_json_obj if kind == "message" else word_from_json_obj)(p, doc)
        doc_path = _write(tmp_path / "doc.json", doc)
    if kind == "message":
        argv = ["encode", "--params", params_path, "--message", doc_path]
    elif kind == "word":
        argv = ["decode", "--params", params_path, "--in", doc_path]
    else:
        word_path = _write(tmp_path / "word.json", word_to_json_obj(p, (p.ctx.zero,) * p.n))
        argv = ["decode", "--params", doc_path, "--in", word_path]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: " + shown]
    assert not out.exists()


@pytest.mark.parametrize("bug", [TypeError, KeyError])
def test_internal_errors_propagate(monkeypatch, capsys, bug):
    # only input errors become exit code 2; a bug's exception is not
    # dressed up as one
    def broken(*args):
        raise bug("internal")

    monkeypatch.setattr(cli, "build_params", broken)
    with pytest.raises(bug):
        main(["params", "--q", "2", "--n", "3", "--d", "3"])
    assert capsys.readouterr().err == ""


def test_module_entry_point(capsys):
    argv = ["params", "--q", "2", "--n", "3", "--d", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermrank.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hermrank.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_import_leaves_process_pool_unloaded():
    # only simulate's sharded path needs concurrent.futures; importing the
    # CLI must not load it, so no other command pays for the import
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermrank.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import hermrank.cli, sys; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
