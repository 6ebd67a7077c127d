"""The cli-q5 workload: hermrank's command line, one process per command.

Set-up is the ``params`` command.  A round writes a message file drawn by
the benchmark, then runs ``encode``, ``corrupt --rank t`` and ``decode`` on
files; rounds repeat until the run's seconds are used.  The run ends with
one ``simulate --threads 2``.  Each command is started through
bench/hermrank_cli.py and timed from the parent; the children share the
parent's core with its reference sampler (see refloop), except
simulate's, which get every core.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import layers
from indep import OwnField
from library import SETUPS, Checks, mul_ns, time_muls
from refloop import Session

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "hermrank_cli.py")
#: A command that runs longer than this is killed with its process group.
COMMAND_TIMEOUT_S = 150


def run(spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"cli-seed{seed}-", dir=out_dir)
    try:
        return _run(spec, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(spec: dict, seed: int, seconds: float, trace: bool, work: str) -> dict:
    q, n, d, t = spec["q"], spec["n"], spec["d"], spec["t"]
    k, radius = n - d + 1, (d - 1) // 2
    sess = Session()
    check = Checks()
    spans: list = []
    inside_main: list = []
    builds = [0]

    def command(kind, argv, trial=None, traced=False):
        env = {key: val for key, val in os.environ.items() if key != "HERMBENCH_TRACE"}
        tpath = os.path.join(work, f"trace{len(sess.ops)}.json")
        if traced:
            env["HERMBENCH_TRACE"] = tpath
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, LAUNCHER, *argv], cwd=work, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
        t1 = time.perf_counter()
        op = sess.record(kind, trial, t0, t1, traced=traced)
        check(proc.returncode == 0, f"{kind} exited {proc.returncode}: {err.decode(errors='replace')[-300:]}")
        if traced and os.path.exists(tpath):
            with open(tpath, encoding="utf-8") as fh:
                child = json.load(fh)
            op["span"] = root = len(spans)
            spans.append(["op." + kind, -1, t0, t1, (0, 0, 0), trial])
            base = len(spans)
            for s in child["spans"]:
                spans.append([s[0], s[1] + base if s[1] >= 0 else root, s[2], s[3], tuple(s[4]), s[5]])
            inside_main.append((t0, t1, child["main_t0"], child["main_t1"]))
            if os.path.exists(tpath + ".builds"):
                with open(tpath + ".builds", encoding="utf-8") as fh:
                    builds[0] = sum(1 for _ in fh)
        return proc.returncode

    def load(name):
        try:
            with open(os.path.join(work, name), encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            check(False, f"{name} is missing or not JSON")
            return None

    def canonical(vec, length) -> bool:
        return (isinstance(vec, list) and len(vec) == length and all(
            isinstance(e, list) and len(e) == 2 * n
            and all(type(c) is int and 0 <= c < q for c in e) for e in vec))

    # -- set-up: the params command ------------------------------------
    texts = []
    for s in range(SETUPS):
        for traced in (False, True) if trace else (False,):
            command("setup", ["params", "--q", str(q), "--n", str(n), "--d", str(d), "--out", f"params{s}.json"], traced=traced)
            with open(os.path.join(work, f"params{s}.json"), encoding="utf-8") as fh:
                texts.append(fh.read())
    check(len(set(texts)) == 1, "params commands wrote different files")
    shutil.copy(os.path.join(work, "params0.json"), os.path.join(work, "params.json"))
    pobj = load("params.json")
    own = OwnField(q, n, pobj["modulus"])
    check(canonical(pobj["alpha"], n), "params alpha is not canonical")
    check(own.gram_ok(pobj["alpha"]), "basis fails the Gram identity")
    functionals = own.basis_functionals(pobj["alpha"])

    # -- rounds ---------------------------------------------------------
    def one_round(r, traced):
        sfx = "-t" if traced else ""
        rnd = random.Random(seed * 1_000_003 + r)
        msg = []
        for _ in range(k):
            y = own.elem([rnd.randrange(q) for _ in range(2 * n)])
            msg.append(list(own.add(y, own.conj_n(y))))
        with open(os.path.join(work, "msg.json"), "w", encoding="utf-8") as fh:
            json.dump({"f": msg}, fh)
        cseed = rnd.randrange(1 << 32)
        params = ["--params", "params.json"]
        if command("encode", ["encode", *params, "--message", "msg.json", "--out", f"word{sfx}.json"], r, traced):
            return None
        if command("corrupt", ["corrupt", *params, "--in", f"word{sfx}.json", "--rank", str(t), "--seed", str(cseed),
                               "--out", f"noisy{sfx}.json", "--error-out", f"err{sfx}.json"], r, traced):
            return None
        command("decode", ["decode", *params, "--in", f"noisy{sfx}.json", "--out", f"dec{sfx}.json"], r, traced)
        word, noisy, err, dec = (load(f"{f}{sfx}.json") for f in ("word", "noisy", "err", "dec"))
        if None in (word, noisy, err, dec):
            return None
        sess.ops[-1]["ok"] = dec.get("status") == "Success"
        ok = all(canonical(v["v"], n) for v in (word, noisy, err))
        check(ok, f"round {r}: a word is not canonical")
        if ok:
            check(own.is_hermitian(functionals, word["v"]), f"round {r}: codeword matrix is not Hermitian")
            check(own.rank(err["v"]) == t, f"round {r}: channel error rank is not {t}")
            check([own.elem(x) for x in noisy["v"]] == [own.add(own.elem(a), own.elem(b)) for a, b in zip(word["v"], err["v"])],
                  f"round {r}: received word is not codeword + error")
        check(dec.get("status") == "Success" and dec.get("message") == {"f": msg} and dec.get("t") == t,
              f"round {r}: decode did not return the sent message")
        return word, noisy, err, dec

    start = time.perf_counter()
    r = 0
    plain_rounds, traced_rounds, first_words = [], [], None
    while time.perf_counter() - start < seconds or r < spec["count_trials"]:
        mark = len(sess.ops)
        got = one_round(r, False)
        plain_rounds.append((mark, len(sess.ops)))
        first_words = first_words or got
        if trace:
            mark = len(sess.ops)
            again = one_round(r, True)
            traced_rounds.append((mark, len(sess.ops)))
            check(again == got, f"round {r}: traced and untraced commands disagree")
        r += 1

    # -- simulate -------------------------------------------------------
    trials = spec["sim_trials"]
    with sess.all_cores():
        # simulate's workers get every core, as they would outside the
        # benchmark
        command("simulate", ["simulate", "--q", str(q), "--n", str(n), "--d", str(d), "--trials", str(trials),
                             "--ranks", spec["sim_ranks"], "--seed", str(seed), "--threads", str(spec["sim_threads"]),
                             "--out", "sim.json"], traced=trace)
    sim = load("sim.json") or {"results": []}
    got_ranks = [res.get("t") for res in sim["results"]]
    lo, hi = (int(v) for v in spec["sim_ranks"].split("-"))
    check(got_ranks == list(range(lo, hi + 1)), f"simulate reported ranks {got_ranks}")
    for res in sim["results"]:
        if res.get("t", 0) <= radius:
            good = res.get("trials") == trials and res.get("successes") == trials
        else:
            good = res.get("trials") == trials and res.get("successes") == 0 and \
                res.get("failures", 0) + res.get("mismatches", 0) == trials
        check(good, f"simulate at t={res.get('t')}: {res}")
    sim_total = sum(res.get("trials", 0) for res in sim["results"])

    if trace and first_words:
        from hermrank.field import make_context

        ctx = make_context(q, n)
        word, noisy = first_words[0]["v"], first_words[1]["v"]
        time_muls(sess, ctx.mul, [ctx.felt_from_json(e) for e in word], [ctx.felt_from_json(e) for e in noisy])
    sess.finish()
    norm = sess.norm

    def round_times(spans):
        return [sum(o["norm"] for o in sess.ops[a:b]) for a, b in spans]

    raw = {
        "rounds": r,
        "ref_ms": sess.ref_ms(),
        "setup_s": statistics.median(sess.raws("setup")),
        "decode_ms": statistics.median(sess.raws("decode")) * 1e3,
        "encode_ms": statistics.median(sess.raws("encode")) * 1e3,
        "trials_per_s": sim_total / sess.raws("simulate", trace)[0],
    }
    result = {"attempted": len(sess.ops), "failed": 0, "errors": check.errors, "raw": raw,
              "ops": [{key: o[key] for key in ("kind", "trial", "traced", "raw", "norm")} for o in sess.ops]}
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(sess.norms("setup")),
            "decode_ms": statistics.median(sess.norms("decode")) * 1e3,
            "encode_ms": statistics.median(sess.norms("encode")) * 1e3,
            "trials_per_s": sim_total / sess.norms("simulate")[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        return result
    process_ms = [(norm(t0, t1) - norm(m0, m1)) * 1e3 for t0, t1, m0, m1 in inside_main]
    extra = {
        "field.mul_ns": mul_ns(sess) if first_words else 0.0,
        "cli.process_ms": statistics.median(process_ms) if process_ms else 0.0,
        "cli.simulate_builds": builds[0],
        "trace.overhead_pct": layers.overhead_pct(round_times(plain_rounds), round_times(traced_rounds)),
    }
    result["metrics"] = layers.per_layer(spans, sess.ops, norm, spec["count_trials"], extra)
    result["spans"] = spans
    return result
