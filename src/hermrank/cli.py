"""Command-line interface: params, encode, corrupt, decode, simulate,
mindist, matrix.

All input and output is JSON with field elements as coefficient arrays
(least significant first, always 2n entries).  Every command is
deterministic given its flags; commands that need randomness require an
explicit --seed; the timings of simulate and mindist go to stderr, so
their reports are byte-identical across runs (simulate's --with-timing
aside).  simulate builds its params once per process: its shards run
through one function, in this process or on a pool of worker processes,
and a forked worker inherits the parent's params.  Exit codes: 0 on
success, 1 when a decode reports failure, 2 on usage or input errors; any
other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from .channel import MODE_ARBITRARY, MODE_HERMITIAN, ChannelSpec, corrupt, random_rank_error
from .code import build_params, codeword_to_matrix, is_hermitian, params_from_json_obj, params_to_json_obj
from .codec import (
    decode,
    decode_result_to_json_obj,
    encode,
    message_from_json_obj,
    message_to_json_obj,
    random_message,
    word_from_json_obj,
    word_to_json_obj,
)
from .exceptions import HermrankError
from .oracle import DEFAULT_ENUM_LIMIT, brute_min_distance, code_size
from .rng import SplitMix64, substream_seed


def _emit(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path: str) -> dict:
    """The parsed document; one nested deeper than the parser's recursion
    limit is an input error like any other malformed file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise HermrankError("JSON document is nested too deeply") from None


def _load_params(path: str):
    return params_from_json_obj(_read_json(path))


def cmd_params(args) -> int:
    params = build_params(args.q, args.n, args.d)
    _emit(params_to_json_obj(params), args.out)
    return 0


def cmd_encode(args) -> int:
    params = _load_params(args.params)
    msg = message_from_json_obj(params, _read_json(args.message))
    word = encode(params, msg)
    _emit(word_to_json_obj(params, word), args.out)
    return 0


def cmd_corrupt(args) -> int:
    params = _load_params(args.params)
    word = word_from_json_obj(params, _read_json(args.infile))
    err = random_rank_error(params, ChannelSpec(t=args.rank, mode=args.mode, seed=args.seed))
    _emit(word_to_json_obj(params, corrupt(params.ctx, word, err)), args.out)
    if args.error_out:
        _emit(word_to_json_obj(params, err), args.error_out)
    return 0


def cmd_decode(args) -> int:
    params = _load_params(args.params)
    word = word_from_json_obj(params, _read_json(args.infile))
    result = decode(params, word)
    _emit(decode_result_to_json_obj(params, result), args.out)
    return 0 if result.ok else 1


def _parse_ranks(text: str, n: int) -> list:
    """Comma-separated ranks and lo-hi ranges, each bounded by 0 <= lo <=
    hi <= n before it is expanded; repeats are dropped."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        lo, hi = token.split("-", 1) if "-" in token else (token, token)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad rank {token!r}") from None
        if lo > hi:
            raise ValueError(f"bad rank range {token!r}")
        if hi > n:
            raise ValueError(f"ranks must not exceed n = {n}")
        out.extend(range(lo, hi + 1))
    seen = set()
    ranks = [t for t in out if not (t in seen or seen.add(t))]
    if not ranks:
        raise ValueError(f"bad rank list {text!r}")
    return ranks


#: the outcome counts of one rank's trials, summed over its shards
_COUNTS = ("trials", "successes", "failures", "mismatches", "inconsistent_events")


@functools.lru_cache(maxsize=1)
def _sim_params(q, n, d):
    """simulate's params, built once per process: a forked worker inherits
    the parent's, any other worker builds them on its first shard.  A run
    uses one triple, so only the latest is kept."""
    return build_params(q, n, d)


def _sim_chunk(q, n, d, mode, master_seed, t, start, stop):
    """One shard of simulate trials, with each trial's decode latency in ms;
    trial i is fully determined by (master_seed, t, i) so sharding cannot
    change any outcome."""
    params = _sim_params(q, n, d)
    # inconsistent_events stays 0: bm_gaussian_agree is never False
    counts = dict.fromkeys(_COUNTS, 0)
    counts["trials"] = stop - start
    lats = []
    for i in range(start, stop):
        rng = SplitMix64(substream_seed(master_seed, (t << 32) + i))
        msg = random_message(params, rng)
        err = random_rank_error(params, ChannelSpec(t=t, mode=mode, seed=rng.next_u64()))
        word = corrupt(params.ctx, encode(params, msg), err)
        t0 = time.perf_counter()
        result = decode(params, word)
        lats.append((time.perf_counter() - t0) * 1000.0)
        if not result.ok:
            counts["failures"] += 1
        elif result.message == msg:
            counts["successes"] += 1
        else:
            counts["mismatches"] += 1
    return counts, lats


def _process_pool(workers):
    """simulate's worker pool.  concurrent.futures is imported here, on the
    sharded path only, so no other command pays for the import."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers)


def _p95(lats: list) -> float:
    ordered = sorted(lats)
    idx = max(0, (len(ordered) * 95 + 99) // 100 - 1)
    return ordered[idx]


def cmd_simulate(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, got {args.trials}")
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    params = _sim_params(args.q, args.n, args.d)
    ranks = _parse_ranks(args.ranks, params.n)
    wall0 = time.perf_counter()
    results = []
    # min(--threads, trials) shards leave none empty (one when there are no
    # trials).  One pool serves every rank; it never outnumbers the shards or
    # the cores, since every worker starts at the first submit.
    nshards = min(args.threads, args.trials) or 1
    bounds = [args.trials * j // nshards for j in range(nshards + 1)]
    workers = min(nshards, os.cpu_count() or 1)
    pool = _process_pool(workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        run = pool.map if pool else map
        for t in ranks:
            shard = functools.partial(_sim_chunk, args.q, args.n, args.d, args.mode, args.seed, t)
            row = {"t": t, **dict.fromkeys(_COUNTS, 0)}
            lats = []
            for counts, shard_lats in run(shard, bounds, bounds[1:]):
                for key in _COUNTS:
                    row[key] += counts[key]
                lats += shard_lats
            if args.with_timing and lats:
                row["mean_ms"] = round(sum(lats) / len(lats), 3)
                row["p95_ms"] = round(_p95(lats), 3)
            results.append(row)
    wall = time.perf_counter() - wall0
    report = {
        "mode": args.mode,
        "params": {"d": args.d, "n": args.n, "q": args.q},
        "ranks": ranks,
        "results": results,
        "seed": args.seed,
        "trials_per_rank": args.trials,
    }
    total = sum(r["trials"] for r in results)
    print(f"simulate: {total} trials in {wall:.2f}s", file=sys.stderr)
    _emit(report, args.out)
    return 0


def cmd_mindist(args) -> int:
    params = build_params(args.q, args.n, args.d)
    t0 = time.perf_counter()
    dist = brute_min_distance(params, args.limit)
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000.0))
    size = code_size(params)
    print(f"mindist: {size} words in {elapsed_ms} ms", file=sys.stderr)
    _emit({"code_size": size, "d": args.d, "min_distance": dist, "n": args.n, "q": args.q}, args.out)
    return 0


def _fq2_str(ctx, a) -> str:
    s, t = ctx.fq2_coords(a)
    if t == 0:
        return str(s)
    wpart = "w" if t == 1 else f"{t}w"
    return wpart if s == 0 else f"{s}+{wpart}"


def cmd_matrix(args) -> int:
    params = _load_params(args.params)
    word = word_from_json_obj(params, _read_json(args.infile))
    rows = codeword_to_matrix(params, word)
    hermitian = is_hermitian(params.ctx, rows)
    cells = [[_fq2_str(params.ctx, v) for v in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  ".join(c.rjust(width) for c in row))
    print(f"hermitian: {'true' if hermitian else 'false'}")
    if args.out:
        ctx = params.ctx
        _emit(
            {
                "entries": [[ctx.to_coeffs(v) for v in row] for row in rows],
                "hermitian": hermitian,
            },
            args.out,
        )
    return 0


def _shared(*parents) -> argparse.ArgumentParser:
    """A parent parser for options that several subcommands take."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermrank",
        description="Hermitian rank-metric codes: encode, decode, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    triple = _shared()
    for flag in ("--q", "--n", "--d"):
        triple.add_argument(flag, type=int, required=True)
    params_file = _shared()
    params_file.add_argument("--params", required=True)
    word_file = _shared(params_file)
    word_file.add_argument("--in", dest="infile", required=True)
    mode = _shared()
    mode.add_argument("--mode", choices=[MODE_ARBITRARY, MODE_HERMITIAN], default=MODE_ARBITRARY)
    out = _shared()
    out.add_argument("--out")

    p = sub.add_parser("params", parents=[triple, out], help="build and serialize code parameters")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("encode", parents=[params_file, out], help="encode a message file to a codeword")
    p.add_argument("--message", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("corrupt", parents=[word_file, mode, out], help="add a seeded rank-t error to a word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--error-out")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("decode", parents=[word_file, out], help="decode a received word")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", parents=[triple, mode, out], help="Monte-Carlo decode trials")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--ranks", required=True, help="error ranks, e.g. '0,1' or '0-3'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--with-timing",
        action="store_true",
        help="include latency statistics in the report (breaks byte-identical reruns)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mindist", parents=[triple, out], help="exhaustive minimum distance scan")
    p.add_argument("--limit", type=int, default=DEFAULT_ENUM_LIMIT)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("matrix", parents=[word_file, out], help="print the matrix form of a word")
    p.set_defaults(func=cmd_matrix)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HermrankError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
