"""Benchmark of hermrank's encoder, decoder, channel and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hermrank is imported from its ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the raw (not normalised) figures.  The whole result,
with the spans of a traced run, is also written to
``bench/out/<workload>-seed<N>-trace<0|1>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Workload name -> parameters.  Every run makes at least count_trials
#: trials (CLI rounds), and the exact per-layer counts are taken over them.
WORKLOADS = {
    "gf2-radius": {"kind": "library", "q": 2, "n": 31, "d": 15, "t": 7, "mode": "arbitrary", "count_trials": 8},
    "gf2-beyond": {"kind": "library", "q": 2, "n": 31, "d": 15, "t": 8, "mode": "arbitrary", "count_trials": 8},
    "odd-hermitian": {"kind": "library", "q": 3, "n": 19, "d": 9, "t": 4, "mode": "hermitian", "count_trials": 2},
    "cli-q5": {"kind": "cli", "q": 5, "n": 13, "d": 7, "t": 3, "count_trials": 3,
               "sim_trials": 4, "sim_ranks": "0-4", "sim_threads": 2},
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hermrank", "__init__.py")):
        print(f"error: no hermrank sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hermrank

    if not os.path.abspath(hermrank.__file__).startswith(SRC + os.sep):
        print(f"error: imported hermrank from {hermrank.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    if spec["kind"] == "library":
        import library

        result = library.run(spec, args.seed, args.seconds, bool(args.trace))
    else:
        import cliwork

        result = cliwork.run(spec, args.seed, args.seconds, bool(args.trace))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    for name in result.get("missing", ()):
        print(f"warning: hermrank has no {name} to trace; its metrics read 0", file=sys.stderr)
    final = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": float(result["metrics"][k]), "unit": u} for k, u in units.items()},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump({**result, **final, "workload": args.workload, "seed": args.seed}, fh)
        fh.write("\n")
    print(json.dumps({"raw": result["raw"]}, sort_keys=True))
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
