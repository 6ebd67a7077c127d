"""The package's public names."""

import importlib
import importlib.util
from pathlib import Path

import hermrank

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# the spans bench/tracer.py lists whose functions hermrank no longer defines
DARK_SPANS = {"linpoly.moore_from_points", "linpoly.fq2_matrix_rank", "linpoly.map_rank", "codec.solve_key_equation"}

REMOVED = (
    "DicksonMatrix", "dickson", "matrix_rank", "fq2_matrix_rank", "map_rank", "solve_key_equation", "lp_eval",
    "LinearizedPoly", "HermitianMatrix", "lp_zero",
)


def test_all_names_resolve_sorted_and_unique():
    names = hermrank.__all__
    for name in names:
        assert getattr(hermrank, name) is not None, name
    assert len(set(names)) == len(names)
    # constants, then classes, then functions, each group alphabetical
    assert names == sorted(names, key=lambda s: (0 if s.isupper() else 1 if s[0].isupper() else 2, s))


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert name not in hermrank.__all__
        assert not hasattr(hermrank, name)
        assert not hasattr(hermrank.linpoly, name)
        assert not hasattr(hermrank.codec, name)


def test_tracer_spans_stay_bound():
    # the benchmark's per-layer metrics are read from these spans, and the
    # tracer skips a function it cannot find, so renaming one would turn
    # its metric dark without an error
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = {f"{mod}.{fn}" for mod, fn in tracer.SPANS
               if not hasattr(importlib.import_module("hermrank." + mod), fn)}
    assert missing <= DARK_SPANS
