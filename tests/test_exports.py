"""The package's public names."""

import ast
import importlib
import importlib.util
from pathlib import Path

import hermrank

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
# the spans bench/tracer.py lists whose functions hermrank no longer defines
DARK_SPANS = {"linpoly.moore_from_points", "linpoly.fq2_matrix_rank", "linpoly.map_rank", "codec.solve_key_equation"}

REMOVED = (
    "DicksonMatrix", "dickson", "matrix_rank", "fq2_matrix_rank", "map_rank", "solve_key_equation", "lp_eval",
    "LinearizedPoly", "HermitianMatrix", "lp_zero",
)

# the public surface: the namespace hermrank exports
PUBLIC = {
    "MODE_ARBITRARY", "MODE_HERMITIAN",
    "ChannelSpec", "CodeParams", "CodeTable", "DecodeResult", "Felt", "FieldContext", "HermrankError",
    "Message", "NearestResult", "SplitMix64",
    "brute_min_distance", "build_params", "codeword_to_matrix", "corrupt", "decode", "encode",
    "enumerate_code", "is_hermitian", "make_context", "matrix_to_vector", "nearest_codeword",
    "params_from_json_obj", "params_to_json_obj", "random_message", "random_rank_error", "rank_distance",
    "substream_seed",
}

# construction and decoder internals: defined in these modules, not exported
INTERNAL = {
    "beta_split": "codec", "complete_g": "codec", "skew_bm": "codec", "expand_message": "codec",
    "extract_message": "codec", "lp_interpolate": "linpoly", "unitary_pairing": "code",
    "find_selfdual_basis": "code", "canonical_modulus": "field",
}


def test_all_names_resolve_sorted_and_unique():
    names = hermrank.__all__
    for name in names:
        assert getattr(hermrank, name) is not None, name
    assert len(set(names)) == len(names)
    # constants, then classes, then functions, each group alphabetical
    assert names == sorted(names, key=lambda s: (0 if s.isupper() else 1 if s[0].isupper() else 2, s))


def test_all_is_the_public_surface():
    assert len(hermrank.__all__) == len(PUBLIC) == 29
    assert set(hermrank.__all__) == PUBLIC


def test_internals_stay_in_their_modules():
    for name, mod in INTERNAL.items():
        assert name not in hermrank.__all__
        assert not hasattr(hermrank, name), name
        assert callable(getattr(importlib.import_module("hermrank." + mod), name)), name
    # build_params passes ctx.gen as eta, with no function of its own
    assert not hasattr(hermrank, "choose_eta") and not hasattr(hermrank.code, "choose_eta")


def _package_names_read(tree):
    """Names a module reads from the package: `from hermrank import x`, and
    `<alias>.x` where `import hermrank [as alias]` or `import hermrank.sub`
    bound alias."""
    nodes = list(ast.walk(tree))
    aliases = {a.asname or "hermrank" for node in nodes if isinstance(node, ast.Import) for a in node.names
               if a.name == "hermrank" or a.name.startswith("hermrank.") and not a.asname}
    names = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "hermrank" and not node.level:
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add(node.attr)
    return names


def test_bench_reads_only_public_names():
    # a later narrowing of __all__ must not break the benchmark silently;
    # submodules and dunders (hermrank.cli, hermrank.__file__) are not names
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        found |= _package_names_read(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert {"build_params", "decode", "SplitMix64"} <= found
    for name in found:
        if name.startswith("__") or importlib.util.find_spec("hermrank." + name) is not None:
            continue
        assert name in hermrank.__all__, name


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
