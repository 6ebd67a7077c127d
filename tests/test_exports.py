"""The package's public names."""

import hermrank

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
