import types

import pytest

from hermrank import SplitMix64, build_params

_cache = {}


@pytest.fixture(scope="session")
def params_for():
    """Session-cached code parameters; building them is deterministic, so
    sharing across tests changes nothing."""

    def get(q, n, d):
        key = (q, n, d)
        if key not in _cache:
            _cache[key] = build_params(q, n, d)
        return _cache[key]

    return get


@pytest.fixture(scope="session")
def rand_felt():
    def draw(ctx, rng: SplitMix64):
        return ctx.from_coeffs([rng.below(ctx.q) for _ in range(ctx.deg)])

    return draw


@pytest.fixture(scope="session")
def rand_word(rand_felt):
    """A word of params.n elements, each drawn by rand_felt in turn."""

    def draw(params, rng: SplitMix64):
        return tuple(rand_felt(params.ctx, rng) for _ in range(params.n))

    return draw


@pytest.fixture
def spy(monkeypatch):
    """The one call counter of the tests: spy(owner, *names) wraps each
    named attribute of owner so that every call still runs, and returns
    {name: list}, the positional argument tuples of that name's calls in
    order; a count is the list's len, and clearing the list starts a new
    count.  A module's attributes and a class's are patched with
    monkeypatch.setattr, a class's being instance methods whose self is not
    recorded; any other object's are set in its own __dict__, so a hook an
    engine holds per instance (a staticmethod or a function chosen at set-up)
    is counted on that object alone.  Every patch is undone when the test
    ends."""

    def wrap(owner, *names):
        is_class, calls = isinstance(owner, type), {}
        for name in names:
            orig, seen = getattr(owner, name), calls.setdefault(name, [])

            def counting(*args, _orig=orig, _seen=seen):
                _seen.append(args[is_class:])
                return _orig(*args)

            if is_class or isinstance(owner, types.ModuleType):
                monkeypatch.setattr(owner, name, counting)
            else:
                monkeypatch.setitem(vars(owner), name, counting)
        return calls

    return wrap
