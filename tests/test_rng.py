"""SplitMix64 stream: reference outputs, substreams, bounded draws."""

import pytest

from hermrank import SplitMix64, substream_seed


def test_reference_vector_from_seed_zero():
    # widely published first outputs of SplitMix64 with state 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_streams_are_deterministic():
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]
    c = SplitMix64(987654322)
    assert a.next_u64() != c.next_u64()


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_substream_seeds_follow_master_stream():
    # substream i is seeded by the (i+1)-th output of the master stream
    master = SplitMix64(42)
    for i in range(10):
        assert substream_seed(42, i) == master.next_u64()


def test_substream_seeds_are_distinct():
    seeds = {substream_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_below_range_and_coverage():
    rng = SplitMix64(5)
    seen = set()
    for _ in range(500):
        v = rng.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        rng.below(0)


@pytest.mark.parametrize("bound", [1, 2, 3, 9, 25, 4294967291**2])
@pytest.mark.parametrize("count", [0, 1, 2, 63, 64, 527])
def test_draws_match_calls_of_below(bound, count):
    block, loop = SplitMix64(0xD1CE + count), SplitMix64(0xD1CE + count)
    assert block.draws(bound, count) == [loop.below(bound) for _ in range(count)]
    assert block.next_u64() == loop.next_u64()


def test_draws_interleave_with_single_draws():
    # one stream mixing the three kinds of call stays in step with a
    # stream making only next_u64 calls
    rng, ref = SplitMix64(2024), SplitMix64(2024)
    for count in (5, 0, 64, 1, 17):
        assert rng.next_u64() == ref.next_u64()
        assert rng.draws(11, count) == [ref.next_u64() % 11 for _ in range(count)]
        assert rng.below(13) == ref.next_u64() % 13


@pytest.mark.parametrize("bound", [0, -1])
def test_draws_reject_nonpositive_bound_or_negative_count(bound):
    rng = SplitMix64(5)
    for count in (0, 3):
        with pytest.raises(ValueError):
            rng.draws(bound, count)
    with pytest.raises(ValueError):
        rng.draws(2, -1)
    assert rng.next_u64() == SplitMix64(5).next_u64()
