"""Points and builders that several test modules share: each test module
imports them from here, never from another test module, and pytest advises
against importing conftest.py."""

from hermrank import MODE_ARBITRARY, ChannelSpec, SplitMix64, corrupt, encode, random_message, random_rank_error

# every (q, n, d) the suite builds a code at, including the edge shapes
# d = 1 (k = n, the window is every index), d = n (k = 1, a one-index
# window) and n = 1
ENCODE_POINTS = [
    (2, 1, 1), (2, 3, 3), (2, 5, 1), (2, 5, 3), (2, 5, 5), (2, 7, 1), (2, 7, 3), (2, 7, 5), (2, 7, 7),
    (2, 9, 5), (2, 9, 7), (2, 9, 9), (2, 31, 15),
    (3, 1, 1), (3, 3, 1), (3, 3, 3), (3, 5, 1), (3, 5, 3), (3, 7, 5), (3, 7, 7), (3, 9, 5), (3, 19, 9),
    (5, 1, 1), (5, 3, 3), (5, 5, 3), (5, 5, 5), (5, 7, 5), (5, 13, 7), (7, 3, 3), (7, 5, 3),
    (65521, 1, 1), (1000003, 1, 1), (4294967291, 1, 1),
]

# every (q, n) the suite or the benchmark builds a code at, with one d
# used there (the basis, and so the Moore table, depends on (q, n) alone);
# (2, 31) has the widest q = 2 stride, and q = 4294967291 the 9-byte slots
# that the odd-q engine cuts from the byte string one by one
PACKED_POINTS = [
    (2, 1, 1), (2, 3, 3), (2, 5, 3), (2, 7, 5), (2, 9, 5), (2, 31, 15),
    (3, 1, 1), (3, 3, 3), (3, 5, 3), (3, 7, 5), (3, 9, 5), (3, 19, 9),
    (5, 1, 1), (5, 3, 3), (5, 5, 3), (5, 7, 5), (5, 13, 7),
    (65521, 1, 1), (1000003, 1, 1), (4294967291, 1, 1),
]


def noisy(params, msg_seed, t, mode=MODE_ARBITRARY):
    """(message, error, received word): a random message drawn from
    SplitMix64(msg_seed), encoded, plus a rank-t error of the given mode
    seeded by that stream's next draw."""
    rng = SplitMix64(msg_seed)
    msg = random_message(params, rng)
    err = random_rank_error(params, ChannelSpec(t=t, mode=mode, seed=rng.next_u64()))
    return msg, err, corrupt(params.ctx, encode(params, msg), err)
