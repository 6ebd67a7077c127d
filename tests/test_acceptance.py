"""Acceptance gate: ten end-to-end checks, one test and one printed verdict each.

Each test prints a single "ACCEPTANCE <n> (<label>): PASS/FAIL" line (visible
under -s or -rA) and asserts the same condition, so the -v output doubles as
the verdict list.  The heavy Monte-Carlo loop is shared between the round-trip
check and the solver-equivalence check through a module-scoped fixture.
"""

import json
import statistics
import time

import pytest

from hermrank import (
    MODE_ARBITRARY,
    ChannelSpec,
    Message,
    SplitMix64,
    brute_min_distance,
    build_params,
    codeword_to_matrix,
    corrupt,
    decode,
    encode,
    enumerate_code,
    matrix_to_vector,
    nearest_codeword,
    random_message,
    random_rank_error,
    rank_distance,
    substream_seed,
)
from hermrank.codec import beta_split, expand_message, skew_bm
from hermrank.linpoly import lp_interpolate
from reference_decode import cyclic_order, known_indices, solve_key_equation
from reference_moore import lp_eval
from reference_rank import dickson, matrix_rank

SMALL_SETS = [(2, 3, 3), (2, 5, 3), (2, 5, 5), (3, 3, 3), (2, 7, 7)]
ROUNDTRIP_SETS = [(2, 5, 3), (2, 7, 3), (2, 7, 5), (2, 7, 7), (3, 3, 3), (3, 5, 3), (2, 9, 5)]
PROPERTY_SETS = [(2, 5, 3), (2, 7, 5), (3, 5, 3)]
TRIALS_PER_RANK = 500
MASTER_SEED = 0x5EED


def _verdict(num, label, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance {num} ({label}) failed{tail}"


@pytest.fixture(scope="module")
def roundtrip_stats(params_for):
    """Runs the full seeded trial grid once; shared by checks 4 and 6."""
    stats = {
        "trials": 0,
        "successes": 0,
        "mismatches": 0,
        "solver_trials": 0,
        "solver_agreements": 0,
    }
    wall0 = time.perf_counter()
    for q, n, d in ROUNDTRIP_SETS:
        p = params_for(q, n, d)
        ctx = p.ctx
        for t in range(p.radius + 1):
            for i in range(TRIALS_PER_RANK):
                rng = SplitMix64(substream_seed(MASTER_SEED, (t << 32) + i))
                msg = random_message(p, rng)
                err = random_rank_error(p, ChannelSpec(t=t, mode=MODE_ARBITRARY, seed=rng.next_u64()))
                rec = corrupt(ctx, encode(p, msg), err)
                res = decode(p, rec)
                stats["trials"] += 1
                if res.ok and res.message == msg:
                    stats["successes"] += 1
                elif res.ok:
                    stats["mismatches"] += 1
                if t >= 1:
                    seq = beta_split(p, rec)[: d - 1]
                    bm_t, bm_lam = skew_bm(p, seq)
                    stats["solver_trials"] += 1
                    if bm_t == t and solve_key_equation(p, dict(zip(known_indices(p), seq)), t) == bm_lam:
                        stats["solver_agreements"] += 1
    stats["wall"] = time.perf_counter() - wall0
    return stats


def test_criterion_01_distance_realization(params_for):
    worst = 0.0
    ok = True
    for q, n, d in SMALL_SETS:
        p = params_for(q, n, d)
        t0 = time.perf_counter()
        dist = brute_min_distance(p)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        ok = ok and dist == d and elapsed < 60.0
    _verdict(1, "distance realization", ok, f"slowest scan {worst:.1f}s")


def test_criterion_02_code_size_maximality(params_for):
    ok = True
    for q, n, d in SMALL_SETS:
        table = enumerate_code(params_for(q, n, d))
        want = q ** (n * (n - d + 1))
        ok = ok and len(table.words) == want and len(set(table.words)) == want
    _verdict(2, "code size maximality", ok)


def test_criterion_03_hermitian_structure(params_for):
    checked = 0
    ok = True
    per_set = [334, 333, 333]
    for (q, n, d), count in zip(PROPERTY_SETS, per_set):
        p = params_for(q, n, d)
        ctx = p.ctx
        rng = SplitMix64(substream_seed(MASTER_SEED, 3))
        for _ in range(count):
            mat = codeword_to_matrix(p, encode(p, random_message(p, rng)))
            for i in range(n):
                for j in range(n):
                    if mat[i][j] != ctx.frobenius(mat[j][i], 1):
                        ok = False
            checked += 1
    _verdict(3, "hermitian structure", ok and checked == 1000, f"{checked} codewords")


def test_criterion_04_certified_roundtrip(roundtrip_stats):
    s = roundtrip_stats
    ok = (
        s["successes"] == s["trials"]
        and s["mismatches"] == 0
        and s["wall"] < 300.0
    )
    _verdict(
        4,
        "certified roundtrip",
        ok,
        f"{s['successes']}/{s['trials']} in {s['wall']:.0f}s",
    )


def test_criterion_05_exhaustive_tiny_case(params_for):
    p = params_for(2, 3, 3)
    ctx = p.ctx
    table = enumerate_code(p)
    sub2 = ctx.subfield_elements(2)
    nonzero = [v for v in sub2 if v != ctx.zero]

    def vectors():
        for a in sub2:
            for b in sub2:
                for c in sub2:
                    if (a, b, c) != (ctx.zero,) * 3:
                        yield (a, b, c)

    # every rank-1 matrix is u*v^T for a unique projective u and nonzero v
    proj = [u for u in vectors() if next(x for x in u if x != ctx.zero) == ctx.one]
    errors = []
    for u in proj:
        for v in vectors():
            rows = tuple(tuple(ctx.mul(ui, vj) for vj in v) for ui in u)
            errors.append(matrix_to_vector(p, rows))
    ok = len(errors) == 1323 and len(proj) == 21 and len(nonzero) == 3

    zero = (ctx.zero,) * 3
    for e in errors:
        if rank_distance(p, e, zero) != 1:
            ok = False
    instances = 0
    for msg, word in zip(table.messages, table.words):
        for e in errors:
            rec = corrupt(ctx, word, e)
            res = decode(p, rec)
            near = nearest_codeword(p, table, rec)
            if not (
                res.ok
                and res.message == msg
                and res.error_rank == 1
                and near.message == msg
                and near.distance == 1
                and near.ties == 1
            ):
                ok = False
            instances += 1
    _verdict(5, "exhaustive tiny case", ok and instances == 8 * 1323, f"{instances} instances")


def test_criterion_06_solver_equivalence(roundtrip_stats):
    s = roundtrip_stats
    ok = s["solver_trials"] > 0 and s["solver_agreements"] == s["solver_trials"]
    _verdict(6, "solver equivalence", ok, f"{s['solver_agreements']}/{s['solver_trials']}")


def test_criterion_07_dickson_property(params_for):
    ok = True
    per_set = 200
    for q, n, d in PROPERTY_SETS:
        p = params_for(q, n, d)
        ctx = p.ctx
        zero = (ctx.zero,) * n
        for idx in range(per_set):
            t = 1 + idx % 3
            e = random_rank_error(
                p, ChannelSpec(t=t, mode=MODE_ARBITRARY, seed=substream_seed(MASTER_SEED, 7_000 + idx))
            )
            g = lp_interpolate(ctx, p.moore_packed, e)
            dmat = dickson(ctx, g)
            if matrix_rank(ctx, dmat.rows) != rank_distance(p, e, zero):
                ok = False
            for i0 in range(n):
                for j0 in range(n):
                    sub = [
                        [dmat.rows[(i0 + a) % n][(j0 + b) % n] for b in range(t)]
                        for a in range(t)
                    ]
                    if matrix_rank(ctx, sub) != t:
                        ok = False
    _verdict(7, "dickson minors", ok, f"{per_set} errors x {len(PROPERTY_SETS)} sets")


def test_criterion_08_interpolation_identities(params_for, rand_felt):
    ok = True
    for q, n, d in PROPERTY_SETS:
        p = params_for(q, n, d)
        ctx = p.ctx
        rng = SplitMix64(substream_seed(MASTER_SEED, 8))
        for _ in range(1000):
            poly = tuple(rand_felt(ctx, rng) for _ in range(n))
            values = [lp_eval(ctx, poly, a) for a in p.alpha]
            if lp_interpolate(ctx, p.moore_packed, values) != poly:
                ok = False
        for _ in range(1000):
            msg = random_message(p, rng)
            evec = tuple(rand_felt(ctx, rng) for _ in range(n))
            seq = beta_split(p, corrupt(ctx, encode(p, msg), evec))
            sent = expand_message(p, msg)
            g = lp_interpolate(ctx, p.moore_packed, evec)
            if seq != tuple(ctx.add(sent[i], g[i]) for i in cyclic_order(p)):
                ok = False
    _verdict(8, "interpolation identities", ok, "1000+1000 per set")


def test_criterion_09_cli_determinism(tmp_path):
    from hermrank.cli import main

    files = [tmp_path / name for name in ("p1.json", "p2.json", "s1.json", "s2.json", "s3.json")]
    ok = main(["params", "--q", "2", "--n", "7", "--d", "5", "--out", str(files[0])]) == 0
    ok = ok and main(["params", "--q", "2", "--n", "7", "--d", "5", "--out", str(files[1])]) == 0
    sim = ["simulate", "--q", "2", "--n", "5", "--d", "3", "--trials", "25",
           "--ranks", "0-1", "--seed", "12345"]
    ok = ok and main(sim + ["--out", str(files[2])]) == 0
    ok = ok and main(sim + ["--out", str(files[3])]) == 0
    ok = ok and main(sim + ["--threads", "2", "--out", str(files[4])]) == 0
    ok = ok and files[0].read_bytes() == files[1].read_bytes()
    ok = ok and files[2].read_bytes() == files[3].read_bytes()
    ok = ok and files[2].read_bytes() == files[4].read_bytes()
    ok = ok and json.loads(files[2].read_text())["results"][0]["trials"] == 25
    _verdict(9, "cli determinism", ok)


def test_criterion_10_decode_latency():
    p = build_params(2, 31, 15)
    ctx = p.ctx
    lats = []
    for i in range(100):
        rng = SplitMix64(substream_seed(MASTER_SEED, 10_000 + i))
        msg = random_message(p, rng)
        t = i % (p.radius + 1)
        err = random_rank_error(p, ChannelSpec(t=t, mode=MODE_ARBITRARY, seed=rng.next_u64()))
        rec = corrupt(ctx, encode(p, msg), err)
        t0 = time.perf_counter()
        res = decode(p, rec)
        lats.append((time.perf_counter() - t0) * 1000.0)
        assert res.ok and res.message == msg
    med = statistics.median(lats)
    _verdict(10, "decode latency", med < 100.0, f"median {med:.1f} ms")
