"""Per-layer metrics from the spans of a traced run.

Every span belongs to the operation span at the root of its tree, and its
duration is normalised like the operation's (see refloop).  Spans outside
any operation (the benchmark's own checks) are ignored.

Counts are exact: they are taken over the first ``count_trials`` trials
only, whose inputs depend on the seed and nothing else, so a traced run
of one seed repeats them however fast the host is.  Times are means over
every traced trial; set-up times are medians over the set-ups.
"""

from __future__ import annotations

import statistics

_RANKS = ("linpoly.fq2_matrix_rank", "linpoly.map_rank")
_CERTIFY = ("codec.encode", "code.rank_distance", "linpoly.lp_interpolate")
_DECODE_SUMS = {
    "linpoly.interpolate_ms": ("linpoly.lp_interpolate",),
    "code.rank_distance_ms": ("code.rank_distance",),
    "codec.bm_ms": ("codec.skew_bm",),
    "codec.keyeq_ms": ("codec.solve_key_equation",),
    "codec.complete_ms": ("codec.complete_g",),
    "codec.extract_ms": ("codec.extract_message",),
}


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def per_layer(spans: list, ops: list, norm, count_trials: int, extra: dict) -> dict:
    """Per-layer metric values from spans and the operation records that
    own them; ``norm(a, b)`` normalises an interval of the perf_counter
    clock and ``extra`` supplies values measured outside the spans."""
    op_at = {o["span"]: o for o in ops if o["span"] is not None}
    n = len(spans)
    root = [0] * n
    end = list(range(n))
    for i, s in enumerate(spans):
        root[i] = i if s[1] < 0 else root[s[1]]
    for i in range(n - 1, -1, -1):
        p = spans[i][1]
        if p >= 0 and end[i] > end[p]:
            end[p] = end[i]

    def dur(i) -> float:
        return norm(spans[i][2], spans[i][3])

    def owner(i):
        return op_at.get(root[i])

    def under(i, names):
        return [j for j in range(i + 1, end[i] + 1) if spans[j][0] in names]

    def in_trials(name):
        # set-ups (trial None) end with a warm-up decode that is left out
        return [i for i, s in enumerate(spans) if s[0] == name and owner(i) and owner(i)["trial"] is not None]

    decodes = in_trials("codec.decode")
    errors = in_trials("channel.random_rank_error")
    exact_dec = [i for i in decodes if owner(i)["trial"] < count_trials]
    exact_err = [i for i in errors if owner(i)["trial"] < count_trials]

    out = {}
    for slot, name in enumerate(("mul", "frobenius", "inv")):
        out[f"field.{name}_per_decode"] = _mean([spans[i][4][slot] for i in exact_dec])
    out["field.mul_per_error"] = _mean([spans[i][4][0] for i in exact_err])
    for metric, names in _DECODE_SUMS.items():
        out[metric] = _mean([sum(dur(j) for j in under(i, names)) * 1e3 for i in decodes])
    out["codec.certify_ms"] = _mean([
        sum(dur(j) for j in under(i, _CERTIFY) if spans[j][1] == i) * 1e3 for i in decodes
    ])
    out["codec.keyeq_solves_per_decode"] = _mean([len(under(i, ("codec.solve_key_equation",))) for i in exact_dec])
    cands = [len(under(i, ("codec.extract_message",))) for i in exact_dec]
    out["codec.candidates_per_decode"] = _mean(cands)
    certified = sum(1 for i in exact_dec if owner(i).get("ok"))
    out["codec.certified_per_candidate"] = certified / sum(cands) if sum(cands) else 0.0

    per_trial: dict = {}
    for i, s in enumerate(spans):
        op = owner(i)
        if s[0] in _RANKS and op and op["trial"] is not None:
            per_trial[op["trial"]] = per_trial.get(op["trial"], 0.0) + dur(i) * 1e3
    trials = {o["trial"] for o in ops if o["traced"] and o["trial"] is not None}
    out["linpoly.rank_ms"] = sum(per_trial.values()) / len(trials) if trials else 0.0

    out["channel.sample_ms"] = _mean([dur(i) * 1e3 for i in errors])
    out["channel.draws_per_error"] = _mean([
        len(under(i, ("channel._draw_arbitrary", "channel._draw_hermitian"))) for i in exact_err
    ])
    out["channel.rank_checks_per_error"] = _mean([len(under(i, _RANKS)) for i in exact_err])

    def calls(name):
        return [dur(i) for i, s in enumerate(spans) if s[0] == name and owner(i)]

    out["field.modulus_s"] = _median(calls("field.canonical_modulus"))
    out["linpoly.moore_s"] = _median(calls("linpoly.moore_from_points"))
    out["code.basis_s"] = _median(calls("code.find_selfdual_basis"))
    out["cli.params_load_s"] = _median(calls("code.params_from_json_obj"))
    for key in ("field.mul_ns", "cli.process_ms", "cli.simulate_builds", "trace.overhead_pct"):
        out[key] = extra.get(key, 0.0)
    return out


def overhead_pct(plain: list, traced: list) -> float:
    """Median traced trial time over median untraced, as a percentage."""
    if not plain or not traced:
        return 0.0
    return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
