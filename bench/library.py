"""In-process workloads: hermrank called from this process, one operation
at a time, in a closed loop.

A trial draws a message, encodes it, samples a rank-t error, adds it and
decodes; each of the five calls is timed on its own.  Trial i's inputs
come from (seed, i) alone, so a traced rerun of trial i sees the same
inputs as the untraced run.
"""

from __future__ import annotations

import resource
import statistics
import time

import layers
from indep import OwnField
from refloop import Session
from tracer import Tracer, clear_caches

#: Set-ups per run; setup_s is their median.
SETUPS = 3
#: Seed of the fixed warm-up trial that ends every set-up.
WARM_SEED = 0x5EED


class Checks:
    """Collects failed correctness checks; a run is correct when none fail."""

    def __init__(self):
        self.errors: list = []

    def __call__(self, ok: bool, what: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(what)


def check_trial(own, functionals, radius, t, msg, word, err, rx, res, reencode) -> list:
    """What is wrong with one trial's outputs, checked with the benchmark's
    own field arithmetic; an empty list when nothing is."""
    bad = []
    if not all(own.in_half_field(p) for p in msg.parts):
        bad.append("message outside F_q^n")
    if not own.is_hermitian(functionals, word):
        bad.append("codeword matrix is not Hermitian")
    if own.rank(err) != t:
        bad.append(f"channel error rank is not {t}")
    if [own.elem(x) for x in rx] != [own.add(own.elem(a), own.elem(b)) for a, b in zip(word, err)]:
        bad.append("received word is not codeword + error")
    if t <= radius:
        if not (res.ok and res.message == msg and res.error_rank == t):
            bad.append("decode did not return the sent message")
    elif res.ok:
        back = reencode(res.message)
        if own.rank([own.sub(own.elem(a), own.elem(b)) for a, b in zip(rx, back)]) > radius:
            bad.append("decoded codeword lies beyond the radius")
    return bad


def trial_seed(seed: int, i: int) -> int:
    return (seed << 24) + i


def run(spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    # calls go through the package namespace, which Tracer.install patches
    import hermrank as H
    from hermrank import ChannelSpec, SplitMix64

    q, n, d, t, mode = spec["q"], spec["n"], spec["d"], spec["t"], spec["mode"]
    tracer = Tracer() if trace else None
    sess = Session(tracer)
    check = Checks()

    def setup():
        params = H.build_params(q, n, d)
        # one trial on fixed inputs, so tables hermrank builds lazily on
        # first use are paid for here and not by the first timed trial
        msg = H.random_message(params, SplitMix64(WARM_SEED))
        word = H.encode(params, msg)
        err = H.random_rank_error(params, ChannelSpec(t=1, mode=mode, seed=WARM_SEED))
        res = H.decode(params, H.corrupt(params.ctx, word, err))
        check(res.ok and res.message == msg, "warm-up trial did not decode")
        return params

    if tracer:
        tracer.install()
    built = []
    for _ in range(SETUPS):
        clear_caches()
        built.append(sess.run("setup", setup, traced=trace))
    if tracer:
        tracer.uninstall()
    params = built[-1]
    check(all(p.alpha == params.alpha and p.ctx.modulus == params.ctx.modulus for p in built),
          "set-ups built different parameters")
    own = OwnField(q, n, params.ctx.modulus)
    check(own.gram_ok(params.alpha), "basis fails the Gram identity")
    functionals = own.basis_functionals(params.alpha)
    radius = params.radius
    outcomes = {}
    batch = []

    def trial(i: int, traced: bool):
        rng = SplitMix64(trial_seed(seed, i))
        msg = sess.run("message", H.random_message, params, rng, trial=i, traced=traced)
        word = sess.run("encode", H.encode, params, msg, trial=i, traced=traced)
        chan = ChannelSpec(t=t, mode=mode, seed=rng.next_u64())
        err = sess.run("channel", H.random_rank_error, params, chan, trial=i, traced=traced)
        rx = sess.run("corrupt", H.corrupt, params.ctx, word, err, trial=i, traced=traced)
        res = sess.run("decode", H.decode, params, rx, trial=i, traced=traced)
        sess.ops[-1]["ok"] = res.ok
        if not batch:
            batch.extend((word, rx))
        for what in check_trial(own, functionals, radius, t, msg, word, err, rx, res, lambda m: H.encode(params, m)):
            check(False, f"trial {i}: {what}")
        return (msg.parts, res.ok, res.reason, res.message.parts if res.ok else None)

    start = time.perf_counter()
    i = 0
    plain_ops, traced_ops = [], []
    while time.perf_counter() - start < seconds or i < spec["count_trials"]:
        first = len(sess.ops)
        outcomes[i] = trial(i, False)
        plain_ops.append((first, len(sess.ops)))
        if trace:
            first = len(sess.ops)
            tracer.install()
            try:
                again = trial(i, True)
            finally:
                tracer.uninstall()
            traced_ops.append((first, len(sess.ops)))
            check(again == outcomes[i], f"trial {i}: traced and untraced runs disagree")
        i += 1
    if trace:
        time_muls(sess, params.ctx.mul, *batch)
    sess.finish()

    def trial_times(spans):
        return [sum(o["norm"] for o in sess.ops[a:b]) for a, b in spans]

    reasons: dict = {}
    for _, ok, reason, _ in outcomes.values():
        reasons[reason or "ok"] = reasons.get(reason or "ok", 0) + 1
    raw = {
        "trials": i,
        "ref_ms": sess.ref_ms(),
        "setup_s": statistics.median(sess.raws("setup", trace)),
        "decode_ms": statistics.median(sess.raws("decode")) * 1e3,
        "encode_ms": statistics.median(sess.raws("encode")) * 1e3,
        "trials_per_s": i / sum(sum(o["raw"] for o in sess.ops[a:b]) for a, b in plain_ops),
        "decode_outcomes": reasons,
    }
    result = {"attempted": len(sess.ops), "failed": 0, "errors": check.errors, "raw": raw,
              "ops": [{key: o[key] for key in ("kind", "trial", "traced", "raw", "norm")} for o in sess.ops],
              "outcomes": [outcomes[j] for j in range(i)]}
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(sess.norms("setup")),
            "decode_ms": statistics.median(sess.norms("decode")) * 1e3,
            "encode_ms": statistics.median(sess.norms("encode")) * 1e3,
            "trials_per_s": i / sum(trial_times(plain_ops)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result
    extra = {
        "field.mul_ns": mul_ns(sess),
        "trace.overhead_pct": layers.overhead_pct(trial_times(plain_ops), trial_times(traced_ops)),
    }
    result["metrics"] = layers.per_layer(tracer.spans, sess.ops, sess.norm, spec["count_trials"], extra)
    result["spans"] = tracer.spans
    result["missing"] = tracer.missing
    return result


#: Timed passes over the field.mul_ns batch; the metric is their median.
MUL_PASSES = 5


def time_muls(sess: Session, mul, a, b) -> None:
    """Time MUL_PASSES passes over all products of two fixed words of the
    workload, each repeated to last about 20 ms, as "mul" operations."""
    pairs = [(x, y) for x in a for y in b]
    t0 = time.perf_counter()
    for x, y in pairs:
        mul(x, y)
    reps = max(1, round(0.02 / (time.perf_counter() - t0)))
    for _ in range(MUL_PASSES):
        t0 = time.perf_counter()
        for _ in range(reps):
            for x, y in pairs:
                mul(x, y)
        sess.record("mul", reps * len(pairs), t0, time.perf_counter())


def mul_ns(sess: Session) -> float:
    """One K-multiplication in ns at the nominal reference speed."""
    return statistics.median(o["norm"] / o["trial"] * 1e9 for o in sess.ops if o["kind"] == "mul")
