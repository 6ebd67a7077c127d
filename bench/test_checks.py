"""Self-tests of the benchmark's correctness checks.

    python3 -m pytest -q bench/test_checks.py

Each check is fed a known-bad output and must reject it; the traced and
untraced runs of one seed must agree trial by trial.  Small parameters
keep the whole file under a minute.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import cliwork  # noqa: E402
import library  # noqa: E402
from indep import OwnField  # noqa: E402
from hermrank import (  # noqa: E402
    ChannelSpec,
    Message,
    SplitMix64,
    build_params,
    corrupt,
    decode,
    encode,
    random_message,
    random_rank_error,
)


@pytest.fixture(scope="module", params=[(2, 7, 5), (3, 5, 3)])
def setting(request):
    q, n, d = request.param
    params = build_params(q, n, d)
    own = OwnField(q, n, params.ctx.modulus)
    return params, own, own.basis_functionals(params.alpha)


def _trial(params, t, seed=11):
    msg = random_message(params, SplitMix64(seed))
    word = encode(params, msg)
    err = random_rank_error(params, ChannelSpec(t=t, seed=seed))
    rx = corrupt(params.ctx, word, err)
    return msg, word, err, rx, decode(params, rx)


def _check(setting, t, msg, word, err, rx, res):
    params, own, fns = setting
    return library.check_trial(own, fns, params.radius, t, msg, word, err, rx, res, lambda m: encode(params, m))


def test_good_trial_passes(setting):
    params = setting[0]
    assert _check(setting, params.radius, *_trial(params, params.radius)) == []


def test_message_with_one_coefficient_changed_fails(setting):
    params = setting[0]
    msg, word, err, rx, res = _trial(params, params.radius)
    ctx = params.ctx
    coeffs = ctx.to_coeffs(res.message.parts[0])
    coeffs[0] = (coeffs[0] + 1) % ctx.q
    changed = Message((ctx.from_coeffs(coeffs),) + res.message.parts[1:])
    bad = _check(setting, params.radius, msg, word, err, rx, dataclasses.replace(res, message=changed))
    assert bad == ["decode did not return the sent message"]


def test_error_of_wrong_rank_fails(setting):
    params = setting[0]
    msg, word, err, rx, res = _trial(params, params.radius)
    wrong = random_rank_error(params, ChannelSpec(t=params.radius + 1, seed=5))
    bad = _check(setting, params.radius, msg, word, wrong, corrupt(params.ctx, word, wrong), res)
    assert f"channel error rank is not {params.radius}" in bad


def test_non_hermitian_codeword_fails(setting):
    params = setting[0]
    msg, word, err, rx, res = _trial(params, params.radius)
    # an arbitrary-mode rank-1 error is not Hermitian for these seeds
    bent = corrupt(params.ctx, word, random_rank_error(params, ChannelSpec(t=1, seed=3)))
    bad = _check(setting, params.radius, msg, bent, err, corrupt(params.ctx, bent, err), res)
    assert "codeword matrix is not Hermitian" in bad


def test_decode_beyond_radius_fails(setting):
    params = setting[0]
    t = params.radius + 1
    msg, word, err, rx, _ = _trial(params, t)
    # claim the sent message came back: its codeword is t > radius away
    fake = decode(params, word)
    assert fake.ok and fake.message == msg
    assert _check(setting, t, msg, word, err, rx, fake) == ["decoded codeword lies beyond the radius"]


def test_received_word_must_be_codeword_plus_error(setting):
    params = setting[0]
    msg, word, err, rx, res = _trial(params, params.radius)
    assert "received word is not codeword + error" in _check(setting, params.radius, msg, word, err, word, res)


SMALL = {"kind": "library", "q": 2, "n": 7, "d": 5, "t": 3, "mode": "arbitrary", "count_trials": 6}


def test_traced_and_untraced_runs_agree():
    plain = library.run(SMALL, seed=4, seconds=0, trace=False)
    traced = library.run(SMALL, seed=4, seconds=0, trace=True)
    assert plain["errors"] == [] and traced["errors"] == []
    assert plain["outcomes"] == traced["outcomes"]
    # beyond the radius some decodes fail, so failure reasons are compared too
    assert {o[2] for o in plain["outcomes"]} - {None}


def test_traced_run_reports_exact_counts():
    first = library.run(SMALL, seed=4, seconds=0, trace=True)["metrics"]
    again = library.run(SMALL, seed=4, seconds=0.5, trace=True)["metrics"]
    for key in ("field.mul_per_decode", "field.frobenius_per_decode", "field.inv_per_decode",
                "field.mul_per_error", "codec.keyeq_solves_per_decode", "codec.candidates_per_decode"):
        assert first[key] == again[key] > 0


CLI_SMALL = {"kind": "cli", "q": 3, "n": 3, "d": 3, "t": 1, "count_trials": 1,
             "sim_trials": 2, "sim_ranks": "0-2", "sim_threads": 2}


def test_cli_round_trip_traced():
    res = cliwork.run(CLI_SMALL, seed=2, seconds=0, trace=True)
    assert res["errors"] == []
    assert res["metrics"]["cli.simulate_builds"] == 1 + 3 * 2
    assert res["metrics"]["cli.params_load_s"] > 0
