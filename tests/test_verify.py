"""Verification suites: the gauge suite against its per-patch oracle route,
one draw of states per run, and run_suite / run_all_suites agreement."""

import collections

import numpy as np
import pytest

from chaplygin import (
    SUITE_NAMES,
    BivectorPatch,
    FormPatch,
    dynamical_gauge_check,
    full_hamiltonian_field,
    gauge_form_on_M,
    gauge_matrix,
    gauge_transform,
    nh_bracket_full,
    run_all_suites,
    run_suite,
    sample_full_state,
    sample_reduced_state,
)
from chaplygin import verify

from conftest import asymmetric_body, standard_body

BODIES = pytest.mark.parametrize("make_body", [standard_body, asymmetric_body], ids=["standard", "asymmetric"])


def _oracle_gauge_residuals(body, states):
    """The four gauge residuals by the route of one BivectorPatch per gauged
    bracket (each re-evaluating P, B and E + B P) and dynamical_gauge_check."""
    pi_plain = nh_bracket_full(body, "plain")
    pi_gauged = nh_bracket_full(body, "gauged")
    b_form = gauge_form_on_M(body)
    transformed = gauge_transform(pi_plain, b_form)
    minus_b = FormPatch(degree=2, dim=15, entries=lambda s: -b_form(s), partials=lambda s: -b_form.partial_tensor(s))
    zero = FormPatch(degree=2, dim=15, entries=lambda s: np.zeros((15, 15)), partials=lambda s: np.zeros((15,) * 3))
    back = gauge_transform(transformed, minus_b)
    ident = gauge_transform(pi_plain, zero)
    records = dynamical_gauge_check(pi_plain, b_form, full_hamiltonian_field(body), states)
    return {
        "gauge-match": max(float(np.max(np.abs(transformed.matrix(s) - pi_gauged.matrix(s)))) for s in states),
        "gauge-roundtrip": max(float(np.max(np.abs(back.matrix(s) - pi_plain.matrix(s)))) for s in states),
        "gauge-zero": max(float(np.max(np.abs(ident.matrix(s) - pi_plain.matrix(s)))) for s in states[:5]),
        "gauge-dynamical": max(r["contraction"] for r in records),
    }, all(r["passed"] for r in records)


@BODIES
def test_gauge_suite_equals_oracle_route(rank, make_body):
    body = make_body(rank)
    trials, seed = 6, 11 + rank
    rng = np.random.default_rng(seed)
    states = [sample_full_state(rng) for _ in range(trials)]
    expected, dyn_ok = _oracle_gauge_residuals(body, states)
    checks = {c["id"]: c for c in run_suite("gauge", body, trials=trials, seed=seed)["checks"]}
    assert {k: c["max_residual"] for k, c in checks.items()} == expected
    assert checks["gauge-dynamical"]["passed"] is (dyn_ok and expected["gauge-dynamical"] <= 1e-9)
    assert all(c["passed"] for c in checks.values())


@BODIES
def test_tol_scale_loosens_the_dynamical_gauge_bound(rank, make_body, monkeypatch):
    """A 2-form off by 1e-8 along e_0 ^ e_12 leaves a contraction of a few
    1e-9: over the 1e-9 bound, under 100 times it."""
    base = verify.gauge_form_on_M
    delta = np.zeros((15, 15))
    delta[0, 12], delta[12, 0] = 1e-8, -1e-8

    def perturbed(params):
        b_form = base(params)
        return FormPatch(degree=2, dim=15, entries=lambda s: b_form(s) + delta, partials=b_form.partials)

    monkeypatch.setattr(verify, "gauge_form_on_M", perturbed)
    body = make_body(rank)
    for tol_scale, passed in ((1.0, False), (100.0, True)):
        checks = {c["id"]: c for c in run_suite("gauge", body, trials=5, tol_scale=tol_scale)["checks"]}
        dyn = checks["gauge-dynamical"]
        assert 1e-9 < dyn["max_residual"] < 1e-8
        assert dyn["tolerance"] == 1e-9 * tol_scale and dyn["passed"] is passed


def test_gauge_matrix_of_zero_form_is_the_input():
    p = nh_bracket_full(standard_body(2), "plain").matrix(sample_full_state(seed=3))
    assert np.array_equal(gauge_matrix(p, np.zeros((15, 15))), p)


@BODIES
def test_run_all_suites_equals_run_suite(rank, make_body):
    body = make_body(rank)
    for kwargs in ({"trials": 4, "seed": 5}, {"trials": 3, "seed": 9, "tol_scale": 2.0, "variant": "primed"}):
        assert run_all_suites(body, **kwargs) == [run_suite(n, body, **kwargs) for n in SUITE_NAMES]


def test_states_are_drawn_once_per_run(monkeypatch):
    counts = collections.Counter()

    def counting(kind, sampler):
        def wrapped(rng):
            counts[kind] += 1
            return sampler(rng)

        return wrapped

    monkeypatch.setattr(verify, "sample_reduced_state", counting("reduced", verify.sample_reduced_state))
    monkeypatch.setattr(verify, "sample_full_state", counting("full", verify.sample_full_state))
    body = standard_body(2)
    run_all_suites(body, trials=3)
    assert counts == {"reduced": 3, "full": 3}
    for name, kind in (("gauge", "full"), ("reduction", "full"), ("jacobi", "reduced"), ("twisted", "reduced")):
        counts.clear()
        run_suite(name, body, trials=3)
        assert counts == {kind: 3}


def _poisoned_bracket(monkeypatch, state, value):
    """Make the partials of every reduced bracket ``value`` at ``state``."""
    base = verify.reduced_bracket

    def bracket(params, variant="plain"):
        pi = base(params, variant)

        def jet(s):
            p, dp = pi.matrix_and_partials(s)
            hit = np.all(s == state, axis=-1)  # one boolean per state
            return p, np.where(hit[..., None, None, None], value, dp)

        return BivectorPatch(dim=pi.dim, structure=pi.structure, name=pi.name, jet=jet)

    monkeypatch.setattr(verify, "reduced_bracket", bracket)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the Jacobiator
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_residual_at_one_state_fails_its_check(monkeypatch, value):
    """A Jacobiator that is not finite at the 2nd of 5 states fails both the
    Poisson check (le) and the witness (gt) of a rank-0 body."""
    trials, seed = 5, 3
    rng = np.random.default_rng(seed)
    states = [sample_reduced_state(rng) for _ in range(trials)]
    _poisoned_bracket(monkeypatch, states[1], value)
    report = run_suite("jacobi", standard_body(0), trials=trials, seed=seed)
    checks = {c["id"]: c for c in report["checks"]}
    assert set(checks) == {"jacobi-plain", "jacobi-primed-witness"}
    for c in checks.values():
        assert not np.isfinite(c["max_residual"]) and c["passed"] is False
    assert report["passed"] is False
