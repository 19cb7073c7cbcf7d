"""Verification suites: the gauge suite against its per-patch oracle route,
one draw of states and one evaluation per stack of states per run, the
argument checks, and run_suite / run_all_suites agreement."""

import collections
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from chaplygin import (
    SUITE_NAMES,
    BivectorPatch,
    BodyParams,
    DegenerateDenominator,
    FormPatch,
    dynamical_gauge_check,
    full_hamiltonian_field,
    gauge_form_on_M,
    gauge_matrix,
    gauge_transform,
    nh_bracket_full,
    omega_from_K,
    omega_jacobians,
    run_all_suites,
    run_suite,
    sample_full_state,
    sample_reduced_state,
)
from chaplygin import body as body_module
from chaplygin import rolling, verify

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


@pytest.mark.parametrize("inertia", [[1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0])], ids=["list", "ndarray"])
def test_a_body_given_list_or_array_inertia_runs_verify(inertia):
    """The body keeps its inertia as a tuple of floats, so it stays hashable
    and a run, which keys its shared evaluations by the body, reports as for
    the tuple."""
    body = BodyParams(inertia=inertia, mass=1.0, radius=1.0, rank=2)
    assert body.inertia == (1.0, 2.0, 3.0) and body == standard_body(2)
    assert run_all_suites(body, trials=3) == run_all_suites(standard_body(2), trials=3)
    assert run_suite("gauge", body, trials=3) == run_suite("gauge", standard_body(2), trials=3)


def test_states_are_drawn_once_per_run(monkeypatch):
    counts = collections.Counter()

    def counting(kind, sampler):
        def wrapped(rng, n):
            counts[kind] += 1
            counts[kind + " states"] += n
            return sampler(rng, n)

        return wrapped

    monkeypatch.setattr(verify, "sample_reduced_state", counting("reduced", verify.sample_reduced_state))
    monkeypatch.setattr(verify, "sample_full_state", counting("full", verify.sample_full_state))
    body = standard_body(2)
    run_all_suites(body, trials=3)
    assert counts == {"reduced": 1, "reduced states": 3, "full": 1, "full states": 3}
    for name, kind in (("gauge", "full"), ("reduction", "full"), ("jacobi", "reduced"), ("twisted", "reduced")):
        counts.clear()
        run_suite(name, body, trials=3)
        assert counts == {kind: 1, kind + " states": 3}


def _count_column_omega(monkeypatch, body) -> collections.Counter:
    """Count the calls of the body's omega kernel, which runs on numpy columns
    for one state and a stack alike; the field kernels have Omega inline and
    do not call it."""
    kernels, counts = body._kernels, collections.Counter()
    base = kernels.omega

    def counting(gamma, k):
        counts["columns"] += 1
        return base(gamma, k)

    monkeypatch.setattr(kernels, "omega", counting)
    return counts


def test_a_run_evaluates_omega_once_per_stack(monkeypatch):
    """A rank-2 run of 6 trials calls the omega kernel on two stacks of
    states, the reduced and the full states, once each (twisted-closed reads
    the reduced states too; the reduced_vf kernel of the measure suite has
    Omega inline).  Evaluated per suite, each suite would call the kernel
    again, and the reduced bracket would take 4 jets, not one per variant.  A second run on the same body shares nothing with the
    first."""
    body = standard_body(2)
    counts = _count_column_omega(monkeypatch, body)
    v_jet = rolling._v_jet

    def counting_v_jet(params, gamma, K, variant):
        counts[f"jet {variant}"] += 1
        return v_jet(params, gamma, K, variant)

    monkeypatch.setattr(rolling, "_v_jet", counting_v_jet)
    first = run_all_suites(body, trials=6)
    assert set(counts) == {"columns", "jet plain", "jet primed"} and counts["columns"] <= 2
    assert counts["jet plain"] == counts["jet primed"] == 1
    once = counts.copy()
    counts.clear()
    assert run_all_suites(body, trials=6) == first
    assert counts == once


def test_a_run_evaluates_each_full_matrix_and_jacobi_defect_once(rank, monkeypatch):
    """The gauge and reduction suites share one plain and one gauged full
    bracket matrix, and the jacobi and twisted suites one Jacobi defect per
    variant: each computed once per run, and again by the next run."""
    counts = collections.Counter()

    def counting(kind, params, arrays, compute):
        def counted():
            counts[kind] += 1
            return compute()

        return body_module._memoized(kind, params, arrays, counted)

    monkeypatch.setattr(rolling, "_memoized", counting)
    monkeypatch.setattr(verify, "_memoized", counting)
    body = standard_body(rank)
    first = run_all_suites(body, trials=6)
    shared = {("full", "plain"), ("full", "gauged"), ("jacobi", "plain"), ("jacobi", "primed")}
    assert {k: counts[k] for k in shared} == dict.fromkeys(shared, 1)
    once = counts.copy()
    counts.clear()
    assert run_all_suites(body, trials=6) == first and counts == once


@pytest.mark.parametrize(
    "name, value",
    [
        ("variant", "bogus"),
        ("variant", 1),
        ("trials", 2.5),
        ("trials", 0),
        ("trials", True),
        ("trials", "3"),
        ("seed", 1.5),
        ("seed", -1),
        ("seed", None),
        ("tol_scale", "1"),
        ("tol_scale", 0.0),
    ],
)
def test_every_argument_is_checked_before_states_are_drawn(name, value, monkeypatch):
    """Each suite, including those that read no variant, raises a ValueError
    naming the bad argument and its value, and no state is drawn first."""

    def never(rng, n):
        raise AssertionError("states drawn before the arguments were checked")

    monkeypatch.setattr(verify, "sample_reduced_state", never)
    monkeypatch.setattr(verify, "sample_full_state", never)
    body, message = standard_body(2), rf"^{name.replace('_', '-')} must be .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        run_all_suites(body, **{name: value})
    for suite in SUITE_NAMES:
        with pytest.raises(ValueError, match=message):
            run_suite(suite, body, **{name: value})


def test_integer_types_of_numpy_are_accepted_as_trials_and_seed():
    body = standard_body(1)
    assert run_all_suites(body, trials=np.int64(3), seed=np.uint32(7)) == run_all_suites(body, trials=3, seed=7)


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        run_suite("bogus", standard_body(2))


def test_nothing_is_shared_after_a_run_that_raises(monkeypatch):
    """The gauge suite raises on a full state with gamma = 0 after three suites
    have shared evaluations; afterwards nothing is memoized: the same stack
    costs one evaluation per call, and a new run as many as on a fresh body."""
    body, other = standard_body(2), standard_body(2)
    fresh = _count_column_omega(monkeypatch, other)
    run_all_suites(other, trials=6)
    real = verify.sample_full_state

    def degenerate(rng, n):
        states = real(rng, n)
        states[-1, 6:9] = 0.0
        return states

    monkeypatch.setattr(verify, "sample_full_state", degenerate)
    with pytest.raises(DegenerateDenominator, match=r"in row 5"):
        run_all_suites(body, trials=6)
    monkeypatch.setattr(verify, "sample_full_state", real)
    assert body_module._run_memo.get() is None
    counts = _count_column_omega(monkeypatch, body)
    states = sample_reduced_state(np.random.default_rng(0), 6)  # the failed run's reduced states
    for expected in (1, 2):
        omega_from_K(body, states[:, :3], states[:, 3:])
        assert counts == {"columns": expected}
    counts.clear()
    run_all_suites(body, trials=6)
    assert counts == fresh


def test_one_state_and_its_one_row_stack_are_two_entries(monkeypatch):
    """Inside a run, omega_from_K at one state and at the one-row stack of the
    same bytes returns shapes (3,) and (1, 3) with equal values, from two
    entries of the run's store: its key holds each array's shape."""
    body = standard_body(2)
    seen = {}

    def probe(params, states, variant=None):
        gamma, K = states[0, :3], states[0, 3:]
        seen["omega"] = omega_from_K(body, gamma, K), omega_from_K(body, gamma[None], K[None])
        seen["shapes"] = sorted(key[2][0] for key in body_module._run_memo.get() if key[0] == "terms")
        return []

    monkeypatch.setitem(verify._SUITE_FNS, "measure", (probe, "reduced"))
    run_suite("measure", body, trials=6)
    one, row = seen["omega"]
    assert one.shape == (3,) and row.shape == (1, 3) and np.array_equal(one, row[0])
    assert seen["shapes"] == [(1, 3), (3,)]


def test_public_omega_arrays_are_writable_and_unshared(monkeypatch):
    """Inside a run, omega_from_K and omega_jacobians return fresh writable
    arrays with the values of a call outside a run; the shared entries
    are read-only."""
    body = standard_body(2)
    seen = {}

    def probe(params, states, variant=None):
        gamma, K = states[:, :3], states[:, 3:]
        seen["arrays"] = [(omega_from_K(body, gamma, K), *omega_jacobians(body, gamma, K)) for _ in range(2)]
        seen["shared"] = [a for value in body_module._run_memo.get().values() for a in value if isinstance(a, np.ndarray)]
        return []

    monkeypatch.setitem(verify._SUITE_FNS, "measure", (probe, "reduced"))
    run_suite("measure", body, trials=6)
    states = sample_reduced_state(np.random.default_rng(0), 6)
    outside = (omega_from_K(body, states[:, :3], states[:, 3:]), *omega_jacobians(body, states[:, :3], states[:, 3:]))
    assert seen["shared"] and not any(a.flags.writeable for a in seen["shared"])
    for arrays in seen["arrays"]:  # computed, then read from the memo
        for a, expected in zip(arrays, outside):
            assert np.array_equal(a, expected) and a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in seen["shared"])


def test_threads_running_suites_on_one_body_give_the_serial_reports():
    """Each thread's run has its own memo (a context variable): four threads,
    more than the cores, switching every microsecond, report as one run alone."""
    body = standard_body(2)
    serial = run_all_suites(body, trials=6)
    start = threading.Barrier(4)

    def run():
        start.wait(timeout=30)
        return run_all_suites(body, trials=6)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(run) for _ in range(4)]
            reports = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert reports == [serial] * 4


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
