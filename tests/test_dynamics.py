"""Integrators, conservation monitors, measure diagnostics, interpolation."""

import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaplygin

from chaplygin import (
    MONITOR_NAMES,
    BodyParams,
    DegenerateDenominator,
    IntegratorConfig,
    NonFiniteState,
    Trajectory,
    X_nh_full,
    brackets,
    conformal_factor,
    divergence_defect,
    dynamics,
    fd_partials,
    hamiltonian,
    hermite_sample,
    integrate,
    invariant_density,
    invariant_drift,
    lift_reduced_state,
    monitor_series,
    omega_from_K,
    pack_full,
    project_rho,
    reduced_vf,
    reparametrized_integrate,
    rk4_step,
    rolling,
    sample_reduced_state,
    split_full,
)
from chaplygin import body as body_module
from chaplygin import errors

from conftest import asymmetric_body, list_rk4_step, standard_body

CHAPLYGIN_START = np.array([0.0, 0.0, 1.0, 0.3, -0.1, 0.2])


# ------------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, t_final=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=2.0, t_final=1.0)
    with pytest.raises(ValueError, match="t_final"):
        IntegratorConfig(dt=1e-3, t_final=math.inf)
    for dt, t_final in ((math.inf, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="dt"):
            IntegratorConfig(dt=dt, t_final=t_final)


def test_config_step_count():
    assert IntegratorConfig(dt=1e-3, t_final=10.0).n_steps == 10_000
    assert IntegratorConfig(dt=0.25, t_final=1.0).n_steps == 4
    assert IntegratorConfig(dt=1e-3, t_final=0.25).n_steps == 250
    assert IntegratorConfig(dt=0.3, t_final=1.0).n_steps == 4  # three of dt, one of 0.1


def test_config_rejects_a_step_count_that_cannot_be_run(monkeypatch):
    """t_final/dt is inf, or more samples than one numpy array holds: a
    ValueError from the count alone, with no schedule built."""
    monkeypatch.setattr(dynamics, "_schedule", lambda config: pytest.fail("a schedule was built"))
    with pytest.raises(ValueError, match="t_final/dt = inf steps"):
        IntegratorConfig(dt=5e-324, t_final=1e-3)
    with pytest.raises(ValueError, match="more samples than numpy can allocate"):
        IntegratorConfig(dt=1e-300, t_final=1.0)
    assert IntegratorConfig(dt=1e-300, t_final=1e-290).n_steps == 10**10


@pytest.mark.parametrize("kind", ["reduced", "reparametrized", "full"])
@pytest.mark.parametrize("call", ["np.arange", "np.fromiter"])
def test_a_run_whose_samples_cannot_be_allocated_raises_allocation_failed(monkeypatch, kind, call):
    """The schedule's times (np.arange) and the states (np.fromiter) raised a
    bare MemoryError; the patched call refuses, so nothing large is allocated."""

    def refusing(*args, **kwargs):
        raise MemoryError("refused")

    monkeypatch.setattr(np, call.split(".")[1], refusing)
    start = sample_reduced_state(seed=5)
    config = IntegratorConfig(dt=1e-2, t_final=0.5)
    dim = {"reduced": 6, "reparametrized": 7, "full": 15}[kind]
    with pytest.raises(errors.AllocationFailed, match=re.escape(f"shape (51, {dim})")):
        if kind == "reparametrized":
            reparametrized_integrate(standard_body(2), start, config)
        else:
            integrate(standard_body(2), start if kind == "reduced" else lift_reduced_state(start), config)


@pytest.mark.parametrize("shape", [(0,), (2, 2), ()])
def test_series_drift_rejects_a_series_that_is_not_one_nonempty_row(shape):
    """series_drift({"H": np.zeros(0)}) raised a bare IndexError; a 2-d series gave a number."""
    with pytest.raises(ValueError, match=re.escape(f"series 'H' must be 1-d with at least one value, got shape {shape}")):
        dynamics.series_drift({"C1": np.zeros(3), "H": np.zeros(shape)})


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 6)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0, 2.0]), states=np.zeros((2, 6)))
    with pytest.raises(ValueError):
        Trajectory(times=np.zeros(0), states=np.zeros((0, 6)))


def test_trajectory_rejects_1d_states_and_a_t_recovered_of_another_length():
    with pytest.raises(ValueError, match="states 2-d"):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros(2))
    with pytest.raises(ValueError, match="t_recovered"):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 6)), t_recovered=np.zeros(3))


# ------------------------------------------------------------------ RK4 core


def test_rk4_step_is_truncated_exponential():
    lam = -0.7
    dt = 0.1
    stepped = rk4_step(lambda s: [lam * v for v in s], [2.0], dt)
    z = lam * dt
    expected = 2.0 * (1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    assert stepped[0] == pytest.approx(expected, rel=1e-15)


# ----------------------------------------------------------------- integrate


def test_integrate_rejects_bad_shapes():
    body = standard_body(2)
    with pytest.raises(ValueError):
        integrate(body, np.zeros(5), IntegratorConfig(dt=0.1, t_final=1.0))


def test_integrate_rejects_nonfinite_initial():
    body = standard_body(2)
    bad = CHAPLYGIN_START.copy()
    bad[4] = np.nan
    with pytest.raises(NonFiniteState):
        integrate(body, bad, IntegratorConfig(dt=0.1, t_final=1.0))


def test_integrate_raises_on_blow_up():
    body = standard_body(0)
    config = IntegratorConfig(dt=1e6, t_final=2e6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState):
            integrate(body, CHAPLYGIN_START, config)


def test_equilibrium_is_fixed(rank):
    body = standard_body(rank)
    state = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.7])
    traj = integrate(body, state, IntegratorConfig(dt=1e-2, t_final=10.0))
    assert np.max(np.abs(traj.states - state)) <= 1e-12


def test_short_run_conserves_monitors(rank):
    body = asymmetric_body(rank)
    traj = integrate(body, sample_reduced_state(seed=rank), IntegratorConfig(dt=1e-3, t_final=2.0))
    drifts = invariant_drift(body, traj)
    assert max(drifts.values()) <= 1e-10


def test_full_run_projects_onto_reduced_run():
    body = standard_body(2)
    config = IntegratorConfig(dt=1e-3, t_final=2.0)
    reduced = integrate(body, CHAPLYGIN_START, config)
    full = integrate(body, lift_reduced_state(CHAPLYGIN_START), config)
    worst = np.max(np.abs(np.array([project_rho(s) for s in full.states]) - reduced.states))
    assert worst <= 1e-8


def test_full_integrate_runs_without_the_bracket(monkeypatch):
    # the full-space field is closed form; the bracket flow is only its test oracle
    def forbidden(*args, **kwargs):
        raise RuntimeError("bracket flow evaluated during integration")

    monkeypatch.setattr(rolling, "nh_bracket_full", forbidden)
    monkeypatch.setattr(brackets, "ham_vf", forbidden)
    body = asymmetric_body(2)
    traj = integrate(body, lift_reduced_state(CHAPLYGIN_START), IntegratorConfig(dt=1e-2, t_final=0.1))
    assert traj.states.shape == (11, 15) and np.all(np.isfinite(traj.states))


def test_full_run_keeps_attitude_orthonormal():
    body = asymmetric_body(3)
    full = integrate(
        body,
        lift_reduced_state(sample_reduced_state(seed=9)),
        IntegratorConfig(dt=1e-3, t_final=2.0),
    )
    worst = 0.0
    for s in full.states:
        g = split_full(s)[0]
        worst = max(worst, np.max(np.abs(g.T @ g - np.eye(3))))
    assert worst <= 1e-8


def test_gamma_renormalization_flag():
    body = standard_body(2)
    start = sample_reduced_state(seed=12)
    traj = integrate(
        body, start, IntegratorConfig(dt=1e-2, t_final=1.0, renormalize_gamma=True)
    )
    norms = np.linalg.norm(traj.states[:, :3], axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-14


def test_gamma_renormalization_from_gamma_zero_raises():
    """At rank 0 gamma = 0 stays 0 and has no direction to renormalize to."""
    config = IntegratorConfig(dt=1e-2, t_final=0.1, renormalize_gamma=True)
    with pytest.raises(NonFiniteState, match="gamma collapsed"):
        integrate(standard_body(0), [0.0, 0.0, 0.0, 0.3, -0.1, 0.2], config)


def test_rk4_order_via_step_halving():
    body = standard_body(0)
    start = sample_reduced_state(seed=2)
    t_final = 1.0

    def end_state(dt):
        return integrate(body, start, IntegratorConfig(dt=dt, t_final=t_final)).states[-1]

    ref = end_state(1e-2 / 16.0)
    err_coarse = np.max(np.abs(end_state(1e-2) - ref))
    err_fine = np.max(np.abs(end_state(0.5e-2) - ref))
    assert 12.0 <= err_coarse / err_fine <= 20.0


@pytest.mark.parametrize("integrator", [integrate, reparametrized_integrate])
def test_non_dividing_step_ends_at_horizon(integrator):
    body = standard_body(2)
    traj = integrator(body, CHAPLYGIN_START, IntegratorConfig(dt=0.3, t_final=1.0))
    assert traj.times[-1] == 1.0
    assert np.max(np.abs(traj.times - [0.0, 0.3, 0.6, 0.9, 1.0])) <= 1e-15
    fine = integrator(body, CHAPLYGIN_START, IntegratorConfig(dt=1e-3, t_final=1.0))
    assert np.max(np.abs(traj.states[-1] - fine.states[-1])) <= 1e-6


# ------------------------------------------------- numpy stepper as the oracle


def _oracle_rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _oracle_mgs_rows(g):
    out = g.copy()
    for i in range(3):
        for j in range(i):
            out[i] -= (out[i] @ out[j]) * out[j]
        out[i] /= np.linalg.norm(out[i])
    return out


def _oracle_run(body, initial, config, kind):
    """The numpy stepper that the float stepper replaced: RK4 on arrays with
    the ndarray fields, Gram-Schmidt with np.linalg.norm; returns the states."""
    phi = conformal_factor(body) if kind == "reparametrized" else None
    vf = X_nh_full if kind == "full" else reduced_vf

    def field(z):
        if phi is None:
            return vf(body, z)
        p = phi(z[:6])
        return np.append(p * vf(body, z[:6]), p)

    y = np.asarray(initial if phi is None else np.append(initial, 0.0), dtype=float)
    rows = [y]
    for _ in range(config.n_steps):
        y = _oracle_rk4_step(field, y, config.dt)
        if kind == "full":
            y = np.concatenate([_oracle_mgs_rows(y[:9].reshape(3, 3)).reshape(9), y[9:]])
        rows.append(y)
    return np.array(rows)


def _stepper_cases():
    for factory in (standard_body, asymmetric_body):
        yield from ((factory, r, "reduced") for r in range(4))
        yield from ((factory, r, "reparametrized") for r in (1, 2))
        yield from ((factory, r, "full") for r in (1, 2, 3))


@pytest.mark.parametrize(
    "factory, rank_s, kind",
    list(_stepper_cases()),
    ids=[f"{f.__name__}-rank{r}-{k}" for f, r, k in _stepper_cases()],
)
def test_float_stepper_matches_numpy_oracle(factory, rank_s, kind):
    body = factory(rank_s)
    config = IntegratorConfig(dt=1e-3, t_final=0.25)
    start = sample_reduced_state(seed=40 + rank_s)
    if kind == "full":
        # g off SO(3), so that the first Gram-Schmidt pass scales and projects rows
        start = lift_reduced_state(start)
        start[:9] *= 1.1
        start[3:6] += 0.05 * start[0:3]
        start[9:12] = [0.4, -0.2, 0.1]
    expected = _oracle_run(body, start, config, kind)
    if kind == "reparametrized":
        traj = reparametrized_integrate(body, start, config)
        got = np.column_stack([traj.states, traj.t_recovered])
    else:
        got = integrate(body, start, config).states
    assert got.shape == expected.shape == (251, start.size + (kind == "reparametrized"))
    assert np.max(np.abs(got - expected)) <= 1e-13


# ------------------------------------------- the per-step loop as the march's oracle


def _loop_orthonormal_rows(y):
    """The looped, slicing Gram-Schmidt that the straight-line one replaced."""
    rows = []
    for i in (0, 3, 6):
        r1, r2, r3 = y[i : i + 3]
        before = r1 * r1 + r2 * r2 + r3 * r3
        for q1, q2, q3 in rows:
            d = r1 * q1 + r2 * q2 + r3 * q3
            r1, r2, r3 = r1 - d * q1, r2 - d * q2, r3 - d * q3
        after = r1 * r1 + r2 * r2 + r3 * r3
        if after <= 1e-24 * before:
            raise NonFiniteState("degenerate attitude matrix during renormalization")
        norm = math.sqrt(after)
        rows.append((r1 / norm, r2 / norm, r3 / norm))
    return [*rows[0], *rows[1], *rows[2], *y[9:]]


def _loop_march(f, y, config, renormalize):
    """The per-step loop that the generated march replaced: one list RK4 step
    at a time, each checked with math.isfinite entry by entry."""
    if not all(map(math.isfinite, y)):
        raise NonFiniteState("initial state has non-finite entries")
    times, steps = dynamics._schedule(config)
    rows = [y]
    for k, dt in enumerate(steps):
        y = list_rk4_step(f, y, dt)
        if not all(map(math.isfinite, y)):
            raise NonFiniteState(f"non-finite state after step {k + 1} (at {times[k + 1]:g})")
        if renormalize is not None:
            y = renormalize(y)
        rows.append(y)
    return times, np.array(rows)


def _loop_phi(body):
    """The conformal factor on Python floats: the square root of the frozen
    omega kernel's denominator; 1.0 for ranks 0 and 3."""
    sign = body._rank_terms[0]
    omega = _frozen_kernels(body)[0]

    def phi(s):
        return math.sqrt(omega(s[:3], s[3:6])[2]) if sign else 1.0

    return phi


def _frozen_kernels(body):
    """The hand-written float kernels that the chart texts replaced, frozen as
    oracles: (omega, reduced, full) on Python floats or numpy columns."""
    sign, (n1, n2, n3) = body._rank_terms
    smr2 = sign * body.mr2
    rank, inf = body.rank, math.inf
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = (body.radius * body_module.matrix_A(body)).tolist()

    def omega(gamma, k):
        k1, k2, k3 = k
        if not sign:
            return (k1 / n1, k2 / n2, k3 / n3), None, None, None
        g1, g2, g3 = gamma
        u1, u2, u3 = g1 / n1, g2 / n2, g3 / n3
        gg = g1 * g1 + g2 * g2 + g3 * g3
        den = gg + smr2 * (g1 * u1 + g2 * u2 + g3 * u3)
        if not (isinstance(den, float) and 1e-300 <= gg < inf and 1e-12 * gg < den < inf):
            body_module._check_denominator(rank, den, gg)
        c = (k1 * u1 + k2 * u2 + k3 * u3) / den
        s = smr2 * c
        return (k1 / n1 - s * u1, k2 / n2 - s * u2, k3 / n3 - s * u3), (u1, u2, u3), den, c

    def reduced(y):
        g1, g2, g3, k1, k2, k3 = y
        w1, w2, w3 = omega((g1, g2, g3), (k1, k2, k3))[0]
        return (
            g2 * w3 - g3 * w2, g3 * w1 - g1 * w3, g1 * w2 - g2 * w1,
            k2 * w3 - k3 * w2, k3 * w1 - k1 * w3, k1 * w2 - k2 * w1,
        )

    def full(y):
        a1, a2, a3, b1, b2, b3, g1, g2, g3, _, _, _, k1, k2, k3 = y
        w1, w2, w3 = omega((g1, g2, g3), (k1, k2, k3))[0]
        v1 = a1 * w1 + a2 * w2 + a3 * w3
        v2 = b1 * w1 + b2 * w2 + b3 * w3
        v3 = g1 * w1 + g2 * w2 + g3 * w3
        return (
            a2 * w3 - a3 * w2, a3 * w1 - a1 * w3, a1 * w2 - a2 * w1,
            b2 * w3 - b3 * w2, b3 * w1 - b1 * w3, b1 * w2 - b2 * w1,
            g2 * w3 - g3 * w2, g3 * w1 - g1 * w3, g1 * w2 - g2 * w1,
            r11 * v1 + r12 * v2 + r13 * v3, r21 * v1 + r22 * v2 + r23 * v3, r31 * v1 + r32 * v2 + r33 * v3,
            k2 * w3 - k3 * w2, k3 * w1 - k1 * w3, k1 * w2 - k2 * w1,
        )

    return omega, reduced, full


def _package_run(body, start, config, kind):
    """(times, states) of integrate, or of reparametrized_integrate with
    physical time as the last column."""
    if kind != "reparametrized":
        traj = integrate(body, start, config)
        return traj.times, traj.states
    traj = reparametrized_integrate(body, start, config)
    return traj.times, np.column_stack([traj.states, traj.t_recovered])


def _loop_run(body, start, config, kind):
    """(times, states) of the same run through the per-step loop and the frozen kernels."""
    y = np.asarray(start, dtype=float).tolist()
    renormalize = dynamics._unit_gamma if config.renormalize_gamma else None
    _, reduced, full = _frozen_kernels(body)
    if kind == "full":
        return _loop_march(full, y, config, _loop_orthonormal_rows)
    if kind == "reduced":
        return _loop_march(reduced, y, config, renormalize)
    phi, field = _loop_phi(body), reduced

    def f_aug(z):
        s = z[:6]
        p = phi(s)
        return [p * v for v in field(s)] + [p]

    return _loop_march(f_aug, y + [0.0], config, renormalize)


@pytest.mark.parametrize(
    "kind, renormalize",
    [("reduced", False), ("reduced", True), ("reparametrized", False), ("reparametrized", True), ("full", False)],
    ids=["reduced", "reduced-unit-gamma", "reparametrized", "reparametrized-unit-gamma", "full"],
)
@pytest.mark.parametrize("dt", [1e-3, 0.03], ids=["dividing", "non-dividing"])
def test_march_equals_the_step_loop(rank, kind, renormalize, dt):
    config = IntegratorConfig(dt=dt, t_final=0.25 if dt == 1e-3 else 1.0, renormalize_gamma=renormalize)
    for factory in (standard_body, asymmetric_body):
        start = sample_reduced_state(seed=60 + rank)
        if kind == "full":
            start = lift_reduced_state(start)
            start[:9] *= 1.1  # off SO(3), so that the first pass scales and projects rows
            start[3:6] += 0.05 * start[0:3]
            start[9:12] = [0.4, -0.2, 0.1]
        times, got = _package_run(factory(rank), start, config, kind)
        times_loop, expected = _loop_run(factory(rank), start, config, kind)
        assert times.tobytes() == times_loop.tobytes()
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["reduced", "reparametrized", "full"])
def test_blow_up_message_equals_the_step_loop(rank, kind):
    body = standard_body(rank)
    huge = np.concatenate([CHAPLYGIN_START[:3], 1e200 * CHAPLYGIN_START[3:]])
    runs = [
        (CHAPLYGIN_START, IntegratorConfig(dt=1e6, t_final=2e6)),
        (huge, IntegratorConfig(dt=1e-3, t_final=0.01)),
        (CHAPLYGIN_START, IntegratorConfig(dt=7e5, t_final=2e6)),  # a short last step
    ]
    for start, config in runs:
        start = lift_reduced_state(start) if kind == "full" else start
        messages = []
        for run in (_package_run, _loop_run):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState) as info:
                run(body, start, config, kind)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


@functools.cache
def _march_of_dim(dim: int):
    """bind(f) -> the package's march template with each stage a call of f."""
    names = tuple(f"x{i}" for i in range(dim))
    call = f"[{''.join(f'd{i}, ' for i in range(dim))}] = f([{', '.join(names)}])\n"
    source = dynamics._march_source((names, call, tuple(f"d{i}" for i in range(dim))))
    namespace = dict(dynamics._MARCH_GLOBALS)
    bind = body_module._function("def bind(f):", source, "return march")
    exec(compile(bind, f"<march dim={dim}>", "exec"), namespace)
    return namespace["bind"]


def _field_march(f, y, config, renormalize):
    """The package's march of y' = f(y), compiled for any field of len(y) floats."""
    return dynamics._march(_march_of_dim(len(y))(f), y, config, renormalize)


@pytest.mark.parametrize("dim", [1, 6, 7, 15])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_march_stops_at_a_non_finite_entry_anywhere(dim, bad):
    config = IntegratorConfig(dt=0.5, t_final=2.0)
    for i in range(dim):
        def field(y):
            return [bad if j == i and y[0] >= 1.4 else 0.25 for j in range(dim)]

        messages = []
        for march in (_field_march, _loop_march):
            with pytest.raises(NonFiniteState) as info:
                march(field, [1.0] * dim, config, None)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "non-finite state after step 4 (at 2)"


def test_straight_line_gram_schmidt_equals_the_loop():
    rng = np.random.default_rng(77)
    cases = [rng.normal(size=15) for _ in range(300)]
    e = np.eye(3)
    for g in ([e[0], e[0], e[2]], [0 * e[0], e[1], e[2]], [e[0], e[1], e[0] + 1e-13 * e[2]], [e[0], e[1], 1e-20 * e[1]],
              [1e200 * e[0], e[1], e[2]], [1e-160 * e[0], e[1], e[2]], [e[0], e[0] + 1e-11 * e[1], e[2]]):
        cases.append(np.concatenate([np.ravel(g), rng.normal(size=6)]))
    for y in cases:
        outcomes = []
        for gram_schmidt in (dynamics._orthonormal_rows, _loop_orthonormal_rows):
            try:
                outcomes.append(np.array(gram_schmidt(y.tolist())).tobytes())
            except NonFiniteState as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# ------------------------------------------------- Python-float edge behaviour


@pytest.mark.parametrize("kind", ["reduced", "reparametrized", "full"])
def test_blow_up_raises_non_finite_state(rank, kind):
    # Python floats raise where numpy warns: no ZeroDivisionError, OverflowError or warning escapes
    body = standard_body(rank)
    huge = np.concatenate([CHAPLYGIN_START[:3], 1e200 * CHAPLYGIN_START[3:]])
    runs = [
        (CHAPLYGIN_START, IntegratorConfig(dt=1e6, t_final=2e6)),
        (huge, IntegratorConfig(dt=1e-3, t_final=0.01)),
    ]
    for start, config in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState):
                if kind == "reparametrized":
                    reparametrized_integrate(body, start, config)
                else:
                    integrate(body, lift_reduced_state(start) if kind == "full" else start, config)


@pytest.mark.parametrize("integrator", [integrate, reparametrized_integrate])
@pytest.mark.parametrize("rank_d", [1, 2])
def test_zero_gamma_raises_degenerate_denominator(integrator, rank_d):
    zero = np.array([0.0, 0.0, 0.0, 0.3, -0.1, 0.2])
    with pytest.raises(DegenerateDenominator):
        integrator(standard_body(rank_d), zero, IntegratorConfig(dt=1e-2, t_final=0.1))


@pytest.mark.parametrize("kind", ["reparametrized", "full"])
def test_nonfinite_initial_state_raises(kind):
    body = standard_body(2)
    config = IntegratorConfig(dt=0.1, t_final=1.0)
    if kind == "full":
        bad = lift_reduced_state(CHAPLYGIN_START)
        bad[10] = np.nan
        with pytest.raises(NonFiniteState):
            integrate(body, bad, config)
    else:
        bad = CHAPLYGIN_START.copy()
        bad[0] = np.inf
        with pytest.raises(NonFiniteState):
            reparametrized_integrate(body, bad, config)


@pytest.mark.parametrize("rank_f", [1, 2, 3])
@pytest.mark.parametrize(
    "g",
    [[[0, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 1, 0], [0, 0, 1]]],
    ids=["zero-row", "equal-rows"],
)
def test_rank_deficient_attitude_raises(rank_f, g):
    state = pack_full(np.array(g, dtype=float), np.zeros(3), CHAPLYGIN_START[3:])
    with pytest.raises(NonFiniteState, match="degenerate attitude"):
        integrate(standard_body(rank_f), state, IntegratorConfig(dt=1e-2, t_final=0.1))


# ------------------------------------------------------------ invariant drift


def _run(body, kind):
    start = sample_reduced_state(seed=30)
    config = IntegratorConfig(dt=1e-2, t_final=0.5)
    if kind == "full":
        return integrate(body, lift_reduced_state(start), config)
    if kind == "reparametrized":
        return reparametrized_integrate(body, start, config)
    return integrate(body, start, config)


@pytest.mark.parametrize("kind", ["reduced", "reparametrized", "full"])
def test_monitor_series_equals_per_state_values(rank, kind):
    body = asymmetric_body(rank)
    traj = _run(body, kind)
    rows = [project_rho(s) if traj.dim == 15 else s for s in traj.states]
    expected = {
        "H": [hamiltonian(body, r) for r in rows],
        "C1": [float(r[3:] @ r[:3]) for r in rows],
        "C2": [float(r[:3] @ r[:3]) for r in rows],
        "F": [float(r[3:] @ r[3:]) for r in rows],
    }
    series = monitor_series(body, traj)
    assert tuple(series) == MONITOR_NAMES
    for name in MONITOR_NAMES:
        assert np.array_equal(series[name], expected[name])
        assert series[name].flags.writeable


@pytest.mark.parametrize("kind", ["reduced", "full"])
def test_monitor_series_solves_omega_once(monkeypatch, kind):
    body = standard_body(2)
    traj = _run(body, kind)
    calls = []
    solve = body_module.omega_from_K

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(body_module, "omega_from_K", counting)
    monitor_series(body, traj)
    assert len(calls) == 1


def test_monitor_series_rejects_other_dimensions():
    traj = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 7)))
    with pytest.raises(ValueError):
        monitor_series(standard_body(2), traj)


def test_monitor_series_names_a_monitor_that_overflows_on_finite_states():
    """K = 1.5e154 is finite, but |K|^2 and H = K . Omega / 2 overflow: the
    series held inf, with numpy overflow warnings."""
    states = np.zeros((3, 6))
    states[:, 0] = 1.0
    states[2, 3] = 1.5e154
    traj = Trajectory(times=np.array([0.0, 1.0, 2.0]), states=states)
    with pytest.raises(NonFiniteState, match=re.escape("monitor H is not finite at sample 2")):
        monitor_series(BodyParams(inertia=(1.0, 1.0, 1.0), mass=1.0, radius=1.0, rank=0), traj)


def test_invariant_drift_detects_tampering():
    body = standard_body(2)
    traj = integrate(body, CHAPLYGIN_START, IntegratorConfig(dt=1e-2, t_final=1.0))
    clean = invariant_drift(body, traj)
    assert max(clean.values()) <= 1e-10
    corrupted_states = traj.states.copy()
    corrupted_states[50:, 3:] *= 2.0  # scale K mid-stream
    corrupted = Trajectory(times=traj.times, states=corrupted_states)
    drifts = invariant_drift(body, corrupted)
    assert drifts["F"] > 1e-3
    assert drifts["H"] > 1e-3
    assert drifts["C2"] <= 1e-10  # gamma untouched


# ------------------------------------------------------- time reparametrization


def test_reparametrization_trivial_without_conformal_factor():
    body = standard_body(0)
    start = sample_reduced_state(seed=3)
    config = IntegratorConfig(dt=1e-3, t_final=1.0)
    plain = integrate(body, start, config)
    scaled = reparametrized_integrate(body, start, config)
    assert np.max(np.abs(plain.states - scaled.states)) <= 1e-12
    assert np.max(np.abs(scaled.t_recovered - scaled.times)) <= 1e-12


@pytest.mark.parametrize("rank_r", [1, 2])
def test_reparametrized_run_recovers_physical_time(rank_r):
    body = standard_body(rank_r)
    start = sample_reduced_state(seed=4)
    config = IntegratorConfig(dt=1e-3, t_final=1.0)
    scaled = reparametrized_integrate(body, start, config)
    assert scaled.t_recovered[0] == 0.0
    assert np.all(np.diff(scaled.t_recovered) > 0.0)
    direct = integrate(body, start, IntegratorConfig(dt=1e-3, t_final=float(scaled.t_recovered[-1])))
    worst = 0.0
    for idx in range(0, len(scaled.times), 50):
        t_phys = float(scaled.t_recovered[idx])
        if t_phys > direct.times[-1]:
            break
        worst = max(worst, np.max(np.abs(hermite_sample(body, direct, t_phys) - scaled.states[idx])))
    assert worst <= 1e-10


def test_reparametrized_integrate_needs_reduced_state():
    body = standard_body(2)
    with pytest.raises(ValueError):
        reparametrized_integrate(
            body, lift_reduced_state(CHAPLYGIN_START), IntegratorConfig(dt=1e-2, t_final=1.0)
        )


# ----------------------------------------------------------- measure diagnostics


def test_divergence_defect_with_preserved_density(rank):
    body = asymmetric_body(rank)
    worst = 0.0
    for seed in range(10):
        worst = max(worst, divergence_defect(body, sample_reduced_state(seed=500 + seed)))
    assert worst <= 1e-8


@pytest.mark.parametrize("rank_c", [1, 2])
def test_divergence_defect_flags_wrong_density(rank_c):
    body = standard_body(rank_c)
    worst = 0.0
    for seed in range(10):
        worst = max(
            worst, divergence_defect(body, sample_reduced_state(seed=510 + seed), density="uniform")
        )
    assert worst > 1e-3


def test_uniform_density_is_preserved_without_conformal_factor():
    for rank in (0, 3):
        body = standard_body(rank)
        for seed in range(5):
            s = sample_reduced_state(seed=520 + seed)
            assert divergence_defect(body, s, density="uniform") <= 1e-8


def _fd_divergence(params, state, density):
    """|div(mu X)| as the trace of central differences of mu X: the oracle
    of the closed-form divergence_defect."""
    mu = invariant_density(params) if density == "invariant" else None

    def flux(s):
        x = reduced_vf(params, s)
        return x if mu is None else mu(s) * x

    return abs(float(np.trace(fd_partials(flux, state))))


@pytest.mark.parametrize("factory", [standard_body, asymmetric_body])
def test_divergence_defect_matches_fd_oracle(rank, factory):
    body = factory(rank)
    off_sphere = np.array([1.3, 1.3, 1.3, 2.0, 2.0, 2.0])
    for seed in range(10):
        s = sample_reduced_state(seed=530 + seed)
        for state in (s, off_sphere * s):
            for density in ("invariant", "uniform"):
                closed = divergence_defect(body, state, density=density)
                assert abs(closed - _fd_divergence(body, state, density)) <= 1e-9


def test_divergence_defect_argument_validation():
    body = standard_body(2)
    with pytest.raises(ValueError, match=r"^expected a 6-dim reduced state, got shape \(15,\)$"):
        divergence_defect(body, np.zeros(15))
    with pytest.raises(ValueError):
        divergence_defect(body, sample_reduced_state(seed=0), density="bogus")


# ---------------------------------------------------------------- interpolation


def test_hermite_sample_exact_at_nodes():
    body = standard_body(2)
    traj = integrate(body, CHAPLYGIN_START, IntegratorConfig(dt=1e-2, t_final=0.5))
    for idx in (0, 7, len(traj.times) - 1):
        t = float(traj.times[idx])
        assert np.max(np.abs(hermite_sample(body, traj, t) - traj.states[idx])) <= 1e-14


def test_hermite_sample_midpoint_accuracy():
    body = standard_body(2)
    coarse = integrate(body, CHAPLYGIN_START, IntegratorConfig(dt=1e-2, t_final=0.5))
    fine = integrate(body, CHAPLYGIN_START, IntegratorConfig(dt=1e-3, t_final=0.5))
    t = 0.205
    idx = int(round(t / 1e-3))
    assert np.max(np.abs(hermite_sample(body, coarse, t) - fine.states[idx])) <= 1e-8


@pytest.mark.parametrize("rank_r", [1, 2])
def test_hermite_sample_on_reparametrized_run(rank_r):
    # the time axis is tau, so the endpoint slopes are those of phi * X
    body = standard_body(rank_r)
    start = sample_reduced_state(seed=4)
    coarse = reparametrized_integrate(body, start, IntegratorConfig(dt=0.05, t_final=1.0))
    fine = reparametrized_integrate(body, start, IntegratorConfig(dt=1e-3, t_final=1.0))
    worst = 0.0
    for k in range(20):
        mid = hermite_sample(body, coarse, 0.05 * k + 0.025)
        worst = max(worst, np.max(np.abs(mid - fine.states[50 * k + 25])))
    assert worst <= 1e-6


def test_hermite_sample_rejects_out_of_range():
    body = standard_body(2)
    traj = integrate(body, CHAPLYGIN_START, IntegratorConfig(dt=1e-2, t_final=0.5))
    one_sample = Trajectory(times=traj.times[:1], states=traj.states[:1])
    for trajectory, t in ((traj, 0.6), (one_sample, 0.0)):
        with pytest.raises(ValueError):
            hermite_sample(body, trajectory, t)


# ------------------------------------- compiled chart texts against frozen kernels


def _bits(value):
    """A value's type names and bytes, recursing into tuples."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if value is None:
        return None
    return type(value).__name__, np.asarray(value, dtype=float).tobytes()


def _outcome(fn, *args):
    """The bits of fn(*args), or the type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return _bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _warning_free_outcome(fn, *args):
    """The bytes of fn(*args) as a float array, or the type and message of
    what it raises; a warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.asarray(fn(*args), dtype=float).tobytes()
        except (ArithmeticError, ValueError) as exc:
            return type(exc).__name__, str(exc)


_coords = st.floats(-1.0, 1.0, allow_nan=False).map(float)
_scales = st.sampled_from([0.0, 1e-160, 1e-6, 1.0, 1e3, 1e160, 1e200])
# gamma scaled into the degenerate, overflowing and ordinary ranges of the denominator test
_gammas = st.tuples(st.tuples(_coords, _coords, _coords), _scales).map(lambda p: [p[1] * v for v in p[0]])
_kernel_rows = st.tuples(_gammas, st.lists(_coords, min_size=12, max_size=12)).map(lambda p: p[0] + p[1])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    inertia=st.tuples(*[st.floats(0.1, 10.0)] * 3),
    mass=st.floats(0.1, 10.0),
    radius=st.floats(0.1, 2.0),
    rank=st.integers(0, 3),
    rows=st.lists(_kernel_rows, min_size=1, max_size=5),
)
# a rank-2 denominator of 1e-13 |gamma|^2 along a tiny moment, just below the 1e-12 bound
@example(inertia=(1e-13, 1.0, 2.0), mass=1.0, radius=1.0, rank=2, rows=[[1.0, 0.0, 0.0] + [0.5] * 12])
# K x Omega overflows to inf and nan in both rows of a stack, as at each row alone
@example(inertia=(1.0, 2.0, 3.0), mass=1.0, radius=1.0, rank=2,
         rows=[[0.6, 0.0, 0.8, 1e200, -1e200, 3e300] + [0.5] * 9, [0.0, 0.6, 0.8, 1e200, -1e200, 3e300] + [0.5] * 9])
def test_compiled_kernels_equal_the_frozen_ones(inertia, mass, radius, rank, rows):
    """omega, reduced and full compiled from the chart texts equal the frozen
    hand-written kernels bit for bit, in type, or in the error they raise, on
    Python floats (one state) and on numpy columns (a stack).  So do the
    public entry points at each row, with no warning: omega_from_K,
    reduced_vf, X_nh_full and, where sign != 0, conformal_factor, the square
    root of the frozen denominator; where no row raises, a stack equals its
    rows, with no warning either."""
    body = BodyParams(inertia=inertia, mass=mass, radius=radius, rank=rank)
    kernels, frozen = body._kernels, _frozen_kernels(body)
    # a row: gamma (3), K (3) and the first rows of g and x (9) of a full state
    full_rows = [r[6:12] + r[:3] + r[12:15] + r[3:6] for r in rows]
    states, full_states = np.array(rows)[:, :6], np.array(full_rows)
    public = [
        (lambda s: omega_from_K(body, s[..., :3], s[..., 3:]), states, lambda r: frozen[0](r[:3], r[3:6])[0], rows),
        (lambda s: reduced_vf(body, s), states, lambda r: frozen[1](r[:6]), rows),
        (lambda s: X_nh_full(body, s), full_states, frozen[2], full_rows),
    ]
    if body._rank_terms[0]:
        public.append((conformal_factor(body), states, lambda r: math.sqrt(frozen[0](r[:3], r[3:6])[2]), rows))
    for call, stack, oracle, float_rows in public:
        outcomes = [_warning_free_outcome(call, s) for s in stack]
        assert outcomes == [_warning_free_outcome(oracle, r) for r in float_rows]
        if all(isinstance(o, bytes) for o in outcomes):
            assert _warning_free_outcome(call, stack) == b"".join(outcomes)
    for row, full_row in zip(rows, full_rows):
        for got, expected, args in (
            (kernels.omega, frozen[0], (row[:3], row[3:6])),
            (kernels.reduced, frozen[1], (row[:6],)),
            (kernels.full, frozen[2], (full_row,)),
        ):
            assert _outcome(got, *args) == _outcome(expected, *args)
    columns = np.array(rows).T
    full_columns = list(np.array(full_rows).T)
    for got, expected, args in (
        (kernels.omega, frozen[0], (columns[:3], columns[3:6])),
        (kernels.reduced, frozen[1], (list(columns[:6]),)),
        (kernels.full, frozen[2], (full_columns,)),
    ):
        assert _outcome(got, *args) == _outcome(expected, *args)


# ------------------------------------------------- compiled once per process


def test_import_and_load_compile_nothing(tmp_path):
    """Compiling is lazy: importing the package and loading a scenario build
    no march and no kernel, and a simulate run then compiles its chart's
    march and the omega of its monitors, nothing else."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"inertia": [1.0, 2.0, 3.0], "mass": 1.0, "radius": 1.0, "rank": 2,
                                "initial": {"gamma": [0.0, 0.0, 1.0], "K": [0.3, -0.1, 0.2]},
                                "integrator": {"dt": 1e-3, "T": 0.01}}))
    code = ("import sys, chaplygin\n"
            "from chaplygin import body, cli, dynamics\n"
            "caches = (dynamics._chart_march, body._kernel_factory)\n"
            "chaplygin.load_scenario(sys.argv[1])\n"
            "print([f.cache_info().currsize for f in caches])\n"
            "assert cli.main(['simulate', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print([f.cache_info().currsize for f in caches])\n"
            "dynamics._chart_march('reduced', False), body._kernel_factory('omega', False)\n"
            "print([f.cache_info().misses for f in caches])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(chaplygin.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    printed = [line for line in done.stdout.splitlines() if line.startswith("[")]
    assert printed == ["[0, 0]", "[1, 1]", "[1, 1]"]


def test_bodies_share_one_compiled_march_per_chart_and_zero_sign(monkeypatch):
    """One compiled text per (chart, sign == 0): ranks 1 and 2 (sign != 0)
    share one, ranks 0 and 3 (sign = 0) the other, whatever the inertia."""
    compiled = []
    fresh = functools.cache(dynamics._chart_march.__wrapped__)
    monkeypatch.setattr(dynamics, "_chart_march", fresh)
    config = IntegratorConfig(dt=1e-2, t_final=0.05)
    for ranks, kind in (((1, 2), "reduced"), ((0, 3), "reduced"), ((1, 2), "reparam"), ((1, 2), "full")):
        for rank_s in ranks:
            for factory in (standard_body, asymmetric_body):
                body, start = factory(rank_s), CHAPLYGIN_START
                if kind == "full":
                    integrate(body, lift_reduced_state(start), config)
                elif kind == "reparam":
                    reparametrized_integrate(body, start, config)
                else:
                    integrate(body, start, config)
        compiled.append(fresh.cache_info().misses)
    assert compiled == [1, 2, 3, 4]
