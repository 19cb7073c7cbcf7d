"""Integrators, conservation monitors, measure diagnostics, interpolation."""

import math
import warnings

import numpy as np
import pytest

from chaplygin import (
    MONITOR_NAMES,
    DegenerateDenominator,
    IntegratorConfig,
    NonFiniteState,
    Trajectory,
    X_nh_full,
    brackets,
    conformal_factor,
    divergence_defect,
    fd_partials,
    hamiltonian,
    hermite_sample,
    integrate,
    invariant_density,
    invariant_drift,
    lift_reduced_state,
    monitor_series,
    pack_full,
    project_rho,
    reduced_vf,
    reparametrized_integrate,
    rk4_step,
    rolling,
    sample_reduced_state,
    split_full,
)

from conftest import asymmetric_body, standard_body

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


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 6)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0, 2.0]), states=np.zeros((2, 6)))
    with pytest.raises(ValueError):
        Trajectory(times=np.zeros(0), states=np.zeros((0, 6)))


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
    solve = rolling.omega_from_K

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(rolling, "omega_from_K", counting)
    monitor_series(body, traj)
    assert len(calls) == 1


def test_monitor_series_rejects_other_dimensions():
    traj = Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 7)))
    with pytest.raises(ValueError):
        monitor_series(standard_body(2), traj)


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
    with pytest.raises(ValueError):
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
