"""Time integration of the rolling dynamics and conservation diagnostics.

Fixed-step classical RK4 on either the reduced space (gamma, K) or the full
space (g, x, K).  On the full space every step renormalizes g (modified
Gram-Schmidt on rows); on the reduced space an optional per-step
renormalization keeps gamma on the unit sphere (default off, so that
conservation of |gamma|^2 stays observable).

The stepper runs on lists of Python floats: each RK4 stage calls the body's
list-in/list-out vector-field kernel (built once per body in ``rolling``),
every sum rounds left to right, each step is checked with ``math.isfinite``,
and the sampled states become one array at the end of the run.  Python
floats never warn, and no division is reached with a zero divisor: the
kernels raise DegenerateDenominator and the renormalizations NonFiniteState
first.

Monitored quantities: H, C1 = K . gamma, C2 = |gamma|^2, F = |K|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteState
from .geometry import _swap, unhat
from .rolling import (
    FULL_DIM,
    REDUCED_DIM,
    RHO_INDEX,
    BodyParams,
    X_nh_full,
    casimir_gamma_norm,
    casimir_kgamma,
    conformal_factor,
    hamiltonian,
    invariant_density,
    omega_jacobians,
    reduced_vf,
)

__all__ = [
    "MONITOR_NAMES",
    "IntegratorConfig",
    "Trajectory",
    "divergence_defect",
    "hermite_sample",
    "integrate",
    "invariant_drift",
    "monitor_series",
    "reparametrized_integrate",
    "rk4_step",
    "series_drift",
]

MONITOR_NAMES = ("H", "C1", "C2", "F")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float
    renormalize_gamma: bool = False

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0.0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be finite and positive, got {self.t_final}")
        if self.dt > self.t_final:
            raise ValueError(f"dt = {self.dt} exceeds the horizon t_final = {self.t_final}")

    @property
    def n_steps(self) -> int:
        """RK4 steps to t_final: t_final/dt, one more when dt does not divide it."""
        return len(_schedule(self)[1])


def _schedule(config: IntegratorConfig) -> tuple[np.ndarray, list]:
    """Sample times and step sizes from 0 to t_final: steps of dt, the last
    one shortened to land exactly on t_final when dt does not divide it
    (t_final/dt more than 1e-9 relative away from an integer)."""
    dt = config.dt
    ratio = config.t_final / dt
    n = round(ratio)
    if abs(ratio - n) <= 1e-9 * ratio:
        return dt * np.arange(n + 1), [dt] * n
    n = int(ratio)
    return np.append(dt * np.arange(n + 1), config.t_final), [dt] * n + [config.t_final - n * dt]


@dataclass
class Trajectory:
    """Sampled solution: times[k] with states[k]; for reparametrized runs the
    time axis is the new parameter and t_recovered holds physical time."""

    times: np.ndarray
    states: np.ndarray
    t_recovered: Optional[np.ndarray] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("times must be 1-d and states 2-d")
        if self.times.shape[0] != self.states.shape[0]:
            raise ValueError("times and states disagree in length")
        if self.times.shape[0] == 0:
            raise ValueError("a trajectory needs at least one sample")
        if self.times.shape[0] >= 2 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if self.t_recovered is not None:
            self.t_recovered = np.asarray(self.t_recovered, dtype=float)
            if self.t_recovered.shape != self.times.shape:
                raise ValueError("t_recovered must match times in shape")

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def rk4_step(f: Callable[[list], list], y: list, dt: float) -> list:
    """One classical RK4 step of y' = f(y) on lists of Python floats."""
    h = 0.5 * dt
    k1 = f(y)
    k2 = f([a + h * b for a, b in zip(y, k1)])
    k3 = f([a + h * b for a, b in zip(y, k2)])
    k4 = f([a + dt * b for a, b in zip(y, k3)])
    c = dt / 6.0
    return [a + c * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]


def _orthonormal_rows(y: list) -> list:
    """A full state with the rows of g = y[:9] replaced by their modified
    Gram-Schmidt basis.  A row left with at most 1e-12 of its length after
    the projections (a rank-deficient g; rounding rarely leaves exactly 0)
    raises NonFiniteState."""
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


def _unit_gamma(y: list) -> list:
    """y with gamma = y[:3] scaled to unit length; the other entries unchanged."""
    norm = math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])
    if norm == 0.0:
        raise NonFiniteState("gamma collapsed to zero during renormalization")
    return [y[0] / norm, y[1] / norm, y[2] / norm] + y[3:]


def _march(f, y: list, config: IntegratorConfig, renormalize) -> tuple:
    """RK4 from y along the schedule of config; returns (times, states).

    Steps Python floats, which never warn: the finiteness check after each
    step raises NonFiniteState instead.  ``renormalize`` (or None) maps each
    finite step back to the constraint manifold.
    """
    if not all(map(math.isfinite, y)):
        raise NonFiniteState("initial state has non-finite entries")
    times, steps = _schedule(config)
    rows = [y]
    for k, dt in enumerate(steps):
        y = rk4_step(f, y, dt)
        if not all(map(math.isfinite, y)):
            raise NonFiniteState(f"non-finite state after step {k + 1} (at {times[k + 1]:g})")
        if renormalize is not None:
            y = renormalize(y)
        rows.append(y)
    return times, np.array(rows)


def integrate(params: BodyParams, initial, config: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 run to t_final; the last step is shorter when dt does not divide t_final.

    ``initial`` may be a reduced 6-vector or a full 15-vector; the vector
    field is chosen accordingly.  Raises NonFiniteState as soon as a step
    produces NaN or infinity.
    """
    y = np.asarray(initial, dtype=float)
    if y.shape not in ((REDUCED_DIM,), (FULL_DIM,)):
        raise ValueError(f"initial state has shape {y.shape}; expected (6,) or (15,)")
    if y.size == FULL_DIM:
        field, renormalize = params._kernels.full, _orthonormal_rows
    else:
        field = params._kernels.reduced
        renormalize = _unit_gamma if config.renormalize_gamma else None
    times, states = _march(field, y.tolist(), config, renormalize)
    return Trajectory(times=times, states=states)


def reparametrized_integrate(params: BodyParams, initial, config: IntegratorConfig) -> Trajectory:
    """Integrate the rescaled field phi * X in the new time, tracking physical
    time as a quadrature of phi.

    phi is the conformal factor of the body's rank (identically 1 for ranks
    0 and 3, so the run coincides with ``integrate`` there).  Only reduced
    states are supported; dt and t_final refer to the new time.
    """
    y0 = np.asarray(initial, dtype=float)
    if y0.shape != (REDUCED_DIM,):
        raise ValueError("reparametrized integration is defined on the reduced space")
    field, phi = params._kernels.reduced, conformal_factor(params).value

    def f_aug(z):
        s = z[:REDUCED_DIM]
        p = phi(s)
        return [p * v for v in field(s)] + [p]

    # _unit_gamma touches only gamma = z[:3], never the physical time z[6]
    renormalize = _unit_gamma if config.renormalize_gamma else None
    times, rows = _march(f_aug, y0.tolist() + [0.0], config, renormalize)
    return Trajectory(times=times, states=rows[:, :REDUCED_DIM], t_recovered=rows[:, REDUCED_DIM])


def monitor_series(params: BodyParams, traj: Trajectory) -> dict:
    """Time series of the monitored quantities, recomputed from the stored
    states by one stacked call per quantity; each value equals the call on
    its state bit for bit."""
    if traj.dim == FULL_DIM:
        reduced = traj.states[:, RHO_INDEX]
    elif traj.dim == REDUCED_DIM:
        reduced = traj.states
    else:
        raise ValueError(f"monitors need 6- or 15-dim states, got {traj.dim}")
    k = reduced[:, 3:]
    return {
        "H": hamiltonian(params, reduced),
        "C1": casimir_kgamma()(reduced),
        "C2": casimir_gamma_norm()(reduced),
        "F": np.vecdot(k, k),
    }


def invariant_drift(params: BodyParams, traj: Trajectory) -> dict:
    """max_k |m(t_k) - m(0)| / max(1, |m(0)|) for each monitored quantity m.

    Recomputed from the states, so tampered or diverged trajectories are
    caught regardless of what was recorded during the run.
    """
    return series_drift(monitor_series(params, traj))


def series_drift(series: dict) -> dict:
    """The drifts of ``invariant_drift`` from an already computed ``monitor_series``."""
    return {
        name: float(np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0])))
        for name, vals in series.items()
    }


def divergence_defect(params: BodyParams, state, density: str = "invariant"):
    """|div(mu X)| = |mu div X + grad mu . X| at a reduced state, in closed form:
    div X = -gamma . unhat(J_gamma - J_gamma^T) - K . unhat(J_K - J_K^T) with
    J_gamma, J_K the omega_jacobians.  A stack (N, 6) of states gives the N
    defects, each equal to the call on its row bit for bit.

    density='invariant' uses the measure the flow is claimed to preserve
    (1/conformal_factor); density='uniform' uses mu = 1, which for ranks 1
    and 2 is NOT preserved and yields an order-one defect.
    """
    state = np.asarray(state, dtype=float)
    if state.shape[-1:] != (REDUCED_DIM,):
        raise ValueError("divergence_defect works on reduced states")
    if density == "invariant":
        mu = invariant_density(params)
    elif density == "uniform":
        mu = None
    else:
        raise ValueError(f"unknown density {density!r}")

    gamma, K = state[..., :3], state[..., 3:]
    d_gamma, d_k = omega_jacobians(params, gamma, K)
    div_x = -np.vecdot(gamma, unhat(d_gamma - _swap(d_gamma))) - np.vecdot(K, unhat(d_k - _swap(d_k)))
    if mu is None:
        return np.abs(div_x)
    return np.abs(mu(state) * div_x + np.vecdot(mu.grad(state), reduced_vf(params, state)))


def hermite_sample(params: BodyParams, traj: Trajectory, t: float) -> np.ndarray:
    """State at time t by cubic Hermite interpolation on the bracketing
    segment, with endpoint derivatives from the vector field (O(dt^4)).

    On a reparametrized trajectory t is the new time tau, and the endpoint
    derivatives are those of the rescaled field phi * X.
    """
    times, states = traj.times, traj.states
    if len(times) < 2:
        raise ValueError("Hermite sampling needs a trajectory of at least two samples")
    if not times[0] <= t <= times[-1]:
        raise ValueError(f"t = {t} outside the sampled range [{times[0]}, {times[-1]}]")
    idx = int(np.searchsorted(times, t, side="right") - 1)
    idx = min(max(idx, 0), len(times) - 2)
    t0, t1 = times[idx], times[idx + 1]
    h = t1 - t0
    y0, y1 = states[idx], states[idx + 1]
    field = X_nh_full if traj.dim == FULL_DIM else reduced_vf
    # on a reparametrized run the time axis is tau: dy/dtau = phi X
    phi = conformal_factor(params) if traj.t_recovered is not None else (lambda s: 1.0)
    m0, m1 = h * phi(y0) * field(params, y0), h * phi(y1) * field(params, y1)
    u = (t - t0) / h
    h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    h10 = u * (1.0 - u) ** 2
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)
    return h00 * y0 + h10 * m0 + h01 * y1 + h11 * m1
