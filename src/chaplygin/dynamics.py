"""Time integration of the rolling dynamics and conservation diagnostics.

Fixed-step classical RK4 on either the reduced space (gamma, K) or the full
space (g, x, K).  On the full space every step renormalizes g (modified
Gram-Schmidt on rows); on the reduced space an optional per-step
renormalization keeps gamma on the unit sphere (default off, so that
conservation of |gamma|^2 stays observable).

One generated function per chart marches a whole run on Python floats: the
RK4 template with the body's field, written once as text in ``body``,
inline as each stage, so a step calls no Python function before its
finiteness test and renormalization.  Python floats never warn, and no
division meets a zero divisor: the denominator test raises
DegenerateDenominator and the renormalizations NonFiniteState first.

Monitored quantities: H, C1 = K . gamma, C2 = |gamma|^2, F = |K|^2.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .body import (
    FULL_DIM,
    REDUCED_DIM,
    _GAMMA,
    _K,
    BodyParams,
    X_nh_full,
    _bind,
    _chart,
    _compile,
    _stage,
    casimir_gamma_norm,
    casimir_kgamma,
    conformal_factor,
    hamiltonian,
    invariant_density,
    omega_jacobians,
    project_rho,
    reduced_vf,
    split_reduced,
)
from .errors import NonFiniteState
from .geometry import _allocating, _first_bad, _one, _swap, unhat

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
        ratio = self.t_final / self.dt
        if not ratio < np.iinfo(np.intp).max // 8 - 2:  # inf, or more float64 samples than one array holds
            raise ValueError(f"t_final/dt = {ratio} steps: more samples than numpy can allocate")
        # (whole steps of dt, RK4 steps): one more RK4 step, shortened to land on
        # t_final, where t_final/dt is more than 1e-9 relative away from an integer
        n = round(ratio)
        exact = abs(ratio - n) <= 1e-9 * ratio
        object.__setattr__(self, "_steps", (n, n) if exact else (int(ratio), int(ratio) + 1))

    @property
    def n_steps(self) -> int:
        """RK4 steps to t_final: t_final/dt, one more when dt does not divide it."""
        return self._steps[1]


def _schedule(config: IntegratorConfig) -> tuple[np.ndarray, list]:
    """Sample times and step sizes from 0 to t_final: steps of dt, the last
    one shortened to land exactly on t_final when dt does not divide it."""
    dt, (n, n_steps) = config.dt, config._steps
    times, steps = dt * np.arange(n + 1), [dt] * n
    if n == n_steps:
        return times, steps
    return np.append(times, config.t_final), steps + [config.t_final - n * dt]


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


# RK4 of y' = f(y) over the step sizes ``steps``, with no loop, zip, slice
# or call inside a step: each <...> stands for its text at i = 0 .. dim - 1,
# concatenated, and {stages} for the lines of _RK4_STAGES.  0.0 * a is nan
# unless a is finite, so the sum of those is finite exactly when every entry
# is, and it cannot overflow.
_RK4_MARCH = """\
def march(y, steps, renormalize):
    rows = [y]
    [<y{i}, >] = y
    for dt in steps:
        h = 0.5 * dt
{stages}
        sixth = dt / 6.0
        y = [<y{i} + sixth * (p{i} + 2.0 * q{i} + 2.0 * r{i} + s{i}), >]
        [<y{i}, >] = y
        if not isfinite(<0.0 * y{i} + >0.0):
            rows.append(y)
            return rows, len(rows) - 1
        if renormalize is not None:
            y = renormalize(y)
            [<y{i}, >] = y
        rows.append(y)
    return rows, None
"""
# k1 = p = f(y), k2 = q = f(y + h p), k3 = r = f(y + h q), k4 = s = f(y + dt r)
_RK4_STAGES = (("p", ""), ("q", " + h * p"), ("r", " + h * q"), ("s", " + dt * r"))


def _march_source(field: tuple) -> str:
    """march(y, steps, renormalize), giving (rows, None) or (rows up to the
    first non-finite one, its index), with the field's text as each stage."""
    dim = len(field[0])
    source = re.sub(r"<([^>]*)>", lambda m: "".join(m[1].format(i=i) for i in range(dim)), _RK4_MARCH)
    stages = (_stage(field, out, [f"y{i}{offset and offset + str(i)}" for i in range(dim)])
              for out, offset in _RK4_STAGES)
    return source.replace("{stages}\n", "".join(f"        {line}\n" for lines in stages for line in lines))


_MARCH_GLOBALS = {"isfinite": math.isfinite, "sqrt": math.sqrt, "inf": math.inf}


@functools.cache
def _chart_march(chart: str, zero: bool) -> Callable:
    """bind(**constants) -> the march of a body's field on ``chart`` with the
    chart's text inline, for every body with sign == 0, or with sign != 0."""
    source = _march_source(_chart(chart, zero))
    return _compile(source, "march", f"<rk4 march {chart} zero={zero}>", _MARCH_GLOBALS)


def rk4_step(f: Callable[[list], list], y: list, dt: float) -> list:
    """One classical RK4 step of y' = f(y) on a list of Python floats, with
    the march's arithmetic; f maps a sequence of len(y) floats to as many
    (ValueError otherwise)."""
    if np.ndim(y) != 1:
        raise ValueError(f"expected one state, got shape {np.shape(y)}")
    h = 0.5 * dt
    k1 = f(y)
    k2 = f([a + h * b for a, b in zip(y, k1, strict=True)])
    k3 = f([a + h * b for a, b in zip(y, k2, strict=True)])
    k4 = f([a + dt * b for a, b in zip(y, k3, strict=True)])
    sixth = dt / 6.0
    return [a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4, strict=True)]


_DEGENERATE = "degenerate attitude matrix during renormalization"


def _orthonormal_rows(y: list) -> list:
    """A full state with the rows a, b, c of g = y[:9] replaced by their
    modified Gram-Schmidt basis.  A row left with at most 1e-12 of its length
    after the projections (a rank-deficient g) raises NonFiniteState."""
    a1, a2, a3, b1, b2, b3, c1, c2, c3, x1, x2, x3, k1, k2, k3 = y
    after = a1 * a1 + a2 * a2 + a3 * a3
    if after <= 1e-24 * after:
        raise NonFiniteState(_DEGENERATE)
    n = math.sqrt(after)
    a1, a2, a3 = a1 / n, a2 / n, a3 / n
    before = b1 * b1 + b2 * b2 + b3 * b3
    d = b1 * a1 + b2 * a2 + b3 * a3
    b1, b2, b3 = b1 - d * a1, b2 - d * a2, b3 - d * a3
    after = b1 * b1 + b2 * b2 + b3 * b3
    if after <= 1e-24 * before:
        raise NonFiniteState(_DEGENERATE)
    n = math.sqrt(after)
    b1, b2, b3 = b1 / n, b2 / n, b3 / n
    before = c1 * c1 + c2 * c2 + c3 * c3
    d = c1 * a1 + c2 * a2 + c3 * a3
    c1, c2, c3 = c1 - d * a1, c2 - d * a2, c3 - d * a3
    d = c1 * b1 + c2 * b2 + c3 * b3
    c1, c2, c3 = c1 - d * b1, c2 - d * b2, c3 - d * b3
    after = c1 * c1 + c2 * c2 + c3 * c3
    if after <= 1e-24 * before:
        raise NonFiniteState(_DEGENERATE)
    n = math.sqrt(after)
    return [a1, a2, a3, b1, b2, b3, c1 / n, c2 / n, c3 / n, x1, x2, x3, k1, k2, k3]


def _unit_gamma(y: list) -> list:
    """y with gamma = y[:3] scaled to unit length; the other entries (K, and t
    on the reparametrized chart) unchanged."""
    norm = math.sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2])
    if norm == 0.0:
        raise NonFiniteState("gamma collapsed to zero during renormalization")
    return [y[0] / norm, y[1] / norm, y[2] / norm] + y[_GAMMA.stop:]


def _march(march, y: list, config: IntegratorConfig, renormalize=None) -> tuple:
    """RK4 from y along the schedule of config with a compiled march; returns
    (times, states).

    Steps Python floats, which never warn: a non-finite step raises
    NonFiniteState instead.  ``renormalize`` maps each finite step back to
    the constraint manifold (None: gamma = y[:3] alone to unit length where
    config.renormalize_gamma).  A run whose samples do not fit in memory
    raises AllocationFailed naming the shape of its states.
    """
    if renormalize is None and config.renormalize_gamma:
        renormalize = _unit_gamma
    if not all(map(math.isfinite, y)):
        raise NonFiniteState("initial state has non-finite entries")
    with _allocating((config.n_steps + 1, len(y))):
        times, steps = _schedule(config)
        rows, bad = march(y, steps, renormalize)
        if bad is not None:
            raise NonFiniteState(f"non-finite state after step {bad} (at {times[bad]:g})")
        states = np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * len(y))
    return times, states.reshape(len(rows), len(y))


def integrate(params: BodyParams, initial, config: IntegratorConfig) -> Trajectory:
    """Fixed-step RK4 run to t_final; the last step is shorter when dt does not divide t_final.

    ``initial`` may be a reduced 6-vector or a full 15-vector; the vector
    field is chosen accordingly.  Raises NonFiniteState as soon as a step
    produces NaN or infinity.
    """
    y = np.asarray(initial, dtype=float)
    if y.shape not in ((REDUCED_DIM,), (FULL_DIM,)):
        raise ValueError(f"expected one 6- or 15-dim initial state, got shape {y.shape}")
    chart, renormalize = ("full", _orthonormal_rows) if y.size == FULL_DIM else ("reduced", None)
    times, states = _march(_bind(_chart_march, params, chart), y.tolist(), config, renormalize)
    return Trajectory(times=times, states=states)


def reparametrized_integrate(params: BodyParams, initial, config: IntegratorConfig) -> Trajectory:
    """Integrate the rescaled field phi * X in the new time, tracking physical
    time as a quadrature of phi.

    phi is the conformal factor of the body's rank (identically 1 for ranks
    0 and 3, so the run coincides with ``integrate`` there).  Only reduced
    states are supported; dt and t_final refer to the new time.
    """
    y0 = _one(initial, REDUCED_DIM, "reduced initial state")
    times, rows = _march(_bind(_chart_march, params, "reparam"), y0.tolist() + [0.0], config)
    return Trajectory(times=times, states=rows[:, :REDUCED_DIM], t_recovered=rows[:, REDUCED_DIM])


def monitor_series(params: BodyParams, traj: Trajectory) -> dict:
    """Time series of the monitored quantities, recomputed from the stored
    states by one stacked call per quantity; each value equals the call on
    its state bit for bit.  A value that is not finite (a monitor that
    overflows) raises NonFiniteState naming the monitor and sample."""
    if traj.dim == FULL_DIM:
        reduced = project_rho(traj.states)
    elif traj.dim == REDUCED_DIM:
        reduced = traj.states
    else:
        raise ValueError(f"monitors need 6- or 15-dim states, got {traj.dim}")
    k = reduced[:, _K]
    with np.errstate(all="ignore"):  # a value that is not finite is reported below
        series = {
            "H": hamiltonian(params, reduced),
            "C1": casimir_kgamma()(reduced),
            "C2": casimir_gamma_norm()(reduced),
            "F": np.vecdot(k, k),
        }
    for name, values in series.items():
        if bad := _first_bad(~np.isfinite(values)):
            raise NonFiniteState(f"monitor {name} is not finite at sample {bad[0]}")
    return series


def invariant_drift(params: BodyParams, traj: Trajectory) -> dict:
    """max_k |m(t_k) - m(0)| / max(1, |m(0)|) for each monitored quantity m.

    Recomputed from the states, so tampered or diverged trajectories are
    caught regardless of what was recorded during the run.
    """
    return series_drift(monitor_series(params, traj))


def series_drift(series: dict) -> dict:
    """The drifts of ``invariant_drift`` from an already computed ``monitor_series``."""
    for name, vals in series.items():
        if np.ndim(vals) != 1 or np.size(vals) == 0:
            raise ValueError(f"series {name!r} must be 1-d with at least one value, got shape {np.shape(vals)}")
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
    gamma, K = split_reduced(state)
    if density == "invariant":
        mu = invariant_density(params)
    elif density == "uniform":
        mu = None
    else:
        raise ValueError(f"unknown density {density!r}")

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
