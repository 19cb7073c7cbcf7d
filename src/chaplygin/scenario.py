"""Scenario files: JSON descriptions of a body, an initial state and an
integrator setup.

Example::

    {
      "inertia": [1.0, 2.0, 3.0],
      "mass": 1.0,
      "radius": 1.0,
      "rank": 2,
      "initial": {"gamma": [0.0, 0.0, 1.0], "K": [0.3, -0.1, 0.2]},
      "integrator": {"dt": 1e-3, "T": 10.0}
    }

The initial state is either reduced ("gamma" and "K") or full ("g", "x" and
"K", with "g" a rotation matrix given as 9 row-major numbers or as three
rows of 3); exactly one of the two forms must be present.  Validation
failures raise ScenarioError naming the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .body import FULL_DIM, BodyParams, _pack_reduced, _rank_bits, pack_full
from .dynamics import IntegratorConfig
from .errors import ScenarioError, UnsupportedRank

__all__ = ["Scenario", "load_scenario", "scenario_from_dict"]


@dataclass(frozen=True)
class Scenario:
    params: BodyParams
    initial: np.ndarray
    config: IntegratorConfig

    @property
    def is_full(self) -> bool:
        return self.initial.shape == (FULL_DIM,)


def _require(data: dict, key: str, where: str = ""):
    if key not in data:
        raise ScenarioError(f"{where}{key}", "missing")
    return data[key]


def _number(value, field: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(field, "must be finite")
    if positive and not value > 0.0:
        raise ScenarioError(field, f"must be positive, got {value}")
    return value


def _vector(value, field: str, n: int) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ScenarioError(field, f"expected a list of {n} numbers")
    return np.array([_number(v, field) for v in value])


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")

    inertia = _vector(_require(data, "inertia"), "inertia", 3)
    if not np.all(inertia > 0.0):
        raise ScenarioError("inertia", f"moments must be positive, got {inertia.tolist()}")
    mass = _number(_require(data, "mass"), "mass", positive=True)
    radius = _number(_require(data, "radius"), "radius", positive=True)

    rank = _require(data, "rank")
    try:
        _rank_bits(rank)
    except UnsupportedRank as exc:
        raise ScenarioError("rank", str(exc))

    angle = _number(data.get("so2_angle", -0.5 * math.pi), "so2_angle")

    try:  # every field is checked above but the overflow of mass * radius**2
        params = BodyParams(inertia=tuple(inertia.tolist()), mass=mass, radius=radius, rank=rank, so2_angle=angle)
    except ValueError as exc:
        raise ScenarioError("mass", str(exc))

    initial = _require(data, "initial")
    if not isinstance(initial, dict):
        raise ScenarioError("initial", "must be an object")
    reduced_form = "gamma" in initial
    full_form = "g" in initial
    if reduced_form == full_form:
        raise ScenarioError(
            "initial", "give exactly one of the forms (gamma, K) or (g, x, K)"
        )
    k = _vector(_require(initial, "K", "initial."), "initial.K", 3)
    if reduced_form:
        gamma = _vector(initial["gamma"], "initial.gamma", 3)
        norm = math.hypot(*gamma)  # inf, not a numpy overflow, past the float range
        if abs(norm - 1.0) > 1e-9:
            raise ScenarioError("initial.gamma", f"|gamma| = {norm!r}, must be 1 to 1e-9")
        state = _pack_reduced(gamma, k)
    else:
        g = initial["g"]
        if isinstance(g, (list, tuple)) and len(g) == 3 and all(
            isinstance(row, (list, tuple)) and len(row) == 3 for row in g
        ):
            g = [v for row in g for v in row]  # three rows of 3: the 9 row-major numbers
        g = _vector(g, "initial.g", 9).reshape(3, 3)
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: a defect of inf or nan
            defect = float(np.linalg.norm(g.T @ g - np.eye(3)))
        if not defect <= 1e-9 or np.linalg.det(g) < 0.0:
            raise ScenarioError(
                "initial.g", f"must be a rotation matrix (orthogonality defect {defect:.3e})"
            )
        x = _vector(_require(initial, "x", "initial."), "initial.x", 3)
        state = pack_full(g, x, k)

    integ = _require(data, "integrator")
    if not isinstance(integ, dict):
        raise ScenarioError("integrator", "must be an object")
    dt = _number(_require(integ, "dt", "integrator."), "integrator.dt", positive=True)
    t_final = _number(_require(integ, "T", "integrator."), "integrator.T", positive=True)
    method = integ.get("method", "rk4")
    if method != "rk4":
        raise ScenarioError("integrator.method", f"unknown method {method!r}")
    if integ.get("renormalize_g", True) is not True:
        raise ScenarioError("integrator.renormalize_g", "g is always renormalized; only true is accepted")
    renormalize_gamma = integ.get("renormalize_gamma", False)
    if not isinstance(renormalize_gamma, bool):
        raise ScenarioError("integrator.renormalize_gamma", "must be a boolean")
    try:  # dt and T are positive and finite here: dt > T, or a step count that cannot be run
        config = IntegratorConfig(dt=dt, t_final=t_final, renormalize_gamma=renormalize_gamma)
    except ValueError as exc:
        raise ScenarioError("integrator.dt", str(exc))
    return Scenario(params=params, initial=state, config=config)


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError("<file>", f"no such file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ScenarioError("<file>", f"cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of more digits than int() reads
        raise ScenarioError("<file>", f"invalid JSON: {exc}")
    return scenario_from_dict(data)
