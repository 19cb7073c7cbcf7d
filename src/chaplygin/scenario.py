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
"K", with "g" a rotation matrix given as 9 row-major numbers); exactly one of
the two forms must be present.  Validation failures raise ScenarioError
naming the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import IntegratorConfig
from .errors import ScenarioError, UnsupportedRank
from .rolling import BodyParams, pack_full

__all__ = ["Scenario", "load_scenario", "scenario_from_dict"]


@dataclass(frozen=True)
class Scenario:
    params: BodyParams
    initial: np.ndarray
    config: IntegratorConfig

    @property
    def is_full(self) -> bool:
        return self.initial.shape == (15,)


def _require(data: dict, key: str, where: str = ""):
    if key not in data:
        raise ScenarioError(f"{where}{key}", "missing")
    return data[key]


def _number(value, field: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected a number, got {value!r}")
    value = float(value)
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
    if isinstance(rank, bool) or not isinstance(rank, int) or rank not in (0, 1, 2, 3):
        raise ScenarioError("rank", f"must be an integer in 0..3, got {rank!r}")

    angle = _number(data.get("so2_angle", -0.5 * math.pi), "so2_angle")

    try:
        params = BodyParams(
            inertia=tuple(inertia.tolist()), mass=mass, radius=radius, rank=rank, so2_angle=angle
        )
    except (ValueError, UnsupportedRank) as exc:  # pragma: no cover - prevalidated
        raise ScenarioError("<body>", str(exc))

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
        norm = float(np.linalg.norm(gamma))
        if abs(norm - 1.0) > 1e-9:
            raise ScenarioError("initial.gamma", f"|gamma| = {norm!r}, must be 1 to 1e-9")
        state = np.concatenate([gamma, k])
    else:
        g_rows = initial["g"]
        if not isinstance(g_rows, (list, tuple)):
            raise ScenarioError("initial.g", "expected 9 row-major numbers")
        if len(g_rows) == 9:
            g = _vector(g_rows, "initial.g", 9).reshape(3, 3)
        elif len(g_rows) == 3 and all(
            isinstance(row, (list, tuple)) and len(row) == 3 for row in g_rows
        ):
            g = np.vstack([_vector(row, "initial.g", 3) for row in g_rows])
        else:
            raise ScenarioError("initial.g", "expected 9 row-major numbers")
        defect = float(np.linalg.norm(g.T @ g - np.eye(3)))
        if defect > 1e-9 or np.linalg.det(g) < 0.0:
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
    if dt > t_final:
        raise ScenarioError("integrator.dt", f"dt = {dt} exceeds the horizon T = {t_final}")
    method = integ.get("method", "rk4")
    if method != "rk4":
        raise ScenarioError("integrator.method", f"unknown method {method!r}")
    if integ.get("renormalize_g", True) is not True:
        raise ScenarioError("integrator.renormalize_g", "g is always renormalized; only true is accepted")
    renormalize_gamma = integ.get("renormalize_gamma", False)
    if not isinstance(renormalize_gamma, bool):
        raise ScenarioError("integrator.renormalize_gamma", "must be a boolean")
    config = IntegratorConfig(dt=dt, t_final=t_final, renormalize_gamma=renormalize_gamma)
    return Scenario(params=params, initial=state, config=config)


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError("<file>", f"no such file: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError("<file>", f"invalid JSON: {exc}")
    return scenario_from_dict(data)
