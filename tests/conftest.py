"""Shared fixtures: body parameter sets, state samplers, the list RK4 step,
a fresh-interpreter probe and the benchmark modules used across tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaplygin
from chaplygin import BodyParams

VARIANTS = ("plain", "primed")


def standard_body(rank: int) -> BodyParams:
    """Reference body: inertia diag(1, 2, 3), unit mass and radius."""
    return BodyParams(inertia=(1.0, 2.0, 3.0), mass=1.0, radius=1.0, rank=rank)


def asymmetric_body(rank: int) -> BodyParams:
    """Second parameter set, with nothing equal to 1, to catch lucky cancellations."""
    return BodyParams(inertia=(0.7, 1.9, 2.6), mass=1.4, radius=0.6, rank=rank)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's tracer and workloads modules (workloads imports tracer
    by its bare name); they are only read."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer, workloads


@pytest.fixture(params=[0, 1, 2, 3], ids=["rank0", "rank1", "rank2", "rank3"])
def rank(request) -> int:
    return request.param


@pytest.fixture
def body(rank) -> BodyParams:
    return standard_body(rank)


def list_rk4_step(f, y, dt):
    """The list-comprehension RK4 step that the straight-line step replaced."""
    h = 0.5 * dt
    k1 = f(y)
    k2 = f([a + h * b for a, b in zip(y, k1)])
    k3 = f([a + h * b for a, b in zip(y, k2)])
    k4 = f([a + dt * b for a, b in zip(y, k3)])
    c = dt / 6.0
    return [a + c * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]


def fresh_modules(code: str, *args: str) -> list:
    """The chaplygin modules in sys.modules after ``code`` runs in a fresh interpreter."""
    code += "\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'chaplygin'))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(chaplygin.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", "import sys\n" + code, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()
