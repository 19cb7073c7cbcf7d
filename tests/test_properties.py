"""Property tests over random bodies, ranks and states (hypothesis).

The example tests elsewhere use two fixed bodies; these draw the body as
well.  Runs are derandomized and keep no example database, so the suite
stays deterministic.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chaplygin import (
    RHO_INDEX,
    BodyParams,
    K_from_omega,
    X_nh_full,
    omega_from_K,
    pack_full,
    project_rho,
    random_rotation,
    reduced_vf,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


bodies = st.builds(
    BodyParams,
    inertia=st.tuples(_floats(0.1, 10.0), _floats(0.1, 10.0), _floats(0.1, 10.0)),
    mass=_floats(0.1, 10.0),
    radius=_floats(0.1, 2.0),
    rank=st.integers(0, 3),
    so2_angle=_floats(-math.pi, math.pi),
)
vectors = st.tuples(_floats(-1.0, 1.0), _floats(-1.0, 1.0), _floats(-1.0, 1.0)).map(np.array)
# off the unit sphere, but far from gamma = 0 where ranks 1 and 2 degenerate
gammas = vectors.filter(lambda v: np.linalg.norm(v) >= 0.1)
unit_gammas = gammas.map(lambda v: v / np.linalg.norm(v))
momenta = st.tuples(vectors, _floats(-3.0, 3.0)).map(lambda p: p[0] * 10.0 ** p[1])


@PROPERTY
@given(body=bodies, gamma=unit_gammas, omega=momenta)
def test_omega_inverts_the_momentum_map(body, gamma, omega):
    back = omega_from_K(body, gamma, K_from_omega(body, gamma, omega))
    assert np.max(np.abs(back - omega)) <= 1e-12 * max(np.max(np.abs(omega)), 1e-300)


@PROPERTY
@given(body=bodies, states=st.lists(st.tuples(gammas, momenta), min_size=1, max_size=8))
def test_batched_omega_equals_row_calls(body, states):
    gamma = np.array([g for g, _ in states])
    k = np.array([kk for _, kk in states])
    rows = [omega_from_K(body, g, kk) for g, kk in zip(gamma, k)]
    assert np.array_equal(omega_from_K(body, gamma, k), rows)


@PROPERTY
@given(body=bodies, seed=st.integers(0, 2**32 - 1), x=vectors, k=momenta)
def test_full_field_projects_onto_reduced_field(body, seed, x, k):
    state = pack_full(random_rotation(np.random.default_rng(seed)), x, k)
    assert np.array_equal(X_nh_full(body, state)[RHO_INDEX], reduced_vf(body, project_rho(state)))
