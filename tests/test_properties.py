"""Property tests over random bodies, ranks and states (hypothesis).

The example tests elsewhere use two fixed bodies; these draw the body as
well.  Runs are derandomized and keep no example database, so the suite
stays deterministic.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaplygin import (
    RHO_INDEX,
    BodyParams,
    FormPatch,
    K_from_omega,
    X_nh_full,
    casimir_defect,
    casimir_gamma_norm,
    casimir_kgamma,
    conformal_factor,
    divergence_defect,
    gauge_form_on_M,
    gauge_matrix,
    gauge_transform,
    ham_vf,
    hamiltonian,
    hamiltonian_field,
    hamiltonizable_variant,
    hat,
    jacobi_tensor,
    matrix_A,
    nh_bracket_full,
    omega_from_K,
    pack_full,
    poisson_variant,
    project_rho,
    random_rotation,
    reduced_bracket,
    reduced_vf,
    reduction_defect,
    scale_bivector,
    twist_three_form,
    twist_two_form,
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
# states as the verify suites sample them (K in [-1, 1]^3), gamma also off the sphere
reduced_states = st.tuples(gammas, vectors).map(np.concatenate)
full_states = st.tuples(st.integers(0, 2**32 - 1), vectors, vectors).map(
    lambda p: pack_full(random_rotation(np.random.default_rng(p[0])), p[1], p[2])
)
variants = st.sampled_from(["plain", "primed"])
# stacks of states as the verify suites evaluate them
reduced_stacks = st.lists(reduced_states, min_size=1, max_size=6).map(np.array)
full_stacks = st.lists(full_states, min_size=1, max_size=4).map(np.array)
# every permutation of three axes and its sign
SIGNS = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0, (1, 0, 2): -1.0, (0, 2, 1): -1.0, (2, 1, 0): -1.0}


def _alternates_exactly(tensor) -> bool:
    return all(np.array_equal(np.transpose(tensor, perm), sign * tensor) for perm, sign in SIGNS.items())


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


# Tolerances below are those of the example tests of the same identities:
# Casimirs and reduction 1e-12 (tests/test_rolling.py), Jacobi 1e-9 and the
# gauge round trip 1e-10 (acceptance criteria 01 and 05).


@PROPERTY
@given(body=bodies, state=reduced_states, variant=variants)
def test_casimirs(body, state, variant):
    """C2 = |gamma|^2 is a Casimir of both variants; C1 = K . gamma of the
    Hamiltonizable one (the other variant is a positive control elsewhere)."""
    pi = reduced_bracket(body, variant)
    assert casimir_defect(pi, casimir_gamma_norm(), state) <= 1e-12
    if variant == hamiltonizable_variant(body.rank):
        assert casimir_defect(pi, casimir_kgamma(), state) <= 1e-12


@PROPERTY
@given(body=bodies, state=reduced_states, variant=variants)
def test_reduced_jacobi_tensor(body, state, variant):
    tensor = jacobi_tensor(reduced_bracket(body, variant), state)
    assert _alternates_exactly(tensor)
    if variant == poisson_variant(body.rank):
        assert np.max(np.abs(tensor)) <= 1e-9


@settings(PROPERTY, max_examples=30)
@given(body=bodies, state=full_states, form=st.sampled_from(["plain", "gauged"]))
def test_full_jacobi_tensor_alternates_exactly(body, state, form):
    assert _alternates_exactly(jacobi_tensor(nh_bracket_full(body, form), state))


@PROPERTY
@given(body=bodies, state=full_states)
def test_gauge_round_trip(body, state):
    pi = nh_bracket_full(body, "plain")
    b_form = gauge_form_on_M(body)
    minus_b = FormPatch(degree=2, dim=15, entries=lambda s: -b_form(s))
    back = gauge_transform(gauge_transform(pi, b_form), minus_b)
    assert np.max(np.abs(back.matrix(state) - pi.matrix(state))) <= 1e-10


@PROPERTY
@given(body=bodies, state=full_states, variant=variants)
def test_reduction_defect_vanishes(body, state, variant):
    assert np.max(reduction_defect(body, variant, state)) <= 1e-12


# The per-rank tables that the rank rule A^T A = diag(p, p, x) replaced, kept
# as the reference its derived terms must reproduce bit for bit.
# (a, b) of V = K + m r^2 (a Omega + b (Omega . gamma) gamma)
V_COEFFS = {
    (0, "plain"): (0.0, 0.0),
    (0, "primed"): (-1.0, 0.0),
    (1, "plain"): (0.0, 1.0),
    (1, "primed"): (-1.0, 1.0),
    (2, "plain"): (1.0, -1.0),
    (2, "primed"): (0.0, -1.0),
    (3, "plain"): (1.0, 0.0),
    (3, "primed"): (0.0, 0.0),
}
# (sign, n = I + m r^2 rather than I) of I + m r^2 S(gamma) = diag(n) + sign m r^2 gamma gamma^T
RANK_TERMS = {0: (0.0, False), 1: (1.0, False), 2: (-1.0, True), 3: (0.0, True)}
HAMILTONIZABLE = {0: "plain", 1: "plain", 2: "primed", 3: "primed"}
POISSON = {0: "plain", 1: None, 2: None, 3: "primed"}


def _reference_matrix_A(body):
    c, s = math.cos(body.so2_angle), math.sin(body.so2_angle)
    if body.rank == 0:
        return np.zeros((3, 3))
    if body.rank == 1:
        a = np.zeros((3, 3))
        a[2, 2] = 1.0
        return a
    a = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.0]])
    if body.rank == 3:
        a[2, 2] = 1.0
    return a


@PROPERTY
@given(body=bodies, state=reduced_states, omega=momenta, variant=variants)
def test_rank_rule_reproduces_the_rank_tables(body, state, omega, variant):
    rank, mr2 = body.rank, body.mass * body.radius**2
    assert np.array_equal(matrix_A(body), _reference_matrix_A(body))
    assert hamiltonizable_variant(rank) == HAMILTONIZABLE[rank]
    assert poisson_variant(rank) == POISSON[rank]

    gamma, k = state[:3], state[3:]
    sign, shifted = RANK_TERMS[rank]
    n = np.array([i + (mr2 if shifted else 0.0) for i in body.inertia])
    assert np.array_equal(K_from_omega(body, gamma, omega), n * omega + (sign * mr2 * float(gamma @ omega)) * gamma)

    a, b = V_COEFFS[(rank, variant)]
    w = omega_from_K(body, gamma, k)
    expected = np.zeros((6, 6))
    expected[:3, 3:] = expected[3:, :3] = hat(gamma)
    expected[3:, 3:] = hat(k + mr2 * (a * w + b * float(w @ gamma) * gamma))
    assert np.array_equal(reduced_bracket(body, variant).matrix(state), expected)


# A stack of states (N, d) goes through the same code as one state: each row
# of a stacked result must equal the call on that row, bit for bit.


def _rows_equal(stacked, per_row) -> bool:
    return len(stacked) == len(per_row) and all(np.array_equal(x, y) for x, y in zip(stacked, per_row))


def _reduced_brackets(body, variant):
    """The reduced brackets a verify run differentiates, each with its 3-form or None."""
    pi = reduced_bracket(body, variant)
    out = [(pi, None), (scale_bivector(pi, conformal_factor(body)), None)]
    if poisson_variant(body.rank) is None:
        out.append((pi, twist_three_form(body)))
    return out


@settings(PROPERTY, max_examples=60)
@given(body=bodies, states=reduced_stacks, variant=variants)
def test_stacked_reduced_jacobi_tensor_equals_rows(body, states, variant):
    for pi, phi in _reduced_brackets(body, variant):
        assert _rows_equal(jacobi_tensor(pi, states, phi), [jacobi_tensor(pi, s, phi) for s in states])
        p, dp = pi.matrix_and_partials(states)
        rows = [pi.matrix_and_partials(s) for s in states]
        assert _rows_equal(p, [r[0] for r in rows]) and _rows_equal(dp, [r[1] for r in rows])


@settings(PROPERTY, max_examples=20)
@given(body=bodies, states=full_stacks, form=st.sampled_from(["plain", "gauged"]))
def test_stacked_full_jacobi_tensor_equals_rows(body, states, form):
    pi = nh_bracket_full(body, form)
    assert _rows_equal(jacobi_tensor(pi, states), [jacobi_tensor(pi, s) for s in states])
    assert _rows_equal(pi.matrix(states), [pi.matrix(s) for s in states])


@settings(PROPERTY, max_examples=60)
@given(body=bodies, states=full_stacks)
def test_stacked_gauge_matrix_equals_rows(body, states):
    p = nh_bracket_full(body, "plain").matrix(states)
    bm = gauge_form_on_M(body)(states)
    g = gauge_matrix(p, bm)
    assert _rows_equal(g, [gauge_matrix(x, y) for x, y in zip(p, bm)])
    assert _rows_equal(gauge_matrix(g, -bm), [gauge_matrix(x, -y) for x, y in zip(g, bm)])


@settings(PROPERTY, max_examples=60)
@given(body=bodies, reduced=reduced_stacks, full=full_stacks)
def test_stacked_forms_equal_rows(body, reduced, full):
    forms = [(gauge_form_on_M(body), full)]
    if poisson_variant(body.rank) is None:
        forms += [(twist_two_form(body), reduced), (twist_three_form(body), reduced)]
    for form, states in forms:
        assert _rows_equal(form(states), [form(s) for s in states])
        assert _rows_equal(form.partial_tensor(states), [form.partial_tensor(s) for s in states])


@PROPERTY
@given(body=bodies, states=reduced_stacks, density=st.sampled_from(["invariant", "uniform"]))
def test_stacked_hat_and_divergence_defect_equal_rows(body, states, density):
    assert _rows_equal(hat(states[:, 3:]), [hat(s[3:]) for s in states])
    stacked = divergence_defect(body, states, density=density)
    assert _rows_equal(stacked, [divergence_defect(body, s, density=density) for s in states])


@PROPERTY
@given(body=bodies, states=reduced_stacks, variant=variants)
@example(
    body=BodyParams(inertia=(1.0, 2.0, 3.0), mass=1.0, radius=0.5, rank=2),
    states=np.random.default_rng(6).uniform(-1.0, 1.0, (6, 6)),
    variant="plain",
)
def test_stacked_fields_and_flows_equal_rows(body, states, variant):
    """H, the Casimir fields, their Hamiltonian vector fields and Casimir
    defects; a stack of 6 states is also 6 x 6, the shape of a matrix stack,
    so one such stack is always tried."""
    pi = reduced_bracket(body, variant)
    assert _rows_equal(hamiltonian(body, states), [hamiltonian(body, s) for s in states])
    for field in (hamiltonian_field(body), casimir_kgamma(), casimir_gamma_norm()):
        assert _rows_equal(field(states), [field(s) for s in states])
        assert _rows_equal(field.grad(states), [field.grad(s) for s in states])
        assert _rows_equal(ham_vf(pi, field, states), [ham_vf(pi, field, s) for s in states])
        assert _rows_equal(casimir_defect(pi, field, states), [casimir_defect(pi, field, s) for s in states])
