"""Property tests over random bodies, ranks and states (hypothesis).

The example tests elsewhere use two fixed bodies; these draw the body as
well.  Runs are derandomized and keep no example database, so the suite
stays deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaplygin import (
    RHO_INDEX,
    BodyParams,
    DegenerateDenominator,
    FormPatch,
    K_from_omega,
    X_nh_full,
    annihilator_one_form,
    casimir_defect,
    casimir_gamma_norm,
    casimir_kgamma,
    conformal_factor,
    coordinate_field,
    divergence_defect,
    fd_exterior_derivative,
    fd_partials,
    gauge_form_on_M,
    gauge_matrix,
    gauge_transform,
    ham_vf,
    hamiltonian,
    hamiltonian_field,
    hamiltonizable_variant,
    hat,
    jacobi_tensor,
    leafwise_two_form,
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
    rk4_step,
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
@given(body=bodies, states=st.lists(st.tuples(unit_gammas, momenta), min_size=1, max_size=8))
def test_stacked_momentum_map_equals_rows_and_round_trips(body, states):
    gamma = np.array([g for g, _ in states])
    omega = np.array([w for _, w in states])
    k = K_from_omega(body, gamma, omega)
    assert _rows_equal(k, [K_from_omega(body, g, w) for g, w in zip(gamma, omega)])
    back = omega_from_K(body, gamma, k)
    scale = np.maximum(np.max(np.abs(omega), axis=1), 1e-300)
    assert np.all(np.max(np.abs(back - omega), axis=1) <= 1e-12 * scale)


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
    minus_b = FormPatch(degree=2, dim=15, entries=lambda s: -b_form(s), partials=lambda s: -b_form.partial_tensor(s))
    back = gauge_transform(gauge_transform(pi, b_form), minus_b)
    assert np.max(np.abs(back.matrix(state) - pi.matrix(state))) <= 1e-10


@settings(PROPERTY, max_examples=40)
@given(body=bodies, states=full_stacks)
def test_gauge_changes_the_jacobiator_by_minus_dB(body, states):
    """The gauge identity on the full space: with M = E + B P, the Jacobiator
    of P^B = P M^{-1} twisted by -dB is the Jacobiator of P with each slot
    carried by M^{-1}, sum J_P[i,j,k] M^{-1}[i,a] M^{-1}[j,b] M^{-1}[k,c].
    -dB is assembled from B's closed-form partials, so the two sides agree
    to round-off of the terms the Jacobiator sums, |P^B| |dP^B| (with +dB,
    or with M^{-T}, they differ at O(1))."""
    pi = nh_bracket_full(body, "plain")
    b_form = gauge_form_on_M(body)
    gauged = gauge_transform(pi, b_form)

    def minus_db(s):
        return -fd_exterior_derivative(b_form, s)

    # jacobi_tensor reads only the entries of the twist
    twist = FormPatch(degree=3, dim=15, entries=minus_db, partials=lambda s: fd_partials(minus_db, s))
    m_inv = np.linalg.inv(np.eye(15) + b_form(states) @ pi.matrix(states))
    expected = np.einsum("nijk,nia,njb,nkc->nabc", jacobi_tensor(pi, states), m_inv, m_inv, m_inv, optimize=True)
    got = jacobi_tensor(gauged, states, twist)
    p, dp = gauged.matrix_and_partials(states)
    assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(p)) * np.max(np.abs(dp)))


@settings(PROPERTY, max_examples=40)
@given(body=bodies, state=full_states)
def test_gauge_partials_match_fd(body, state):
    """The closed-form partials of B and the jet of the gauged bracket
    against the finite-difference oracle, relative to their size."""
    b_form = gauge_form_on_M(body)
    gauged = gauge_transform(nh_bracket_full(body, "plain"), b_form)
    for exact, fd in ((b_form.partial_tensor(state), fd_partials(b_form, state)),
                      (gauged.partial_tensor(state), fd_partials(gauged.matrix, state))):
        assert np.max(np.abs(exact - fd)) <= 1e-8 * max(1.0, np.max(np.abs(exact)))


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
    gauged = gauge_transform(nh_bracket_full(body, "plain"), gauge_form_on_M(body))
    jet, rows = gauged.matrix_and_partials(states), [gauged.matrix_and_partials(s) for s in states]
    assert _rows_equal(jet[0], [r[0] for r in rows]) and _rows_equal(jet[1], [r[1] for r in rows])
    assert _rows_equal(jet[0], g)


@settings(PROPERTY, max_examples=60)
@given(body=bodies, reduced=reduced_stacks, full=full_stacks, variant=variants)
def test_stacked_forms_equal_rows(body, reduced, full, variant):
    forms = [(gauge_form_on_M(body), full), (annihilator_one_form(body, variant), reduced)]
    if poisson_variant(body.rank) is None:
        forms += [(twist_two_form(body), reduced), (twist_three_form(body), reduced)]
    if body.rank == 2:
        forms.append((leafwise_two_form(body), reduced))
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


@PROPERTY
@given(states=reduced_stacks, i=st.integers(0, 5))
@example(states=np.random.default_rng(4).uniform(-1.0, 1.0, (4, 6)), i=2)
def test_stacked_coordinate_fields_equal_rows(states, i):
    field = coordinate_field(6, i)
    assert _rows_equal(field(states), [field(s) for s in states])
    assert _rows_equal(field.grad(states), [field.grad(s) for s in states])


# ------------------------------------------------------------------ stepper


def _list_rk4_step(f, y, dt):
    """The list-comprehension RK4 step that the straight-line step replaced."""
    h = 0.5 * dt
    k1 = f(y)
    k2 = f([a + h * b for a, b in zip(y, k1)])
    k3 = f([a + h * b for a, b in zip(y, k2)])
    k4 = f([a + dt * b for a, b in zip(y, k3)])
    c = dt / 6.0
    return [a + c * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]


def _polynomial_field(seed: int, dim: int, quadratic: bool):
    """y -> b + A y (+ the quadratic terms y_j Q_jk y_k) on Python floats, and
    the list of arguments it was called with."""
    rng = np.random.default_rng(seed)
    b, a, q = (rng.normal(size=(dim,) * n).tolist() for n in (1, 2, 3))
    q = q if quadratic else None
    seen = []

    def f(y):
        seen.append(list(y))
        out = [b_i + sum(x * y_j for x, y_j in zip(row, y)) for b_i, row in zip(b, a)]
        if q is not None:
            out = [o + sum(y_j * sum(x * y_k for x, y_k in zip(row, y)) for y_j, row in zip(y, q_i))
                   for o, q_i in zip(out, q)]
        return tuple(out)

    return f, seen


@settings(PROPERTY, max_examples=300)
@given(
    dim=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
    dt=_floats(1e-6, 1.0),
    quadratic=st.booleans(),
)
def test_rk4_step_equals_list_oracle(dim, seed, dt, quadratic):
    y = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, dim).tolist()
    f, seen = _polynomial_field(seed, dim, quadratic)
    got = rk4_step(f, y, dt)
    f_oracle, seen_oracle = _polynomial_field(seed, dim, quadratic)
    expected = _list_rk4_step(f_oracle, y, dt)
    assert type(got) is list and got == expected
    assert seen == seen_oracle


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 6, 7, 15])
def test_rk4_step_propagates_field_errors(stage, dim):
    error = DegenerateDenominator("raised by the field")
    calls = []

    def f(y):
        calls.append(y)
        if len(calls) == stage:
            raise error
        return [0.5 * v for v in y]

    with pytest.raises(DegenerateDenominator) as info:
        rk4_step(f, [1.0] * dim, 0.1)
    assert info.value is error and len(calls) == stage
