"""Property tests over random bodies, ranks and states (hypothesis), and
the registry of the stack contract of every public callable.

The example tests elsewhere use two fixed bodies; these draw the body as
well.  Runs are derandomized and keep no example database, so the suite
stays deterministic.
"""

import functools
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaplygin
from chaplygin import (
    RHO_INDEX,
    BodyParams,
    BivectorPatch,
    DegenerateDenominator,
    FormPatch,
    IntegratorConfig,
    K_from_omega,
    ScalarField,
    X_nh_full,
    annihilator_one_form,
    casimir_defect,
    casimir_gamma_norm,
    casimir_kgamma,
    conformal_factor,
    coordinate_field,
    fd_exterior_derivative,
    fd_partials,
    full_hamiltonian_field,
    gauge_form_on_M,
    gauge_matrix,
    gauge_transform,
    hamiltonian_field,
    hamiltonizable_variant,
    hat,
    invariant_density,
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
    sample_full_state,
    sample_reduced_state,
    scale_bivector,
    split_full,
    twist_three_form,
    twist_two_form,
)
from chaplygin import body as body_module
from chaplygin import brackets, dynamics, errors, geometry, rolling, scenario, verify

from conftest import list_rk4_step, standard_body

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
@given(body=bodies, states=st.lists(st.tuples(unit_gammas, momenta), min_size=1, max_size=8))
def test_omega_inverts_the_momentum_map(body, states):
    """At one state and at a stack, relative to the largest |Omega_i| of each state."""
    gamma, omega = map(np.array, zip(*states))
    for g, w in ((gamma[0], omega[0]), (gamma, omega)):
        back = omega_from_K(body, g, K_from_omega(body, g, w))
        assert np.all(np.max(np.abs(back - w), axis=-1) <= 1e-12 * np.maximum(np.max(np.abs(w), axis=-1), 1e-300))


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
@example(  # the Poisson variants' tensor was 0.0 in all 2550 draws that check it; the first
    body=BodyParams((0.99999, 2.0, 1.1901390095671374), 3.0, 1.801978017052929, 3, -1.7148282165150435),
    state=np.array([-0.6064018115391446, 1.098257967282098e-151, -2.2250738585072014e-308, -0.5,
                    1.7297006817460492e-261, -0.6584212822182129]),
    variant="primed",
)
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
@example(  # the worst of 8000 draws, 1.92e-13
    body=BodyParams((0.10000000000000002, 8.192250626880728, 1.9546688058913035), 10.0, 1.9243571803810142, 0,
                    0.10000000000000002),
    state=pack_full(random_rotation(np.random.default_rng(558)),
                    *[[-0.7916664030257738, -1.3461674742853288e-230, -0.6062396638715656]] * 2),
)
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
    or with M^{-T}, they differ at O(1)).  The jet's matrix is gauge_matrix's."""
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
    assert np.array_equal(p, gauge_matrix(pi.matrix(states), b_form(states)))
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
@example(  # the worst of 8000 draws, 2.84e-14
    body=BodyParams((0.5881344376578812, 0.1, 0.1), 3.635139857729753, 1.812287745075937, 2, 0.40952728342486067),
    state=pack_full(random_rotation(np.random.default_rng(2)), *[[0.5881344376578812, -1.0, -0.2273191111797208]] * 2),
    variant="primed",
)
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


# The stack contract: every public callable is in one kind.  STACK: row i of
# the result on a stack (N, d) equals the call on state i bit for bit, or the
# stack raises a named error (errors.py), as a row alone does.  ONE_STATE: a
# stack is a ValueError("<message>, got shape (N, d)") and one state works.
# NO_STATE: why it takes no state.  An entry is called with the callable its
# key names: STACK's as (fn, body, variant, reduced, full), on stacks of as
# many rows or on one state of each; ONE_STATE's as (fn, state).


def _public(name):
    """The public callable a key names: a function or class of the package, or Class.method."""
    return functools.reduce(getattr, name.split("."), chaplygin)


def _fields(body):
    """H and the Casimir fields C1 and C2."""
    return [hamiltonian_field(body), casimir_kgamma(), casimir_gamma_norm()]


def _patches(body, variant, reduced, full):
    """Every bracket, form and field the package builds for the body, each with its states."""
    pi, phi, plain, b_form = (reduced_bracket(body, variant), conformal_factor(body), nh_bracket_full(body),
                              gauge_form_on_M(body))
    twists = [twist_two_form(body), twist_three_form(body)] if poisson_variant(body.rank) is None else []
    on_reduced = [pi, scale_bivector(pi, phi), annihilator_one_form(body, variant), *twists,
                  *([leafwise_two_form(body)] if body.rank == 2 else []), *_fields(body), phi,
                  invariant_density(body), *(coordinate_field(6, i) for i in range(6))]
    on_full = [plain, nh_bracket_full(body, "gauged"), gauge_transform(plain, b_form), b_form,
               full_hamiltonian_field(body), coordinate_field(15, 7)]
    return [(x, reduced) for x in on_reduced] + [(x, full) for x in on_full]


def _each(cls):
    """The entry that calls fn(x, states) for each patch x of the class."""
    return lambda fn, b, v, r, f: [fn(x, s) for x, s in _patches(b, v, r, f) if isinstance(x, cls)]


def _jacobi(fn, b, v, r, f):
    """The Jacobi tensors of every bracket, and of the reduced one twisted by its 3-form."""
    twisted = [fn(reduced_bracket(b, v), r, twist_three_form(b))] if poisson_variant(b.rank) is None else []
    return _each(BivectorPatch)(fn, b, v, r, f) + twisted


def _gauge_and_back(fn, b, v, r, f):
    """The gauge matrix of the full bracket by B, and of that by -B."""
    p, bm = nh_bracket_full(b).matrix(f), gauge_form_on_M(b)(f)
    return [g := fn(p, bm), fn(g, -bm)]


STACK = {name: call for names, call in [
    ("BivectorPatch.matrix BivectorPatch.partial_tensor BivectorPatch.matrix_and_partials", _each(BivectorPatch)),
    ("FormPatch.__call__ FormPatch.partial_tensor fd_exterior_derivative", _each(FormPatch)),
    ("ScalarField.__call__ ScalarField.grad", _each(ScalarField)),
    ("jacobi_tensor", _jacobi),
    ("gauge_matrix", _gauge_and_back),
    ("ham_vf casimir_defect", lambda fn, b, v, r, f: [fn(reduced_bracket(b, v), x, r) for x in _fields(b)]),
    ("fd_partials", lambda fn, b, v, r, f: [fn(x, r) for x in (reduced_bracket(b, v).matrix, hamiltonian_field(b))]),
    ("divergence_defect", lambda fn, b, v, r, f: [fn(b, r, density=d) for d in ("invariant", "uniform")]),
    ("reduction_consistency", lambda fn, b, v, r, f: [fn(b, v, f, i, j) for i, j in ((0, 4), (3, 5), (2, 2))]),
    ("reduction_defect", lambda fn, b, v, r, f: fn(b, v, f)),
    ("K_from_omega omega_from_K omega_jacobians", lambda fn, b, v, r, f: fn(b, r[..., :3], r[..., 3:])),
    ("hamiltonian reduced_vf", lambda fn, b, v, r, f: fn(b, r)),
    ("X_nh_full", lambda fn, b, v, r, f: fn(b, f)),
    ("hat", lambda fn, b, v, r, f: fn(r[..., 3:])),
    ("unhat", lambda fn, b, v, r, f: fn(hat(r[..., 3:]))),
    ("wedge_1_2", lambda fn, b, v, r, f: fn(r, reduced_bracket(b, v).matrix(r))),
    ("split_reduced", lambda fn, b, v, r, f: fn(r)),
    ("split_full project_rho", lambda fn, b, v, r, f: fn(f)),
    ("pack_full", lambda fn, b, v, r, f: [fn(*split_full(f)), fn(f[..., :9], f[..., 9:12], f[..., 12:])]),
] for name in names.split()}
_BODY = standard_body(2)
_PI, _X0, _X3, _RUN = reduced_bracket(_BODY), coordinate_field(6, 0), coordinate_field(6, 3), IntegratorConfig(0.1, 0.2)
_STATE = "expected one 6-dim state"
ONE_STATE = {  # name: (dimension of a state, the error message before ", got shape", the call)
    "BivectorPatch.bracket": (6, _STATE, lambda fn, s: fn(_PI, _X0, _X3, s)),
    "FormPatch.evaluate": (6, _STATE, lambda fn, s: fn(twist_two_form(_BODY), s, *np.eye(6)[[0, 4]])),
    "distribution_probe": (6, _STATE, lambda fn, s: fn(_PI, annihilator_one_form(_BODY), _X0, _X3, s)),
    "jacobiator": (6, _STATE, lambda fn, s: fn(_PI, 0, 1, 3, s)),
    "twisted_defect": (6, _STATE, lambda fn, s: fn(_PI, twist_three_form(_BODY), 0, 1, 3, s)),
    "conformal_jacobiator": (6, _STATE, lambda fn, s: fn(_PI, conformal_factor(_BODY), 0, 1, 3, s)),
    "fd_gradient": (6, _STATE, lambda fn, s: fn(hamiltonian_field(_BODY), s)),
    "lift_reduced_state": (6, "expected one 6-dim reduced state", lambda fn, s: fn(s)),
    "horizontal_lift": (15, "expected one 15-dim full state", lambda fn, s: fn(_BODY, s, np.zeros(6))),
    "integrate": (6, "expected one 6- or 15-dim initial state", lambda fn, s: fn(_BODY, s, _RUN).states),
    "reparametrized_integrate": (6, "expected one 6-dim reduced initial state",
                                 lambda fn, s: fn(_BODY, s, _RUN).states),
    "rk4_step": (6, "expected one state", lambda fn, s: fn(lambda y: [0.5 * v for v in y], s, 0.1)),
}
NO_STATE = {name: why for why, names in {
    "a class; its state methods are entries": "BivectorPatch FormPatch ScalarField",
    "builds a bracket, form or field, whose state methods are entries": (
        "annihilator_one_form casimir_gamma_norm casimir_kgamma conformal_factor coordinate_field "
        "full_hamiltonian_field gauge_form_on_M gauge_transform hamiltonian_field invariant_density "
        "leafwise_two_form nh_bracket_full reduced_bracket scale_bivector twist_three_form twist_two_form"),
    "a record of data": "BodyParams IntegratorConfig Scenario Trajectory",
    "reads a rank or a body": "hamiltonizable_variant poisson_variant matrix_A",
    "reads a Trajectory": "hermite_sample invariant_drift monitor_series",
    "reads a file or a dict": "load_scenario scenario_from_dict series_drift",
    "draws from a seed (stacked draws: test_stacked_draw_equals_single_draws)":
        "random_rotation sample_full_state sample_reduced_state run_suite run_all_suites",
    "reads a sequence of states, one report each": "dynamical_gauge_check",
}.items() for name in names.split()}


def test_every_public_callable_is_in_one_kind():
    """The callables in the modules' __all__, and the public and call methods of the patch and field classes."""
    public = [n for m in (body_module, brackets, dynamics, geometry, rolling, scenario, verify)
              for n, _ in inspect.getmembers(m, callable) if n in m.__all__] + [
        f"{cls.__name__}.{n}" for cls in (FormPatch, BivectorPatch, ScalarField)
        for n, _ in inspect.getmembers(cls, inspect.isfunction) if not n.startswith("_") or n == "__call__"]
    listed = [*STACK, *ONE_STATE, *NO_STATE]
    assert sorted(set(public) ^ set(listed)) == [] and len(listed) == len(set(listed))


def _rows_equal(stacked, rows) -> bool:
    """Whether row i of a stacked result (an array, or a list or tuple of them) equals rows[i] bit for bit."""
    if isinstance(stacked, (list, tuple)):
        return all(map(_rows_equal, stacked, zip(*rows)))
    return np.shape(stacked)[:1] == (len(rows),) and all(map(np.array_equal, stacked, rows))


# a reduced stack and a full stack of as many rows, the full one drawn from a seed
stacks = st.tuples(reduced_stacks, st.integers(0, 2**32 - 1)).map(lambda p: (p[0], sample_full_state(p[1], len(p[0]))))


@pytest.mark.parametrize("name", sorted(STACK))
@settings(PROPERTY, max_examples=20)
@given(body=bodies, variant=variants, states=stacks)
@example(  # 6 reduced states make a 6 x 6 stack, the shape of one matrix
    body=BodyParams((1.0, 2.0, 3.0), 1.0, 0.5, 2), variant="plain",
    states=(np.random.default_rng(6).uniform(-1.0, 1.0, (6, 6)), sample_full_state(7, 6)),
)
def test_a_stack_gives_its_rows(name, body, variant, states):
    call = functools.partial(STACK[name], _public(name), body, variant)
    try:
        stacked = call(*states)
    except Exception as exc:  # a named error, which a row raises alone too
        assert type(exc).__module__ == errors.__name__, f"bare error on a stack: {exc!r}"
        with pytest.raises(type(exc)):
            [call(*row) for row in zip(*states)]
    else:
        assert _rows_equal(stacked, [call(*row) for row in zip(*states)])


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("name", sorted(ONE_STATE))
def test_a_one_state_function_rejects_a_stack_by_its_shape(name, rows):
    (dim, message, call), fn = ONE_STATE[name], _public(name)
    states = (sample_reduced_state if dim == 6 else sample_full_state)(seed=330, n=rows)
    with pytest.raises(ValueError, match=re.escape(f"{message}, got shape ({rows}, {dim})")):
        call(fn, states)
    assert np.all(np.isfinite(call(fn, states[0])))


# ------------------------------------------------------------------ stepper


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
    expected = list_rk4_step(f_oracle, y, dt)
    assert type(got) is list and got == expected
    assert seen == seen_oracle


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [-1, 1])
def test_rk4_step_rejects_a_field_of_another_length(stage, extra):
    calls = []

    def f(y):
        calls.append(y)
        return [0.5] * (len(y) + (extra if len(calls) == stage else 0))

    with pytest.raises(ValueError):
        rk4_step(f, [1.0] * 6, 0.1)


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
