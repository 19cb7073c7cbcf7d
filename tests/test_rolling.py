"""Rolling-body structures: momentum map, brackets on both spaces, conformal
factors, Casimirs, annihilators, twist forms, gauge forms and reduction."""

import itertools
import math
import re

import numpy as np
import pytest

from chaplygin import (
    AnnihilationViolated,
    FormPatch,
    K_from_omega,
    ScalarField,
    UnsupportedRank,
    X_nh_full,
    annihilator_one_form,
    casimir_defect,
    casimir_gamma_norm,
    casimir_kgamma,
    conformal_factor,
    conformal_jacobiator,
    coordinate_field,
    distribution_probe,
    dynamical_gauge_check,
    fd_partials,
    full_hamiltonian_field,
    gauge_form_on_M,
    gauge_transform,
    ham_vf,
    hamiltonian,
    hamiltonian_field,
    hamiltonizable_variant,
    hat,
    horizontal_lift,
    invariant_density,
    jacobiator,
    leafwise_two_form,
    lift_reduced_state,
    matrix_A,
    nh_bracket_full,
    omega_from_K,
    omega_jacobians,
    pack_full,
    poisson_variant,
    project_rho,
    random_rotation,
    reduced_bracket,
    reduced_vf,
    reduction_consistency,
    sample_full_state,
    sample_reduced_state,
    split_full,
    split_reduced,
    twist_three_form,
    twist_two_form,
    twisted_defect,
    wedge_1_2,
)
from chaplygin.body import FULL_NAMES, REDUCED_NAMES, RHO_INDEX, BodyParams, _pack_reduced
from chaplygin.errors import DegenerateDenominator, NonFiniteState
from chaplygin.geometry import ScalarField

from conftest import VARIANTS, asymmetric_body, standard_body

TRIPLES6 = list(itertools.combinations(range(6), 3))

# variants whose K . gamma is conserved by the bracket (the Hamiltonizable ones)
KG_CASIMIR = {(0, "plain"), (1, "plain"), (2, "primed"), (3, "primed")}


def _random_gamma(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# ------------------------------------------------------------------ parameters


def test_body_params_validation():
    with pytest.raises(UnsupportedRank):
        BodyParams(inertia=(1.0, 2.0, 3.0), mass=1.0, radius=1.0, rank=7)
    with pytest.raises(UnsupportedRank):
        BodyParams(inertia=(1.0, 2.0, 3.0), mass=1.0, radius=1.0, rank=-1)
    with pytest.raises(ValueError):
        BodyParams(inertia=(0.0, 2.0, 3.0), mass=1.0, radius=1.0, rank=2)
    with pytest.raises(ValueError):
        BodyParams(inertia=(1.0, 2.0, 3.0), mass=-1.0, radius=1.0, rank=2)
    for rank in (True, 2.0):
        with pytest.raises(UnsupportedRank):
            BodyParams(inertia=(1.0, 2.0, 3.0), mass=1.0, radius=1.0, rank=rank)
    for bad in (
        {"inertia": (1.0, math.inf, 3.0)},
        {"mass": math.inf},
        {"radius": math.inf},
        {"so2_angle": math.nan},
        {"so2_angle": math.inf},
    ):
        with pytest.raises(ValueError):
            BodyParams(**{"inertia": (1.0, 2.0, 3.0), "mass": 1.0, "radius": 1.0, "rank": 2, **bad})


@pytest.mark.parametrize("rank", range(4))
def test_body_whose_m_r2_overflows_is_rejected(rank):
    """m r^2 = inf made Omega nan (0.0 * inf at rank 0) or zero (rank 3)
    with no error; radius**2 past the float range raised OverflowError on
    first use; I + m r^2 overflows alone in the last case."""
    for inertia, mass, radius in (
        ((1.0, 2.0, 3.0), 1e300, 1e10),
        ((1.0, 2.0, 3.0), 1e-300, 1e200),
        ((1.7e308, 2.0, 3.0), 1.0, 1e154),
    ):
        with pytest.raises(ValueError, match=r"mass \* radius\*\*2 \+ inertia overflows"):
            BodyParams(inertia=inertia, mass=mass, radius=radius, rank=rank)
    assert BodyParams(inertia=(1.0, 2.0, 3.0), mass=1e300, radius=1e4, rank=rank).mr2 == 1e308


def test_mr2_property():
    assert asymmetric_body(2).mr2 == pytest.approx(1.4 * 0.36)


def test_matrix_a_shapes():
    c = np.array([[0.0, 1.0], [-1.0, 0.0]])  # SO(2) block at the default angle
    a3 = matrix_A(standard_body(3))
    assert np.allclose(a3[:2, :2], c, atol=1e-15)
    assert a3[2, 2] == 1.0 and np.all(a3[2, :2] == 0.0) and np.all(a3[:2, 2] == 0.0)
    a2 = matrix_A(standard_body(2))
    assert np.allclose(a2[:2, :2], c, atol=1e-15)
    assert np.all(a2[2, :] == 0.0) and np.all(a2[:, 2] == 0.0)
    a1 = matrix_A(standard_body(1))
    e3 = np.zeros((3, 3))
    e3[2, 2] = 1.0
    assert np.array_equal(a1, e3)
    assert np.array_equal(matrix_A(standard_body(0)), np.zeros((3, 3)))


def test_ata_independent_of_angle(rank):
    expected = {
        0: np.zeros((3, 3)),
        1: np.diag([0.0, 0.0, 1.0]),
        2: np.diag([1.0, 1.0, 0.0]),
        3: np.eye(3),
    }[rank]
    for angle in (-0.5 * np.pi, 0.7, 2.1):
        body = BodyParams(inertia=(1.0, 2.0, 3.0), mass=1.0, radius=1.0, rank=rank, so2_angle=angle)
        a = matrix_A(body)
        assert np.max(np.abs(a.T @ a - expected)) <= 1e-15


# ---------------------------------------------------------------- momentum map


@pytest.mark.parametrize("factory", [standard_body, asymmetric_body])
def test_omega_round_trip(rank, factory):
    body = factory(rank)
    rng = np.random.default_rng(rank)
    worst = 0.0
    for _ in range(200):
        gamma = _random_gamma(rng)
        omega = rng.standard_normal(3)
        k = K_from_omega(body, gamma, omega)
        worst = max(worst, np.max(np.abs(omega_from_K(body, gamma, k) - omega)))
    assert worst <= 1e-12


def test_omega_matches_direct_linear_solve(rank):
    body = asymmetric_body(rank)
    rng = np.random.default_rng(10 + rank)
    for _ in range(20):
        gamma = _random_gamma(rng)
        m = np.column_stack([K_from_omega(body, gamma, e) for e in np.eye(3)])
        k = rng.standard_normal(3)
        direct = np.linalg.solve(m, k)
        assert np.max(np.abs(omega_from_K(body, gamma, k) - direct)) <= 1e-10


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _omega_row(body, gamma, k):
    """omega_from_K for one state on Python floats, every sum taken left to
    right: the reference rounding."""
    gamma, k, mr2 = gamma.tolist(), k.tolist(), body.mr2
    n = [float(i) for i in body.inertia]
    if body.rank in (2, 3):
        n = [i + mr2 for i in n]
    if body.rank in (0, 3):
        return np.array([a / b for a, b in zip(k, n)])
    u = [a / b for a, b in zip(gamma, n)]
    if body.rank == 2:
        c = _dot(k, u) / (_dot(gamma, gamma) - mr2 * _dot(gamma, u))
        return np.array([a / b + mr2 * c * v for a, b, v in zip(k, n, u)])
    c = _dot(k, u) / (_dot(gamma, gamma) + mr2 * _dot(gamma, u))
    return np.array([a / b - mr2 * c * v for a, b, v in zip(k, n, u)])


@pytest.mark.parametrize("factory", [standard_body, asymmetric_body])
def test_omega_batched_equals_row_calls(rank, factory):
    body = factory(rank)
    rng = np.random.default_rng(15 + rank)
    gamma = np.array([_random_gamma(rng) for _ in range(300)]) * rng.uniform(0.5, 2.0, (300, 1))
    k = rng.standard_normal((300, 3)) * rng.uniform(0.01, 100.0, (300, 1))
    oracle = [_omega_row(body, g, kk) for g, kk in zip(gamma, k)]
    assert np.array_equal(omega_from_K(body, gamma, k), oracle)
    assert np.array_equal([omega_from_K(body, g, kk) for g, kk in zip(gamma, k)], oracle)


@pytest.mark.parametrize("rank_d", [1, 2])
def test_omega_batched_raises_on_one_degenerate_row(rank_d):
    body = standard_body(rank_d)
    gamma = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    k = np.full((3, 3), 0.5)
    with pytest.raises(DegenerateDenominator):
        omega_from_K(body, gamma, k)
    with pytest.raises(DegenerateDenominator):
        omega_from_K(body, gamma[1], k[1])
    assert np.all(np.isfinite(omega_from_K(body, gamma[[0, 2]], k[[0, 2]])))


@pytest.mark.parametrize("rank_d", [1, 2])
def test_omega_raises_when_gamma_squared_overflows(rank_d):
    # Omega is invariant under scaling gamma; past |gamma|^2 = inf the
    # correction term would vanish and leave K / n, so that raises instead
    body = standard_body(rank_d)
    gamma, k = np.array([0.6, 0.0, 0.8]), np.array([1.0, 1.0, 1.0])
    expected = omega_from_K(body, gamma, k)
    assert np.max(np.abs(omega_from_K(body, 1e150 * gamma, k) - expected)) <= 1e-15
    with pytest.raises(NonFiniteState):
        omega_from_K(body, 1e160 * gamma, k)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState):
        omega_from_K(body, np.array([gamma, 1e160 * gamma]), np.array([k, k]))


@pytest.mark.parametrize("rank_d", [1, 2])
def test_measure_terms_raise_at_zero_gamma(rank_d):
    body = standard_body(rank_d)
    zero = np.array([0.0, 0.0, 0.0, 0.3, -0.1, 0.2])
    with pytest.raises(DegenerateDenominator):
        omega_jacobians(body, zero[:3], zero[3:])
    with pytest.raises(DegenerateDenominator):
        conformal_factor(body).grad(zero)
    mu = invariant_density(body)
    with pytest.raises(DegenerateDenominator):
        mu(zero)
    with pytest.raises(DegenerateDenominator):
        mu.grad(zero)
    # NaN states pass through, so the integrator can report NonFiniteState
    nan = np.full(6, np.nan)
    assert np.all(np.isnan(omega_jacobians(body, nan[:3], nan[3:])[0]))
    assert np.all(np.isnan(mu.grad(nan)))


def test_omega_jacobians_match_fd(rank):
    body = asymmetric_body(rank)
    rng = np.random.default_rng(20 + rank)
    gamma, k = _random_gamma(rng), rng.standard_normal(3)
    d_gamma, d_k = omega_jacobians(body, gamma, k)
    fd_g = fd_partials(lambda g: omega_from_K(body, g, k), gamma)  # [l, i]
    fd_k = fd_partials(lambda kk: omega_from_K(body, gamma, kk), k)
    assert np.max(np.abs(d_gamma.T - fd_g)) <= 1e-6
    assert np.max(np.abs(d_k.T - fd_k)) <= 1e-6


# ----------------------------------------------------------------- Hamiltonian


def test_hamiltonian_free_body_value():
    body = standard_body(0)
    state = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 3.0])
    assert hamiltonian(body, state) == pytest.approx(3.0, abs=1e-14)


def test_hamiltonian_nonnegative(rank):
    body = standard_body(rank)
    rng = np.random.default_rng(30 + rank)
    for _ in range(1000):
        s = sample_reduced_state(seed=rng)
        assert hamiltonian(body, s) >= -1e-12


def test_hamiltonian_halved_pairing(rank):
    body = asymmetric_body(rank)
    rng = np.random.default_rng(40 + rank)
    for _ in range(50):
        gamma = _random_gamma(rng)
        omega = rng.standard_normal(3)
        k = K_from_omega(body, gamma, omega)
        state = np.concatenate([gamma, k])
        assert hamiltonian(body, state) == pytest.approx(0.5 * float(omega @ k), abs=1e-12)


def test_hamiltonian_field_gradient(rank):
    from chaplygin import fd_gradient

    body = asymmetric_body(rank)
    h = hamiltonian_field(body)
    s = sample_reduced_state(seed=50 + rank)
    assert h(s) == hamiltonian(body, s)
    assert np.max(np.abs(h.grad(s) - fd_gradient(lambda x: hamiltonian(body, x), s))) <= 1e-6


# --------------------------------------------------------------- reduced field


def test_reduced_vf_equilibrium(rank):
    body = standard_body(rank)
    state = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.7])
    assert np.all(reduced_vf(body, state) == 0.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_reduced_vf_is_bracket_flow(rank, variant):
    body = asymmetric_body(rank)
    pi = reduced_bracket(body, variant)
    h = hamiltonian_field(body)
    for seed in range(5):
        s = sample_reduced_state(seed=60 + seed)
        assert np.max(np.abs(reduced_vf(body, s) + ham_vf(pi, h, s))) <= 1e-10


@pytest.mark.parametrize("factory", [standard_body, asymmetric_body])
def test_reduced_vf_equals_np_cross(rank, factory):
    body = factory(rank)
    rng = np.random.default_rng(75 + rank)
    for _ in range(200):
        s = sample_reduced_state(seed=rng)
        s[3:] *= rng.uniform(0.01, 100.0)
        gamma, k = split_reduced(s)
        omega = omega_from_K(body, gamma, k)
        expected = np.concatenate([np.cross(gamma, omega), np.cross(k, omega)])
        assert np.array_equal(reduced_vf(body, s), expected)


def test_reduced_vf_orthogonality(rank):
    body = asymmetric_body(rank)
    for seed in range(10):
        s = sample_reduced_state(seed=70 + seed)
        gamma, k = split_reduced(s)
        dot = reduced_vf(body, s)
        assert abs(float(dot[:3] @ gamma)) <= 1e-14
        assert abs(float(dot[3:] @ k)) <= 1e-14


def test_reduced_vf_conserves_monitors(rank):
    body = standard_body(rank)
    h = hamiltonian_field(body)
    f_field = ScalarField(
        value=lambda s: float(s[3:] @ s[3:]),
        gradient=lambda s: np.concatenate([np.zeros(3), 2.0 * s[3:]]),
    )
    fields = [h, casimir_kgamma(), casimir_gamma_norm(), f_field]
    for seed in range(10):
        s = sample_reduced_state(seed=80 + seed)
        vf = reduced_vf(body, s)
        for fld in fields:
            assert abs(float(fld.grad(s) @ vf)) <= 1e-10


# -------------------------------------------------------------- reduced bracket


def test_reduced_bracket_gamma_k_block():
    body = standard_body(2)
    pi = reduced_bracket(body, "plain")
    state = np.array([0.0, 0.0, 1.0, 0.3, -0.2, 0.5])
    m = pi.matrix(state)
    assert m[0, 4] == -1.0  # {gamma_1, K_2} at gamma = e3
    s = sample_reduced_state(seed=90)
    m = pi.matrix(s)
    assert np.array_equal(m[:3, :3], np.zeros((3, 3)))
    assert np.array_equal(m[:3, 3:], hat(s[:3]))
    assert np.array_equal(m[3:, :3], hat(s[:3]))


@pytest.mark.parametrize("variant", VARIANTS)
def test_reduced_bracket_kk_block_momentum_shift(rank, variant):
    """The K-K block is hat(V) with V = K + mr^2 (a Omega + b (Omega.gamma) gamma)."""
    coeffs = {
        (0, "plain"): (0.0, 0.0),
        (0, "primed"): (-1.0, 0.0),
        (1, "plain"): (0.0, 1.0),
        (1, "primed"): (-1.0, 1.0),
        (2, "plain"): (1.0, -1.0),
        (2, "primed"): (0.0, -1.0),
        (3, "plain"): (1.0, 0.0),
        (3, "primed"): (0.0, 0.0),
    }
    a, b = coeffs[(rank, variant)]
    body = asymmetric_body(rank)
    pi = reduced_bracket(body, variant)
    for seed in range(5):
        s = sample_reduced_state(seed=100 + seed)
        gamma, k = split_reduced(s)
        omega = omega_from_K(body, gamma, k)
        v = k + body.mr2 * (a * omega + b * float(omega @ gamma) * gamma)
        assert np.max(np.abs(pi.matrix(s)[3:, 3:] - hat(v))) <= 1e-13


def test_free_body_and_primed_coupled_brackets_coincide():
    pi0 = reduced_bracket(standard_body(0), "plain")
    pi3 = reduced_bracket(standard_body(3), "primed")
    for seed in range(5):
        s = sample_reduced_state(seed=110 + seed)
        assert np.array_equal(pi0.matrix(s), pi3.matrix(s))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("factory", [standard_body, asymmetric_body])
def test_reduced_bracket_partials_match_fd(rank, variant, factory):
    pi = reduced_bracket(factory(rank), variant)
    for seed in range(2):
        s = sample_reduced_state(seed=120 + seed)
        fd = fd_partials(pi.matrix, s)
        assert np.max(np.abs(pi.partial_tensor(s) - fd)) <= 1e-6


def test_hamiltonian_fields_lie_in_bracket_range(rank):
    body = standard_body(rank)
    pi = reduced_bracket(body, hamiltonizable_variant(rank))
    fields = [hamiltonian_field(body), coordinate_field(6, 0), coordinate_field(6, 4)]
    for seed in range(5):
        s = sample_reduced_state(seed=130 + seed)
        m = pi.matrix(s)
        for fld in fields:
            x = ham_vf(pi, fld, s)
            sol, *_ = np.linalg.lstsq(m, x, rcond=None)
            assert np.max(np.abs(m @ sol - x)) <= 1e-10


def test_coupled_bracket_coordinate_fields_closed_form():
    """-ham_vf of gamma_1 and K_1 on the rank-3 plain bracket is explicit:
    X_{K_1} = gamma_3 d/dgamma_2 - gamma_2 d/dgamma_3 + V_3 d/dK_2 - V_2 d/dK_3
    with V = K + mr^2 Omega, and X_{gamma_1} = gamma_3 d/dK_2 - gamma_2 d/dK_3."""
    body = standard_body(3)
    pi = reduced_bracket(body, "plain")
    states = [np.array([0.0, 1.0, 0.0, 0.3, -0.1, 0.4])]
    states += [sample_reduced_state(seed=140 + i) for i in range(5)]
    for s in states:
        gamma, k = split_reduced(s)
        v = k + body.mr2 * omega_from_K(body, gamma, k)
        x_k1 = np.array([0.0, gamma[2], -gamma[1], 0.0, v[2], -v[1]])
        x_g1 = np.array([0.0, 0.0, 0.0, 0.0, gamma[2], -gamma[1]])
        assert np.max(np.abs(-ham_vf(pi, coordinate_field(6, 3), s) - x_k1)) <= 1e-12
        assert np.max(np.abs(-ham_vf(pi, coordinate_field(6, 0), s) - x_g1)) <= 1e-12


def test_jacobi_identity_table():
    def max_jacobiator(pi, n_states, seed0):
        worst = 0.0
        for seed in range(n_states):
            s = sample_reduced_state(seed=seed0 + seed)
            for a, b, c in TRIPLES6:
                worst = max(worst, abs(jacobiator(pi, a, b, c, s)))
        return worst

    # genuinely Poisson: free body plain, coupled primed
    assert max_jacobiator(reduced_bracket(standard_body(0), "plain"), 10, 200) <= 1e-14
    assert max_jacobiator(reduced_bracket(standard_body(3), "primed"), 10, 200) <= 1e-14
    # everything else fails Jacobi by a visible margin
    assert max_jacobiator(reduced_bracket(standard_body(3), "plain"), 10, 200) > 1e-3
    assert max_jacobiator(reduced_bracket(standard_body(0), "primed"), 10, 200) > 1e-3
    for rank in (1, 2):
        for variant in VARIANTS:
            assert max_jacobiator(reduced_bracket(standard_body(rank), variant), 10, 200) > 1e-3


# ----------------------------------------------------- conformal factor, measure


def test_conformal_factor_reference_values():
    body2 = standard_body(2)
    s = np.array([1.0, 0.0, 0.0, 0.1, 0.2, 0.3])
    assert conformal_factor(body2)(s) == pytest.approx(np.sqrt(0.5), abs=1e-14)
    body1 = standard_body(1)
    s3 = np.array([0.0, 0.0, 1.0, 0.1, 0.2, 0.3])
    assert conformal_factor(body1)(s3) == pytest.approx(np.sqrt(1.0 + 1.0 / 3.0), abs=1e-14)


def test_conformal_factor_trivial_for_poisson_ranks():
    for rank in (0, 3):
        phi = conformal_factor(standard_body(rank))
        for seed in range(5):
            s = sample_reduced_state(seed=140 + seed)
            assert phi(s) == 1.0
            assert np.all(phi.grad(s) == 0.0)


def test_conformal_factor_positive_and_smooth(rank):
    from chaplygin import fd_gradient

    body = asymmetric_body(rank)
    phi = conformal_factor(body)
    mu = invariant_density(body)
    for seed in range(20):
        s = sample_reduced_state(seed=150 + seed)
        val = phi(s)
        assert val > 0.0
        assert mu(s) == pytest.approx(1.0 / val, rel=1e-14)
        assert np.max(np.abs(phi.grad(s) - fd_gradient(phi, s))) <= 1e-6
        assert np.max(np.abs(mu.grad(s) - fd_gradient(mu, s))) <= 1e-6


@pytest.mark.parametrize("factory", [standard_body, asymmetric_body])
@pytest.mark.parametrize("rank_c", [1, 2])
def test_conformal_factor_is_the_root_of_the_omega_denominator(rank_c, factory):
    """phi = sqrt(den) bit for bit, den the Sherman-Morrison denominator the
    omega kernel returns, at one state and at each row of a stack (gamma off
    the unit sphere too)."""
    body = factory(rank_c)
    phi, omega = conformal_factor(body), body._kernels.omega
    states = sample_reduced_state(seed=170, n=8)
    states[4:, :3] *= 1.3

    def root(s):
        return math.sqrt(omega(s[:3].tolist(), s[3:].tolist())[2])

    assert phi(states[0]) == root(states[0])
    assert np.array_equal(phi(states), [root(s) for s in states])


@pytest.mark.parametrize("factory", [standard_body, asymmetric_body])
@pytest.mark.parametrize("rank_c", [1, 2])
def test_conformal_factor_gradient_matches_fd_off_the_sphere(rank_c, factory):
    from chaplygin import fd_gradient

    phi = conformal_factor(factory(rank_c))
    for seed in range(10):
        s = sample_reduced_state(seed=180 + seed)
        s[:3] *= 1.3
        assert np.max(np.abs(phi.grad(s) - fd_gradient(phi, s))) <= 1e-6


@pytest.mark.parametrize("rank_c", [1, 2])
@pytest.mark.parametrize(
    "gamma, error",
    [((0.0, 0.0, 0.0), DegenerateDenominator), ((6e159, 0.0, 8e159), NonFiniteState),
     ((1e-200, 0.0, 0.0), DegenerateDenominator)],
    ids=["zero", "overflow", "underflow"],
)
def test_conformal_factor_raises_as_the_omega_kernel(rank_c, gamma, error):
    """Where den degenerates or |gamma|^2 overflows or underflows, phi and its
    gradient raise the named error of omega_from_K, alone and in a stack,
    and no numpy warning."""
    phi = conformal_factor(standard_body(rank_c))
    state = np.array([*gamma, 0.3, -0.1, 0.2])
    stack = np.array([sample_reduced_state(seed=190), state])
    for s in (state, stack):
        with pytest.raises(error):
            phi(s)
        with pytest.raises(error):
            phi.grad(s)


@pytest.mark.parametrize("rank_c", [1, 2])
def test_conformal_rescaling_restores_jacobi(rank_c):
    body = standard_body(rank_c)
    pi = reduced_bracket(body, hamiltonizable_variant(rank_c))
    phi = conformal_factor(body)
    worst = 0.0
    for seed in range(5):
        s = sample_reduced_state(seed=160 + seed)
        for a, b, c in TRIPLES6:
            worst = max(worst, abs(conformal_jacobiator(pi, phi, a, b, c, s)))
    assert worst <= 1e-9


# -------------------------------------------------------------------- Casimirs


@pytest.mark.parametrize("variant", VARIANTS)
def test_gamma_norm_is_always_casimir(rank, variant):
    pi = reduced_bracket(standard_body(rank), variant)
    c2 = casimir_gamma_norm()
    for seed in range(10):
        s = sample_reduced_state(seed=170 + seed)
        assert casimir_defect(pi, c2, s) <= 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_k_gamma_casimir_table(rank, variant):
    pi = reduced_bracket(standard_body(rank), variant)
    c1 = casimir_kgamma()
    worst = 0.0
    for seed in range(10):
        s = sample_reduced_state(seed=180 + seed)
        worst = max(worst, casimir_defect(pi, c1, s))
    if (rank, variant) in KG_CASIMIR:
        assert worst <= 1e-12
    else:
        assert worst > 1e-3


def test_casimir_field_gradients():
    s = sample_reduced_state(seed=190)
    gamma, k = split_reduced(s)
    assert np.array_equal(casimir_kgamma().grad(s), np.concatenate([k, gamma]))
    assert np.array_equal(casimir_gamma_norm().grad(s), np.concatenate([2.0 * gamma, np.zeros(3)]))


# --------------------------------------------------- annihilator and the probe


@pytest.mark.parametrize("variant", VARIANTS)
def test_annihilator_kills_bracket_fields(rank, variant):
    body = asymmetric_body(rank)
    pi = reduced_bracket(body, variant)
    chi = annihilator_one_form(body, variant)
    fields = [hamiltonian_field(body)] + [coordinate_field(6, i) for i in range(6)]
    for seed in range(5):
        s = sample_reduced_state(seed=200 + seed)
        row = chi(s)
        for fld in fields:
            assert abs(float(row @ ham_vf(pi, fld, s))) <= 1e-10


@pytest.mark.parametrize("variant", VARIANTS)
def test_annihilator_partials_match_fd(rank, variant):
    body = standard_body(rank)
    chi = annihilator_one_form(body, variant)
    s = sample_reduced_state(seed=210 + rank)
    fd = fd_partials(chi.entries, s)
    assert np.max(np.abs(chi.partial_tensor(s) - fd)) <= 1e-6


def test_probe_closed_form_for_coupled_plain_bracket():
    body = standard_body(3)
    pi = reduced_bracket(body, "plain")
    chi = annihilator_one_form(body, "plain")
    f, g = coordinate_field(6, 0), coordinate_field(6, 3)
    i1, i2, i3 = body.inertia
    mr2 = body.mr2

    def witness(gamma):
        return -mr2 * (gamma[2] ** 2 / (i2 + mr2) + gamma[1] ** 2 / (i3 + mr2))

    # displayed value at the reference configuration
    s0 = np.array([0.0, 1.0, 0.0, 0.3, -0.1, 0.4])
    assert distribution_probe(pi, chi, f, g, s0) == pytest.approx(-0.25, abs=1e-12)
    # the closed form holds at every unit gamma and is K-independent
    rng = np.random.default_rng(220)
    for _ in range(20):
        gamma = _random_gamma(rng)
        s = np.concatenate([gamma, rng.uniform(-1, 1, 3)])
        assert distribution_probe(pi, chi, f, g, s) == pytest.approx(witness(gamma), abs=1e-8)
    gamma = _random_gamma(rng)
    sa = np.concatenate([gamma, rng.uniform(-1, 1, 3)])
    sb = np.concatenate([gamma, rng.uniform(-1, 1, 3)])
    assert distribution_probe(pi, chi, f, g, sa) == pytest.approx(
        distribution_probe(pi, chi, f, g, sb), abs=1e-12
    )


@pytest.mark.parametrize(
    "rank_v,variant", [(2, "plain"), (1, "primed"), (0, "primed")]
)
def test_probe_detects_nonintegrable_annihilators(rank_v, variant):
    body = standard_body(rank_v)
    pi = reduced_bracket(body, variant)
    chi = annihilator_one_form(body, variant)
    pairs = [(0, 3), (1, 4), (0, 4), (2, 5)]
    worst = 0.0
    rng = np.random.default_rng(230)
    for _ in range(20):
        s = sample_reduced_state(seed=rng)
        for a, b in pairs:
            worst = max(
                worst,
                abs(distribution_probe(pi, chi, coordinate_field(6, a), coordinate_field(6, b), s)),
            )
    assert worst > 1e-3


def test_probe_rejects_nonannihilating_one_form():
    body = standard_body(3)
    pi = reduced_bracket(body, "plain")
    bad = FormPatch(degree=1, dim=6, entries=lambda s: np.eye(6)[0], partials=lambda s: np.zeros((6, 6)))
    s = sample_reduced_state(seed=240)
    with pytest.raises(AnnihilationViolated):
        distribution_probe(pi, bad, coordinate_field(6, 4), coordinate_field(6, 5), s)


# ------------------------------------------------------------------ twist forms


@pytest.mark.parametrize("rank_t", [1, 2])
def test_twist_two_form_structure(rank_t):
    body = asymmetric_body(rank_t)
    b = twist_two_form(body)
    rng = np.random.default_rng(250)
    s = sample_reduced_state(seed=rng)
    m = b(s)
    assert np.max(np.abs(m + m.T)) == 0.0
    assert np.all(m[3:, :] == 0.0) and np.all(m[:, 3:] == 0.0)
    # vanishes at rest
    rest = np.concatenate([s[:3], np.zeros(3)])
    assert np.all(b(rest) == 0.0)
    # pairing of sphere tangents
    gamma, k = split_reduced(s)
    omega = omega_from_K(body, gamma, k)
    for _ in range(5):
        u3, v3 = rng.standard_normal(3), rng.standard_normal(3)
        u = np.concatenate([u3, np.zeros(3)])
        v = np.concatenate([v3, np.zeros(3)])
        expected = body.mr2 * float(omega @ gamma) * float(gamma @ np.cross(u3, v3))
        assert b.evaluate(s, u, v) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("rank_t", [1, 2])
def test_twist_two_form_partials_match_fd(rank_t):
    body = standard_body(rank_t)
    b = twist_two_form(body)
    s = sample_reduced_state(seed=260 + rank_t)
    fd = fd_partials(b.entries, s)
    assert np.max(np.abs(b.partial_tensor(s) - fd)) <= 1e-6


def test_twist_forms_require_coupled_nonholonomic_rank():
    for rank in (0, 3):
        with pytest.raises(UnsupportedRank):
            twist_two_form(standard_body(rank))
        with pytest.raises(UnsupportedRank):
            twist_three_form(standard_body(rank))


@pytest.mark.parametrize(
    "rank_t,variant", [(2, "primed"), (1, "plain")]
)
def test_twist_three_form_closes_the_jacobiator(rank_t, variant):
    body = standard_body(rank_t)
    pi = reduced_bracket(body, variant)
    phi = twist_three_form(body)
    worst = 0.0
    for seed in range(5):
        s = sample_reduced_state(seed=270 + seed)
        for a, b, c in TRIPLES6:
            worst = max(worst, abs(twisted_defect(pi, phi, a, b, c, s)))
    assert worst <= 1e-10


@pytest.mark.parametrize("rank_t", [1, 2])
def test_twist_three_form_is_closed(rank_t):
    from chaplygin import fd_exterior_derivative

    body = standard_body(rank_t)
    phi = twist_three_form(body)
    # the nested route: differences of the entries, themselves dB from B's partials
    nested_fd = FormPatch(degree=3, dim=6, entries=phi.entries, partials=lambda s: fd_partials(phi.entries, s))
    for seed in range(2):
        s = sample_reduced_state(seed=280 + seed)
        assert np.max(np.abs(fd_exterior_derivative(phi, s))) <= 1e-14
        assert np.max(np.abs(fd_exterior_derivative(nested_fd, s))) <= 1e-5


@pytest.mark.parametrize("scale", [1.0, 1.3], ids=["on-sphere", "off-sphere"])
@pytest.mark.parametrize("factory", [standard_body, asymmetric_body])
@pytest.mark.parametrize("rank_t", [1, 2])
def test_twist_three_form_partials_match_fd(rank_t, factory, scale):
    phi = twist_three_form(factory(rank_t))
    for seed in range(3):
        s = sample_reduced_state(seed=285 + seed)
        s[:3] *= scale
        assert np.max(np.abs(phi.partial_tensor(s) - fd_partials(phi.__call__, s))) <= 1e-6


@pytest.mark.parametrize("rank_t", [1, 2])
def test_twist_three_form_partials_check_the_denominator(rank_t):
    phi = twist_three_form(standard_body(rank_t))
    with pytest.raises(DegenerateDenominator):
        phi.partial_tensor(np.array([0.0, 0.0, 0.0, 0.3, -0.1, 0.2]))
    with pytest.raises(NonFiniteState):
        phi.partial_tensor(np.array([6e159, 0.0, 8e159, 1.0, 1.0, 1.0]))


def test_leafwise_factorization_of_the_twist():
    """On the bracket's characteristic directions the 3-form factors as
    (d phi / phi) wedge the leaf area form."""
    body = standard_body(2)
    pi = reduced_bracket(body, "primed")
    phi_form = twist_three_form(body)
    factor = conformal_factor(body)
    leaf = leafwise_two_form(body)
    for seed in range(5):
        s = sample_reduced_state(seed=290 + seed)
        alpha = factor.grad(s) / factor(s)
        wedge = wedge_1_2(alpha, leaf(s))
        diff = phi_form(s) - wedge
        cols = pi.matrix(s)
        worst = 0.0
        for a, b, c in TRIPLES6:
            worst = max(
                worst,
                abs(float(np.einsum("ijk,i,j,k->", diff, cols[:, a], cols[:, b], cols[:, c]))),
            )
        assert worst <= 1e-8


def test_bracket_factories_reject_an_unknown_variant():
    body = standard_body(2)
    with pytest.raises(ValueError, match="'gauged'"):
        reduced_bracket(body, "gauged")
    with pytest.raises(ValueError, match="'primed'"):
        nh_bracket_full(body, "primed")


def test_leafwise_two_form_is_only_assembled_at_rank_2():
    with pytest.raises(UnsupportedRank):
        leafwise_two_form(standard_body(1))


@pytest.mark.parametrize("i, j, bad", [(6, 0, 6), (0, -1, -1)])
def test_reduction_consistency_names_an_index_out_of_range(i, j, bad):
    with pytest.raises(IndexError, match=re.escape(f"index {bad} out of range for dim 6")):
        reduction_consistency(standard_body(2), "plain", sample_full_state(seed=5), i, j)


# ----------------------------------------------------------- full space plumbing


def test_pack_split_round_trip():
    """Each chart's packer inverts its split, and the chart table's names say
    where each block and RHO_INDEX read."""
    g = random_rotation(seed=0)
    x = np.array([0.1, -0.2, 0.3])
    k = np.array([0.4, 0.5, -0.6])
    state = pack_full(g, x, k)
    g2, x2, k2 = split_full(state)
    assert np.array_equal(g, g2) and np.array_equal(x, x2) and np.array_equal(k, k2)
    for reduced in (sample_reduced_state(seed=1), sample_reduced_state(seed=2, n=5)):
        packed = _pack_reduced(*split_reduced(reduced))
        assert packed.shape == reduced.shape and packed.tobytes() == reduced.tobytes()
    assert [FULL_NAMES[i] for i in RHO_INDEX] == ["g31", "g32", "g33", *REDUCED_NAMES[3:]]
    for names, split, prefixes in ((REDUCED_NAMES, split_reduced, ("gamma", "K")), (FULL_NAMES, split_full, "gxK")):
        for block, prefix in zip(split(np.arange(float(len(names)))), prefixes, strict=True):
            assert block.ravel().tolist() == [i for i, name in enumerate(names) if name.rstrip("123") == prefix]


@pytest.mark.parametrize(
    "g_shape, x_shape, k_shape",
    [((3, 3), (2,), (3,)), ((3, 3), (4,), (3,)), ((9,), (3,), (4,)), ((3, 3), (3,), (2, 3)), ((2, 9), (3,), (2, 3))],
)
def test_pack_full_rejects_x_and_K_of_the_wrong_shape(g_shape, x_shape, k_shape):
    """pack_full(np.eye(3), np.zeros(2), np.zeros(3)) was a (14,) "full state"."""
    message = re.escape(f"got shapes {g_shape}, {x_shape} and {k_shape}")
    with pytest.raises(ValueError, match=message):
        pack_full(np.ones(g_shape), np.zeros(x_shape), np.zeros(k_shape))


def test_project_rho_reads_third_row():
    k = np.array([0.3, -0.1, 0.2])
    state = pack_full(np.eye(3), np.zeros(3), k)
    reduced = project_rho(state)
    assert np.array_equal(reduced[:3], np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(reduced[3:], k)
    for seed in range(10):
        s = sample_full_state(seed=seed)
        assert abs(np.linalg.norm(project_rho(s)[:3]) - 1.0) <= 1e-12


def test_project_rho_invariant_under_vertical_symmetry():
    rng = np.random.default_rng(300)
    for seed in range(5):
        s = sample_full_state(seed=seed)
        g, x, k = split_full(s)
        th = rng.uniform(0, 2 * np.pi)
        h = np.array(
            [[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]]
        )
        y = rng.standard_normal(3)
        moved = pack_full(h @ g, h @ x + y, k)
        assert np.array_equal(project_rho(moved), project_rho(s))


def test_lift_is_a_section_of_rho():
    for seed in range(10):
        s = sample_reduced_state(seed=310 + seed)
        full = lift_reduced_state(s)
        assert np.max(np.abs(project_rho(full) - s)) <= 1e-12
        g, x, _ = split_full(full)
        assert np.max(np.abs(g.T @ g - np.eye(3))) <= 1e-12
        assert np.linalg.det(g) > 0.0
        assert np.all(x == 0.0)


def test_lift_rejects_off_sphere_states():
    for gamma in ([0.0, 0.0, 2.0], [np.nan, 0.0, 1.0]):  # a nan norm is not 1 either
        with pytest.raises(ValueError):
            lift_reduced_state(np.array([*gamma, 0.1, 0.2, 0.3]))


def test_vectors_and_gradients_of_the_wrong_shape_are_named():
    """FormPatch.evaluate takes one dim-vector per slot and BivectorPatch.bracket
    two dim-gradients; anything else is a ValueError naming its shape."""
    body, state, e = standard_body(2), sample_reduced_state(seed=1), np.eye(6)
    form, pi = twist_two_form(body), reduced_bracket(body)
    with pytest.raises(ValueError, match=r"expected one 6-dim vector, got shape \(5,\)"):
        form.evaluate(state, np.ones(5), e[1])
    with pytest.raises(ValueError, match=r"expected one 6-dim vector, got shape \(6, 2\)"):
        form.evaluate(state, e[:, :2], e[1])
    with pytest.raises(ValueError, match=r"coordinate x0 of a 5-dim chart at a state of shape \(6,\)"):
        pi.bracket(coordinate_field(5, 0), coordinate_field(6, 1), state)
    short = ScalarField(value=lambda s: 0.0, gradient=lambda s: np.ones(5), name="short")
    for f, g in ((short, coordinate_field(6, 1)), (coordinate_field(6, 1), short)):
        with pytest.raises(ValueError, match=r"expected one 6-dim gradient, got shape \(5,\)"):
            pi.bracket(f, g, state)
    assert math.isfinite(form.evaluate(state, e[0], e[4]))
    assert math.isfinite(pi.bracket(coordinate_field(6, 0), coordinate_field(6, 3), state))


@pytest.mark.parametrize(
    "gamma_shape, k_shape",
    [((2,), (3,)), ((3,), (2,)), ((4, 5), (4, 3)), ((4, 3), (4, 5)), ((4, 3), (3,)), ((3,), (4, 3)),
     ((4, 3), (5, 3)), ((), (3,))],
)
def test_omega_rejects_gamma_and_K_of_the_wrong_shape(rank, gamma_shape, k_shape):
    """At every rank, also where Omega never reads gamma (sign = 0), gamma and
    K must be (..., 3) with the same leading axes; the error names both shapes."""
    body = standard_body(rank)
    gamma, K = np.full(gamma_shape, 0.5), np.full(k_shape, 0.25)
    message = re.escape(f"got shapes {gamma.shape} and {K.shape}")
    for call in (omega_from_K, omega_jacobians, K_from_omega):
        with pytest.raises(ValueError, match=message):
            call(body, gamma, K)


def test_sample_full_state_properties():
    assert np.array_equal(sample_full_state(seed=4), sample_full_state(seed=4))
    g, x, k = split_full(sample_full_state(seed=5))
    assert np.max(np.abs(g.T @ g - np.eye(3))) <= 1e-12
    assert np.all(np.abs(x) <= 1.0) and np.all(np.abs(k) <= 1.0)


def test_horizontal_lift_requires_sphere_tangent():
    full = sample_full_state(seed=6)
    gamma = split_full(full)[0][2]
    with pytest.raises(ValueError):
        horizontal_lift(standard_body(2), full, np.concatenate([gamma, np.zeros(3)]))
    for rows in (1, 4):
        with pytest.raises(ValueError, match=rf"expected one 6-dim reduced tangent, got shape \({rows}, 6\)"):
            horizontal_lift(standard_body(2), full, np.zeros((rows, 6)))
    # a zero third row of g: |gamma|^2 = 0, no lift (rather than NaN)
    degenerate = full.copy()
    degenerate[6:9] = 0.0
    with pytest.raises(ValueError):
        horizontal_lift(standard_body(2), degenerate, np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))


# ------------------------------------------------------------ full-space bracket


def test_full_bracket_position_momentum_pairing():
    body = asymmetric_body(2)
    state = pack_full(np.eye(3), np.zeros(3), np.array([0.2, 0.1, -0.3]))
    m = nh_bracket_full(body, "plain").matrix(state)
    assert m[9, 13] == pytest.approx(body.radius, abs=1e-15)  # {x_1, K_2} = r at g = E
    assert m[10, 12] == pytest.approx(-body.radius, abs=1e-15)


@pytest.mark.parametrize("form", ["plain", "gauged"])
def test_full_bracket_zero_blocks(rank, form):
    body = standard_body(rank)
    pi = nh_bracket_full(body, form)
    for seed in range(3):
        m = pi.matrix(sample_full_state(seed=320 + seed))
        assert np.all(m[:9, :9] == 0.0)
        assert np.all(m[9:12, 9:12] == 0.0)
        assert np.all(m[:9, 9:12] == 0.0)
        assert np.all(m[9:12, :9] == 0.0)


def test_full_bracket_attitude_momentum_block():
    body = standard_body(2)
    pi = nh_bracket_full(body, "plain")
    s = sample_full_state(seed=330)
    g = split_full(s)[0]
    m = pi.matrix(s)
    # {g_11, K_2} = -g_13 and {g_23, K_1} = -g_22
    assert m[0, 13] == pytest.approx(-g[0, 2], abs=1e-15)
    assert m[5, 12] == pytest.approx(-g[1, 1], abs=1e-15)


@pytest.mark.parametrize("form", ["plain", "gauged"])
@pytest.mark.parametrize("rank_f", [0, 1, 2, 3])
def test_full_bracket_partials_match_fd(rank_f, form):
    body = asymmetric_body(rank_f)
    pi = nh_bracket_full(body, form)
    for seed in range(2):
        s = sample_full_state(seed=340 + seed)
        fd = fd_partials(pi.matrix, s)
        assert np.max(np.abs(pi.partial_tensor(s) - fd)) <= 1e-6


def test_full_field_constraint_and_flow(rank):
    # the plain bracket flow -ham_vf(pi, H) is the oracle of the closed-form field
    for body in (asymmetric_body(rank), standard_body(rank)):
        a = matrix_A(body)
        h = full_hamiltonian_field(body)
        pi = nh_bracket_full(body, "plain")
        for seed in range(5):
            s = sample_full_state(seed=350 + seed)
            g, _, k = split_full(s)
            x_dot = X_nh_full(body, s)[9:12]
            omega = omega_from_K(body, g[2], k)
            assert np.max(np.abs(x_dot - body.radius * a @ g @ omega)) <= 1e-14
            assert np.max(np.abs(X_nh_full(body, s) + ham_vf(pi, h, s))) <= 1e-14
            reduced = reduced_vf(body, project_rho(s))
            assert np.array_equal(X_nh_full(body, s)[[6, 7, 8, 12, 13, 14]], reduced)


def test_full_field_gauged_bracket_generates_same_flow(rank):
    body = standard_body(rank)
    gauged = nh_bracket_full(body, "gauged")
    h = full_hamiltonian_field(body)
    for seed in range(5):
        s = sample_full_state(seed=360 + seed)
        assert np.max(np.abs(X_nh_full(body, s) + ham_vf(gauged, h, s))) <= 1e-10


def test_full_field_contact_point_rest_without_coupling():
    body = standard_body(0)
    for seed in range(3):
        s = sample_full_state(seed=370 + seed)
        assert np.all(X_nh_full(body, s)[9:12] == 0.0)


def test_full_hamiltonian_matches_reduced():
    from chaplygin import fd_gradient

    body = asymmetric_body(2)
    h = full_hamiltonian_field(body)
    s = sample_full_state(seed=380)
    assert h(s) == pytest.approx(hamiltonian(body, project_rho(s)), abs=1e-14)
    assert np.max(np.abs(h.grad(s) - fd_gradient(h, s))) <= 1e-6


# ----------------------------------------------------------------- gauge 2-form


def test_gauge_form_is_semi_basic(rank):
    body = standard_body(rank)
    b = gauge_form_on_M(body)
    s = sample_full_state(seed=390 + rank)
    m = b(s)
    assert np.all(m[9:, :] == 0.0) and np.all(m[:, 9:] == 0.0)
    assert np.max(np.abs(m + m.T)) <= 1e-15


def test_gauge_form_vanishes_on_the_flow(rank):
    body = asymmetric_body(rank)
    b = gauge_form_on_M(body)
    for seed in range(5):
        s = sample_full_state(seed=400 + seed)
        contraction = b(s) @ X_nh_full(body, s)
        assert np.max(np.abs(contraction)) <= 1e-10


@pytest.mark.parametrize("rank_t", [1, 2])
def test_gauge_form_pulls_back_to_twist_form(rank_t):
    body = standard_body(rank_t)
    b_full = gauge_form_on_M(body)
    b_red = twist_two_form(body)
    rng = np.random.default_rng(410)
    for seed in range(5):
        reduced = sample_reduced_state(seed=rng)
        full = lift_reduced_state(reduced)
        gamma = reduced[:3]
        tangents = []
        for _ in range(2):
            w3 = rng.standard_normal(3)
            w3 -= float(w3 @ gamma) * gamma
            tangents.append(np.concatenate([w3, rng.standard_normal(3)]))
        u, v = tangents
        lifted_u = horizontal_lift(body, full, u)
        lifted_v = horizontal_lift(body, full, v)
        got = b_full.evaluate(full, lifted_u, lifted_v)
        expected = b_red.evaluate(reduced, u, v)
        assert got == pytest.approx(expected, abs=1e-12)


def test_gauge_transform_connects_the_full_brackets(rank):
    body = asymmetric_body(rank)
    plain = nh_bracket_full(body, "plain")
    gauged = nh_bracket_full(body, "gauged")
    transformed = gauge_transform(plain, gauge_form_on_M(body))
    for seed in range(5):
        s = sample_full_state(seed=420 + seed)
        assert np.max(np.abs(transformed.matrix(s) - gauged.matrix(s))) <= 1e-12


def test_dynamical_gauge_check_accepts_the_gauge_form(rank):
    body = standard_body(rank)
    states = [sample_full_state(seed=430 + i) for i in range(5)]
    records = dynamical_gauge_check(
        nh_bracket_full(body, "plain"), gauge_form_on_M(body), full_hamiltonian_field(body), states
    )
    assert all(rec["passed"] for rec in records)
    assert all(rec["invertible"] for rec in records)


def test_dynamical_gauge_check_rejects_position_momentum_form():
    body = standard_body(2)
    bad_entries = np.zeros((15, 15))
    bad_entries[9, 12], bad_entries[12, 9] = 1.0, -1.0
    bad = FormPatch(
        degree=2,
        dim=15,
        entries=lambda s: bad_entries.copy(),
        partials=lambda s: np.zeros((15, 15, 15)),
    )
    states = [sample_full_state(seed=440 + i) for i in range(5)]
    records = dynamical_gauge_check(
        nh_bracket_full(body, "plain"), bad, full_hamiltonian_field(body), states
    )
    assert any(rec["contraction"] > 1e-3 for rec in records)
    assert not all(rec["passed"] for rec in records)


# -------------------------------------------------------------------- reduction


@pytest.mark.parametrize("variant", VARIANTS)
def test_reduction_consistency_all_pairs(rank, variant):
    body = asymmetric_body(rank)
    worst = 0.0
    for seed in range(3):
        s = sample_full_state(seed=450 + seed)
        for i, j in itertools.combinations(range(6), 2):
            value = reduction_consistency(body, variant, s, i, j)
            assert isinstance(value, float)
            worst = max(worst, value)
    assert worst <= 1e-12


def test_variant_tables():
    assert [hamiltonizable_variant(r) for r in range(4)] == ["plain", "plain", "primed", "primed"]
    assert poisson_variant(0) == "plain"
    assert poisson_variant(3) == "primed"
    assert poisson_variant(1) is None and poisson_variant(2) is None
    for bad in (-1, 4):
        for variant_of in (hamiltonizable_variant, poisson_variant):
            with pytest.raises(UnsupportedRank):
                variant_of(bad)
