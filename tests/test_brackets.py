"""Generic bivector machinery: Hamiltonian fields, Jacobiator, gauge algebra,
twisted/conformal defects, Casimir defects, distribution probes."""

import itertools

import numpy as np
import pytest

from chaplygin import (
    AnnihilationViolated,
    BivectorPatch,
    DegenerateDenominator,
    FormPatch,
    NonPositiveFactor,
    ScalarField,
    SingularGauge,
    SymmetricInput,
    casimir_defect,
    conformal_factor,
    conformal_jacobiator,
    coordinate_field,
    distribution_probe,
    dynamical_gauge_check,
    fd_gradient,
    fd_partials,
    gauge_matrix,
    gauge_transform,
    ham_vf,
    jacobi_tensor,
    jacobiator,
    nh_bracket_full,
    reduced_bracket,
    sample_full_state,
    sample_reduced_state,
    scale_bivector,
    twist_three_form,
    twisted_defect,
)

from conftest import VARIANTS, asymmetric_body, standard_body

_CANONICAL = np.array([[0.0, 1.0], [-1.0, 0.0]])


def canonical_patch() -> BivectorPatch:
    return BivectorPatch(
        dim=2,
        structure=lambda s: _CANONICAL.copy(),
        jet=lambda s: (_CANONICAL.copy(), np.zeros((2, 2, 2))),
    )


def constant_two_form(mat: np.ndarray) -> FormPatch:
    n = mat.shape[0]
    return FormPatch(
        degree=2,
        dim=n,
        entries=lambda s: mat.copy(),
        partials=lambda s: np.zeros((n, n, n)),
    )


# ------------------------------------------------------------- BivectorPatch


def test_matrix_antisymmetry_enforced():
    symmetric = np.array([[0.0, 1.0], [1.0, 0.0]])
    bad = BivectorPatch(dim=2, structure=lambda s: symmetric, jet=lambda s: (symmetric, np.zeros((2, 2, 2))))
    with pytest.raises(SymmetricInput):
        bad.matrix(np.zeros(2))


def test_bracket_of_coordinates_reads_entries():
    pi = canonical_patch()
    q, p = coordinate_field(2, 0), coordinate_field(2, 1)
    s = np.array([0.3, -0.7])
    assert pi.bracket(q, p, s) == pytest.approx(1.0)
    assert pi.bracket(p, q, s) == pytest.approx(-1.0)
    assert pi.bracket(q, q, s) == 0.0


def test_ham_vf_sign_convention():
    pi = canonical_patch()
    x_q = ham_vf(pi, coordinate_field(2, 0), np.zeros(2))
    assert np.allclose(x_q, [0.0, 1.0], atol=1e-15)
    x_p = ham_vf(pi, coordinate_field(2, 1), np.zeros(2))
    assert np.allclose(x_p, [-1.0, 0.0], atol=1e-15)


# ----------------------------------------------------------------- Jacobiator


def test_jacobiator_constant_structure_is_zero():
    pi = canonical_patch()
    assert jacobiator(pi, 0, 1, 0, np.zeros(2)) == 0.0


def test_jacobiator_alternating_exactly():
    body = standard_body(2)
    pi = reduced_bracket(body, "plain")
    s = sample_reduced_state(seed=3)
    j = jacobiator(pi, 1, 3, 5, s)
    assert jacobiator(pi, 3, 1, 5, s) == -j
    assert jacobiator(pi, 5, 1, 3, s) == j
    assert jacobiator(pi, 3, 5, 1, s) == j
    assert jacobiator(pi, 1, 1, 4, s) == 0.0
    assert jacobiator(pi, 2, 5, 2, s) == 0.0


def _nested_fd_jacobiator(pi: BivectorPatch, a: int, b: int, c: int, state) -> float:
    """{x_a,{x_b,x_c}} + cyclic, with the outer bracket differentiated by FD."""
    total = 0.0
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        grad = fd_gradient(lambda s, y=y, z=z: float(pi.matrix(s)[y, z]), state)
        total += float(pi.matrix(state)[x] @ grad)
    return total


@pytest.mark.parametrize("variant", VARIANTS)
def test_jacobiator_matches_nested_fd(rank, variant):
    pi = reduced_bracket(standard_body(rank), variant)
    rng = np.random.default_rng(100 + rank)
    triples = [(0, 3, 4), (1, 2, 5), (3, 4, 5)]
    worst = 0.0
    for _ in range(50):
        s = sample_reduced_state(seed=rng)
        tensor = jacobi_tensor(pi, s)
        for a, b, c in triples:
            oracle = _nested_fd_jacobiator(pi, a, b, c, s)
            worst = max(worst, abs(jacobiator(pi, a, b, c, s) - oracle), abs(tensor[a, b, c] - oracle))
    assert worst <= 1e-5


# ------------------------------------------------------------- Jacobi tensor

# sign of each permutation of three axes
_SIGNS = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0, (1, 0, 2): -1.0, (0, 2, 1): -1.0, (2, 1, 0): -1.0}


def _chart_cases(make_body, rank, chart):
    """(bivector, state, 3-form, conformal factor) per variant on one chart.

    The bivector is frozen at the state (same matrix and partials, computed
    once) so that per-triple calls stay cheap on the 15-dim chart.
    """
    body = make_body(rank)
    rng = np.random.default_rng(300 + rank)
    if chart == "reduced":
        brackets = [reduced_bracket(body, v) for v in VARIANTS]
        state = sample_reduced_state(seed=rng)
    else:
        brackets = [nh_bracket_full(body, form) for form in ("plain", "gauged")]
        state = sample_full_state(seed=rng)
    dim = state.size
    if chart == "reduced" and rank in (1, 2):
        phi_t = twist_three_form(body)(state)
    else:
        m = rng.standard_normal((dim,) * 3)
        phi_t = sum(_SIGNS[p] * np.transpose(m, p) for p in _SIGNS)
    phi = FormPatch(degree=3, dim=dim, entries=lambda s: phi_t.copy(), partials=lambda s: np.zeros((dim,) * 4))
    factor = ScalarField(value=lambda s: float(1.0 + s @ s), gradient=lambda s: 2.0 * np.asarray(s))
    cases = []
    for pi in brackets:
        p, dp = pi.matrix(state), pi.partial_tensor(state)
        frozen = BivectorPatch(dim=dim, structure=lambda s, p=p: p.copy(), jet=lambda s, p=p, dp=dp: (p.copy(), dp.copy()))
        cases.append((frozen, state, phi, factor))
    return cases


_KERNEL_PARAMS = pytest.mark.parametrize(
    "make_body, chart",
    [(f, c) for f in (standard_body, asymmetric_body) for c in ("reduced", "full")],
    ids=[f"{f}-{c}" for f in ("standard", "asymmetric") for c in ("reduced", "full")],
)


@_KERNEL_PARAMS
def test_jacobi_tensor_alternates_exactly(rank, make_body, chart):
    for pi, s, phi, _ in _chart_cases(make_body, rank, chart):
        twisted = jacobi_tensor(pi, s, phi)
        assert np.any(twisted != 0.0)
        for tensor in (jacobi_tensor(pi, s), twisted):
            for perm, sign in _SIGNS.items():
                assert np.array_equal(np.transpose(tensor, perm), sign * tensor)
            for i in range(pi.dim):
                for repeated in (tensor[i, i, :], tensor[i, :, i], tensor[:, i, i]):
                    assert np.all(repeated == 0.0)


@_KERNEL_PARAMS
def test_jacobi_tensor_equals_per_triple_defects(rank, make_body, chart):
    for pi, s, phi, factor in _chart_cases(make_body, rank, chart):
        plain = jacobi_tensor(pi, s)
        twisted = jacobi_tensor(pi, s, phi)
        conformal = jacobi_tensor(scale_bivector(pi, factor), s)
        if chart == "reduced":
            triples = itertools.product(range(pi.dim), repeat=3)
        else:  # sorted triples: the per-triple functions alternate exactly
            triples = itertools.combinations(range(pi.dim), 3)
        for i, j, k in triples:
            assert plain[i, j, k] == jacobiator(pi, i, j, k, s)
            assert twisted[i, j, k] == twisted_defect(pi, phi, i, j, k, s)
            assert conformal[i, j, k] == conformal_jacobiator(pi, factor, i, j, k, s)


@pytest.mark.parametrize("make_body", [standard_body, asymmetric_body], ids=["standard", "asymmetric"])
def test_jacobi_tensor_through_jet_equals_matrix_route(rank, make_body):
    body = make_body(rank)
    phi = twist_three_form(body) if rank in (1, 2) else None
    for variant in VARIANTS:
        pi = reduced_bracket(body, variant)
        for with_jet in (pi, scale_bivector(pi, conformal_factor(body))):
            assert with_jet.jet is not None
            # the matrix from structure, the partials from a separate jet call
            without = BivectorPatch(
                dim=6, structure=with_jet.structure, jet=lambda s, w=with_jet: (w.structure(s), w.jet(s)[1])
            )
            for seed in range(3):
                s = sample_reduced_state(seed=40 + seed)
                p, dp = with_jet.matrix_and_partials(s)
                assert np.array_equal(p, with_jet.matrix(s))
                assert np.array_equal(dp, with_jet.partial_tensor(s))
                assert np.array_equal(jacobi_tensor(with_jet, s), jacobi_tensor(without, s))
                assert np.array_equal(jacobi_tensor(with_jet, s, phi), jacobi_tensor(without, s, phi))


def test_jet_output_is_checked():
    bad = BivectorPatch(
        dim=2, structure=lambda s: _CANONICAL, jet=lambda s: (np.ones((2, 2)), np.zeros((2, 2, 2)))
    )
    with pytest.raises(SymmetricInput):
        bad.matrix_and_partials(np.zeros(2))
    short = BivectorPatch(dim=2, structure=lambda s: _CANONICAL, jet=lambda s: (_CANONICAL, np.zeros((2, 2))))
    with pytest.raises(ValueError):
        short.matrix_and_partials(np.zeros(2))


# -------------------------------------------------------------------- scaling


def test_scale_bivector_matrix_and_partials():
    body = standard_body(1)
    pi = reduced_bracket(body, "plain")
    factor = ScalarField(
        value=lambda s: float(1.0 + s[0] ** 2),
        gradient=lambda s: np.array([2.0 * s[0], 0, 0, 0, 0, 0]),
    )
    scaled = scale_bivector(pi, factor)
    s = sample_reduced_state(seed=11)
    assert np.max(np.abs(scaled.matrix(s) - factor(s) * pi.matrix(s))) <= 1e-15
    fd = fd_partials(scaled.matrix, s)
    assert np.max(np.abs(scaled.partial_tensor(s) - fd)) <= 1e-6


def test_conformal_jacobiator_rejects_nonpositive_factor():
    pi = reduced_bracket(standard_body(2), "primed")
    with pytest.raises(NonPositiveFactor):
        negative = ScalarField(value=lambda s: -1.0, gradient=lambda s: np.zeros(6))
        conformal_jacobiator(pi, negative, 0, 1, 2, sample_reduced_state(seed=0))


# ---------------------------------------------------------------------- gauge


def test_gauge_zero_form_is_identity():
    pi = canonical_patch()
    gauged = gauge_transform(pi, constant_two_form(np.zeros((2, 2))))
    s = np.array([0.2, 0.4])
    assert np.array_equal(gauged.matrix(s), pi.matrix(s))


def test_gauge_halving_form_doubles_canonical():
    pi = canonical_patch()
    gauged = gauge_transform(pi, constant_two_form(0.5 * _CANONICAL))
    assert np.max(np.abs(gauged.matrix(np.zeros(2)) - 2.0 * _CANONICAL)) <= 1e-14


def test_gauge_matrix_rejects_non_finite_input():
    p = nh_bracket_full(standard_body(2), "plain").matrix(sample_full_state(seed=3))
    b = np.zeros_like(p)
    b[0, 1], b[1, 0] = 0.5, -0.5
    for bad_p, bad_b in ((np.where(p == p[0, 12], np.nan, p), b), (p, np.where(b != 0.0, np.inf, b))):
        with pytest.raises(SingularGauge, match="non-finite"):
            gauge_matrix(bad_p, bad_b)


def test_stack_errors_name_the_first_offending_row():
    """Each check on a stack of states names the first row that fails it."""
    good = sample_reduced_state(seed=1)
    stack = np.array([good, good, good])
    stack[1, :3] = 0.0  # gamma = 0: the rank-2 denominator vanishes
    with pytest.raises(DegenerateDenominator, match="in row 1$"):
        reduced_bracket(standard_body(2), "primed").matrix(stack)

    def structure(s):
        p = np.zeros(s.shape[:-1] + (2, 2))
        p[..., 0, 1] = 1.0
        p[..., 1, 0] = np.where(s[..., 0] > 0.0, 1.0, -1.0)  # symmetric where x_0 > 0
        return p

    states = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SymmetricInput, match="in row 2$"):
        BivectorPatch(dim=2, structure=structure, jet=lambda s: (structure(s), np.zeros((2, 2, 2)))).matrix(states)

    p = np.array([_CANONICAL, _CANONICAL, _CANONICAL])
    b = np.array([np.zeros((2, 2)), 0.5 * _CANONICAL, _CANONICAL])  # E + B P = 0 in row 2
    with pytest.raises(SingularGauge, match="in row 2$"):
        gauge_matrix(p, b)
    p[1, 0, 1] = np.nan
    with pytest.raises(SingularGauge, match="in row 1$"):
        gauge_matrix(p, b)


def test_gauge_singular_combination_raises():
    pi = canonical_patch()
    with pytest.raises(SingularGauge):
        gauge_transform(pi, constant_two_form(_CANONICAL)).matrix(np.zeros(2))


def test_gauge_round_trip():
    pi = reduced_bracket(standard_body(2), "plain")
    rng = np.random.default_rng(21)
    m = 0.3 * rng.standard_normal((6, 6))
    b = constant_two_form(m - m.T)
    b_neg = constant_two_form(-(m - m.T))
    back = gauge_transform(gauge_transform(pi, b), b_neg)
    worst = 0.0
    for seed in range(10):
        s = sample_reduced_state(seed=seed)
        worst = max(worst, np.max(np.abs(back.matrix(s) - pi.matrix(s))))
    assert worst <= 1e-10


def test_gauge_preserves_range():
    m4 = np.zeros((4, 4))
    m4[0, 1], m4[1, 0] = 1.0, -1.0
    pi = BivectorPatch(dim=4, structure=lambda s: m4.copy(), jet=lambda s: (m4.copy(), np.zeros((4, 4, 4))))
    rng = np.random.default_rng(22)
    b = 0.4 * rng.standard_normal((4, 4))
    gauged = gauge_transform(pi, constant_two_form(b - b.T))
    gm = gauged.matrix(np.zeros(4))
    assert np.linalg.matrix_rank(gm, tol=1e-10) == np.linalg.matrix_rank(m4, tol=1e-10)
    # ranges agree: each matrix's columns solve in the other's column space
    for lhs, rhs in ((gm, m4), (m4, gm)):
        sol, *_ = np.linalg.lstsq(rhs, lhs, rcond=None)
        assert np.max(np.abs(rhs @ sol - lhs)) <= 1e-8


def test_dynamical_gauge_check_flags_nonconserving_form():
    pi = canonical_patch()
    h = ScalarField(
        value=lambda s: 0.5 * float(s @ s),
        gradient=lambda s: s.copy(),
    )
    b = constant_two_form(0.5 * _CANONICAL)
    states = [np.array([1.0, 0.0]), np.array([0.3, 0.8])]
    records = dynamical_gauge_check(pi, b, h, states)
    assert len(records) == 2
    for rec in records:
        assert set(rec) >= {"contraction", "smallest_singular_value", "condition", "invertible", "passed"}
        assert rec["invertible"]
        assert rec["contraction"] > 1e-3
        assert not rec["passed"]


def test_dynamical_gauge_check_accepts_zero_form():
    pi = canonical_patch()
    h = ScalarField(value=lambda s: 0.5 * float(s @ s), gradient=lambda s: s.copy())
    records = dynamical_gauge_check(pi, constant_two_form(np.zeros((2, 2))), h, [np.array([1.0, 2.0])])
    assert records[0]["passed"]
    assert records[0]["contraction"] <= 1e-12


# ------------------------------------------------------------ twisted defects


def test_twisted_defect_without_form_is_jacobiator():
    pi = reduced_bracket(standard_body(2), "plain")
    s = sample_reduced_state(seed=5)
    assert twisted_defect(pi, None, 0, 3, 4, s) == jacobiator(pi, 0, 3, 4, s)


# ------------------------------------------------------------------- Casimirs


def test_casimir_defect_constant_field_zero():
    pi = canonical_patch()
    constant = ScalarField(value=lambda s: 3.0, gradient=lambda s: np.zeros(2))
    assert casimir_defect(pi, constant, np.zeros(2)) == 0.0


def test_casimir_defect_canonical_coordinate():
    pi = canonical_patch()
    assert casimir_defect(pi, coordinate_field(2, 0), np.zeros(2)) == pytest.approx(1.0)


# ----------------------------------------------------------------- probe guard


def test_distribution_probe_rejects_nonannihilating_form():
    pi = canonical_patch()
    chi = FormPatch(degree=1, dim=2, entries=lambda s: np.array([1.0, 0.0]), partials=lambda s: np.zeros((2, 2)))
    with pytest.raises(AnnihilationViolated):
        distribution_probe(pi, chi, coordinate_field(2, 0), coordinate_field(2, 1), np.zeros(2))
