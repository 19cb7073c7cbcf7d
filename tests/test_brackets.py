"""Generic bivector machinery: Hamiltonian fields, Jacobiator, gauge algebra,
twisted/conformal defects, Casimir defects, distribution probes."""

import dataclasses
import itertools
import math
import re
import warnings

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
    casimir_kgamma,
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
    run_all_suites,
    sample_full_state,
    sample_reduced_state,
    scale_bivector,
    twist_three_form,
    twisted_defect,
)
from chaplygin import brackets
from chaplygin.geometry import _first_bad, _swap
from chaplygin.rolling import gauge_form_on_M

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
    once), so a call pays for the Jacobi sums alone and not for the body's jet.
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
        else:  # the sorted triples through K1: each call builds the whole 15-dim tensor
            triples = [t for t in itertools.combinations(range(pi.dim), 3) if 12 in t]
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


def test_forms_must_live_on_the_bracket_chart():
    pi = canonical_patch()
    one = FormPatch(degree=1, dim=2, entries=lambda s: np.zeros(2), partials=lambda s: np.zeros((2, 2)))
    three = FormPatch(degree=3, dim=3, entries=lambda s: np.zeros((3,) * 3), partials=lambda s: np.zeros((3,) * 4))
    x = coordinate_field(2, 0)
    for call, message in (
        (lambda: jacobi_tensor(pi, np.zeros(2), three), "twist form must be a 3-form on the same chart"),
        (lambda: twisted_defect(pi, one, 0, 1, 0, np.zeros(2)), "twist form must be a 3-form on the same chart"),
        (lambda: gauge_transform(pi, one), "gauge form must be a 2-form on the same chart"),
        (lambda: distribution_probe(pi, constant_two_form(_CANONICAL), x, x, np.zeros(2)),
         "probe form must be a 1-form on the same chart"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


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


@pytest.mark.parametrize("i", [-1, 6, 7])
def test_coordinate_field_rejects_an_index_out_of_range(i):
    """coordinate_field(6, -1) was x5 named "x-1"; coordinate_field(6, 7) raised numpy's IndexError."""
    with pytest.raises(IndexError, match=re.escape(f"index {i} out of range for dim 6")):
        coordinate_field(6, i)


def test_twisted_defect_rejects_an_index_out_of_range():
    body = standard_body(2)
    with pytest.raises(IndexError, match=re.escape("index 9 out of range for dim 6")):
        twisted_defect(reduced_bracket(body), twist_three_form(body), 0, 1, 9, sample_reduced_state(seed=4))


def test_scale_bivector_checks_the_state_before_the_factor():
    """The bracket's state check speaks first: the factor C1 = K . gamma at a
    5-vector raised numpy's vecdot error."""
    scaled = scale_bivector(reduced_bracket(standard_body(2)), casimir_kgamma())
    for call in (scaled.matrix, scaled.partial_tensor):
        with pytest.raises(ValueError, match=re.escape("expected a 6-dim reduced state, got shape (5,)")):
            call(np.zeros(5))


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


def test_gauge_matrix_rejects_a_symmetric_structure_matrix():
    """A symmetric p makes a symmetric gauged matrix: its residue is the error."""
    with pytest.raises(SymmetricInput, match="symmetric residue"):
        gauge_matrix(np.eye(3), np.zeros((3, 3)))


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


def _svd_gauge_matrix(p, bm):
    """gauge_matrix with an SVD of every E + bm p and a solve of every pair,
    closed or not, and with the overflow test of its product first."""
    if bad := _first_bad(~(np.isfinite(p).all(axis=(-2, -1)) & np.isfinite(bm).all(axis=(-2, -1)))):
        raise SingularGauge(f"non-finite bracket or 2-form entries{bad[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.eye(p.shape[-1]) + bm @ p
    if bad := _first_bad(~np.isfinite(m).all(axis=(-2, -1))):
        raise SingularGauge(f"the product B pi overflows{bad[1]}")
    svals = np.linalg.svd(m, compute_uv=False)
    smallest, largest = svals[..., -1], svals[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = np.where(smallest > 0.0, largest / smallest, np.inf)
    if bad := _first_bad(~(condition <= 1e12)):
        raise SingularGauge(f"E + B pi has condition {condition.flat[bad[0]]:.3e}{bad[1]}")
    g = _swap(np.linalg.solve(_swap(m), _swap(p)))
    residue = np.max(np.abs(g + _swap(g)), axis=(-2, -1))
    if bad := _first_bad(residue > 1e-10):
        raise SymmetricInput(f"gauged matrix has symmetric residue {residue.flat[bad[0]]:.3e}{bad[1]}")
    return 0.5 * (g - _swap(g))


_J2 = np.kron(np.eye(2), _CANONICAL)  # J + J on R^4: J2 @ J2 = -E


def _gauge_rows() -> dict:
    """Named (p, bm) pairs on R^4: ||bm p||_F at f times 0.99, f below, at
    and above 1; E + bm p exactly singular, or of condition about 1e11 to
    1e13; non-finite entries, and finite entries whose product overflows."""
    rng = np.random.default_rng(71)
    rows = {}
    for k in range(3):
        a, c = rng.standard_normal((2, 4, 4))
        p, b = a - a.T, c - c.T
        norm = np.linalg.norm(b @ p)
        for f in (0.0, 0.5, 0.99, 1 - 1e-15, 1.0, 1 + 1e-15, 1.005, 1.5, 10.0):
            rows[f"random{k}-{f!r}"] = (p, (f * 0.99 / norm) * b)
    rows["singular"] = (_J2, _J2)
    rows["singular-block"] = (_J2, np.kron(np.diag([1.0, 0.0]), _CANONICAL))
    for delta in (1e-11, 3e-12, 1e-12, 3e-13, 1e-13):
        rows[f"condition-{1 / delta:.0e}"] = (_J2, np.kron(np.diag([1.0 - delta, 0.0]), _CANONICAL))
    rows["nan"] = (np.where(_J2 > 0, np.nan, _J2), _J2)
    rows["inf"] = (_J2, np.where(_J2 > 0, np.inf, _J2))
    rows["overflow"] = (1e200 * _J2, 1e200 * _J2)
    a, c = rng.standard_normal((2, 4, 4))
    rows["overflow-nan"] = (1e300 * (a - a.T), 1e300 * (c - c.T))
    return rows


_ROWS = _gauge_rows()


def _assert_as_svd_oracle(p, bm):
    """gauge_matrix(p, bm) has the bits of the oracle's result, or raises its
    exception with its message."""
    try:
        expected = _svd_gauge_matrix(p, bm)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            gauge_matrix(p, bm)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
    else:
        got = gauge_matrix(p, bm)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(_ROWS))
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_gauge_matrix_of_one_pair_equals_the_svd_oracle(name):
    _assert_as_svd_oracle(*_ROWS[name])


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_gauge_matrix_of_a_stack_equals_the_svd_oracle(seed):
    rng = np.random.default_rng(seed)
    names = rng.choice(sorted(_ROWS), size=rng.integers(1, 7))
    if seed % 2:  # half the stacks draw only finite, well-conditioned or unsettled random rows
        names = rng.choice([n for n in sorted(_ROWS) if n.startswith("random")], size=rng.integers(1, 7))
    _assert_as_svd_oracle(*(np.array([_ROWS[n][i] for n in names]) for i in (0, 1)))


def test_gauge_matrix_reports_an_overflowing_product_before_lapack(capfd):
    """Finite P and B whose product overflows raise SingularGauge naming the
    overflow and its row, with no numpy warning and no LAPACK message."""
    a = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]])
    p, b = 1e300 * a, 1e300 * a.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args, where in (((p, b), ""), ((np.array([a, p]), np.array([0.1 * a, b])), " in row 1")):
            with pytest.raises(SingularGauge, match=f"overflows{where}$"):
                gauge_matrix(*args)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("scale", [0.0, 0.3, 0.9, 1.0, 1.1, 3.0, 100.0])
def test_gauge_matrix_of_the_full_bracket_equals_the_svd_oracle(scale):
    """The full bracket by its gauge form, scaled to ||B P||_F = 0.99 scale:
    every row is closed up to scale 2 and none is from scale 3."""
    states = sample_full_state(seed=72, n=6)
    body = standard_body(2)
    p, bm = nh_bracket_full(body).matrix(states), gauge_form_on_M(body)(states)
    norm = np.sqrt(np.sum((bm @ p) ** 2, axis=(-2, -1)))[:, None, None]
    _assert_as_svd_oracle(p, (scale * 0.99 / norm) * bm)


def _count_conditioning(monkeypatch) -> list:
    """The shapes that brackets._conditioning is called on from now on."""
    calls, conditioning = [], brackets._conditioning
    monkeypatch.setattr(brackets, "_conditioning", lambda m: calls.append(m.shape) or conditioning(m))
    return calls


def test_gauge_matrix_runs_the_svd_on_the_rows_that_are_not_closed(monkeypatch):
    """Only random2-0.0 (bm = 0) is closed."""
    names = ["random0-0.5", "random1-0.99", "random2-0.0", "random1-1.5", "random0-0.99"]
    p, bm = (np.array([_ROWS[n][i] for n in names]) for i in (0, 1))
    calls = _count_conditioning(monkeypatch)
    assert gauge_matrix(p, bm).tobytes() == _svd_gauge_matrix(p, bm).tobytes()
    assert calls == [(4, 4, 4)]


def _count_lapack(monkeypatch) -> list:
    """The names of the numpy solves and SVDs called from now on."""
    calls = []
    for name in ("solve", "svd"):
        base = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, base=base, name=name, **k: calls.append(name) or base(*a, **k))
    return calls


@pytest.mark.parametrize("make_body", [standard_body, asymmetric_body], ids=["standard", "asymmetric"])
def test_a_verify_run_makes_no_solve_and_no_svd(monkeypatch, rank, make_body):
    """The paper's gauge is closed: B P squares to 0, so every gauge of a verify
    run is p - p B P."""
    calls = _count_lapack(monkeypatch)
    reports = run_all_suites(make_body(rank), trials=6, seed=0)
    assert all(r["passed"] for r in reports)
    assert calls == []


@pytest.mark.parametrize("so2_angle", [-0.5 * math.pi, 0.37])
@pytest.mark.parametrize("make_body", [standard_body, asymmetric_body], ids=["standard", "asymmetric"])
def test_the_papers_gauge_is_closed_exactly(rank, make_body, so2_angle):
    """B P of the semi-basic gauge form is nonzero only in rows 0-8 and
    columns 12-14, so it squares to exactly 0, and gauging P changes no
    entry outside the K-K block, on 200 drawn states."""
    body = dataclasses.replace(make_body(rank), so2_angle=so2_angle)
    states = sample_full_state(seed=30 + rank, n=200)
    p, bm = nh_bracket_full(body).matrix(states), gauge_form_on_M(body)(states)
    x = bm @ p
    outside = np.ones(x.shape[1:], dtype=bool)
    outside[:9, 12:] = False
    assert x[:, :9, 12:].any() and not x[:, outside].any()
    assert not (x @ x).any()
    change = gauge_matrix(p, bm) - p
    change[:, 12:, 12:] = 0.0
    assert not change.any()


@pytest.mark.parametrize("scale, n_closed", [(2.0, 6), (2.5, 2), (3.0, 0)])
def test_gauge_matrix_of_closed_and_pivoting_rows_equals_the_svd_oracle(monkeypatch, scale, n_closed):
    """Full-bracket rows scaled as in the oracle test above: a row is closed
    where no |(B P)_ij| exceeds 1, and pivots in LU elsewhere.
    Each row alone, and the stack (mixed at 2.5), has the oracle's bits; only
    a pair or stack that is not all closed makes a solve."""
    states = sample_full_state(seed=72, n=6)
    body = standard_body(2)
    p, bm = nh_bracket_full(body).matrix(states), gauge_form_on_M(body)(states)
    norm = np.sqrt(np.sum((bm @ p) ** 2, axis=(-2, -1)))[:, None, None]
    bm = (scale * 0.99 / norm) * bm
    assert np.sum(np.max(np.abs(bm @ p), axis=(-2, -1)) <= 1.0) == n_closed
    calls = _count_lapack(monkeypatch)
    for i in range(len(p)):
        _assert_as_svd_oracle(p[i], bm[i])
    _assert_as_svd_oracle(p, bm)
    solves = calls.count("solve") - (len(p) + 1)  # less the oracle's, one per call
    assert solves == len(p) - n_closed + (n_closed < len(p))


def test_a_square_that_overflows_is_not_closed():
    """X = B P = -1e200 E is finite, X @ X overflows: no warning, and the
    solve gives the oracle's p / (1 - 1e200)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, bm in ((_CANONICAL, 1e200 * _CANONICAL), (_J2, 1e200 * _J2)):
            _assert_as_svd_oracle(p, bm)
            assert np.array_equal(gauge_matrix(p, bm), p / (1.0 - 1e200))


# B = 0.5 e_0 ^ e_2 by J2: X = B J2 has X @ X = 0 and entries 0.5
_CLOSED_PAIR = (_J2, 0.5 * np.array([[0.0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]]))


def _stack(*pairs):
    return tuple(np.array([pair[i] for pair in pairs]) for i in (0, 1))


def _assert_raises_as_svd_oracle(p, bm, error, where):
    with pytest.raises(SingularGauge, match=f"^{error}.*{where}$"):
        _svd_gauge_matrix(p, bm)
    _assert_as_svd_oracle(p, bm)


def test_the_closed_pair_makes_no_solve_and_no_svd(monkeypatch):
    """Its result equals the oracle's, though not to the bit: p - p X has
    -0.0 at [1, 2] and [3, 0], where the solve has +0.0."""
    calls = _count_lapack(monkeypatch)
    got = gauge_matrix(*_CLOSED_PAIR)
    assert calls == []
    assert np.array_equal(got, _svd_gauge_matrix(*_CLOSED_PAIR))


@pytest.mark.parametrize("bad, error", [("nan", "non-finite"), ("inf", "non-finite"), ("overflow", "the product")])
@pytest.mark.parametrize("closed_first", [True, False], ids=["closed-first", "closed-last"])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_closed_row_beside_a_non_finite_row_raises_as_the_oracle(bad, error, closed_first):
    """A stack that is not all closed tests every row: the error names the bad row."""
    pairs = (_CLOSED_PAIR, _ROWS[bad]) if closed_first else (_ROWS[bad], _CLOSED_PAIR)
    _assert_raises_as_svd_oracle(*_stack(*pairs), error, f" in row {int(closed_first)}")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_zero_form_with_a_non_finite_bracket_raises_as_the_oracle(value):
    """B = 0 makes X = 0 @ p, and an inf or nan in p gives a nan column of X: not closed."""
    p = _J2.copy()
    p[0, 1] = value
    _assert_raises_as_svd_oracle(p, np.zeros((4, 4)), "non-finite", "entries")
    _assert_raises_as_svd_oracle(*_stack(_CLOSED_PAIR, (p, np.zeros((4, 4)))), "non-finite", " in row 1")


@pytest.mark.parametrize(
    "p_shape, bm_shape", [((15, 15), (6, 6)), ((4, 3), (4, 4)), ((2, 4, 4), (3, 4, 4)), ((4,), (4,))]
)
def test_gauge_matrix_names_both_shapes_of_a_pair_that_is_not_one_shape(p_shape, bm_shape):
    with pytest.raises(ValueError, match=re.escape(f"got shapes {p_shape} and {bm_shape}")):
        gauge_matrix(np.zeros(p_shape), np.zeros(bm_shape))


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
