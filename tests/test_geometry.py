"""Vector algebra, hat map, finite-difference exterior calculus, samplers."""

import ast
from pathlib import Path

import numpy as np
import pytest

import chaplygin
from chaplygin import (
    BivectorPatch,
    FormPatch,
    ScalarField,
    SymmetricInput,
    annihilator_one_form,
    fd_exterior_derivative,
    fd_gradient,
    fd_partials,
    hat,
    random_rotation,
    sample_reduced_state,
    unhat,
    wedge_1_2,
)
from chaplygin.geometry import EPSILON, FD_CBRT_EPS, fd_step

from conftest import standard_body


# ---------------------------------------------------------------- hat / unhat


def test_hat_zero():
    assert np.array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_explicit_matrix():
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(hat([1.0, 2.0, 3.0]), expected)


def test_hat_is_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        assert np.max(np.abs(hat(v) @ w - np.cross(v, w))) <= 1e-14


def test_hat_linear_and_antisymmetric():
    rng = np.random.default_rng(1)
    v, w = rng.standard_normal(3), rng.standard_normal(3)
    assert np.allclose(hat(2.0 * v - 3.0 * w), 2.0 * hat(v) - 3.0 * hat(w), atol=1e-15)
    assert np.array_equal(hat(v).T, -hat(v))


def test_unhat_round_trip_exact():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(unhat(hat(v)), v)
    assert np.array_equal(unhat(np.zeros((3, 3))), np.zeros(3))


def test_hat_of_unhat_on_antisymmetric():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3))
    a = 0.5 * (m - m.T)
    assert np.max(np.abs(hat(unhat(a)) - a)) <= 1e-15


def test_unhat_rejects_symmetric_input():
    with pytest.raises(SymmetricInput):
        unhat(np.eye(3))


# ----------------------------------------------------------- finite differences


def test_fd_step_scale():
    assert fd_step(0.0) == pytest.approx(FD_CBRT_EPS)
    assert fd_step(100.0) == pytest.approx(100.0 * FD_CBRT_EPS)


def test_fd_gradient_matches_analytic():
    def f(s):
        return float(s[0] ** 2 + np.sin(s[1]) + s[0] * s[2])

    s = np.array([0.3, -1.2, 0.7])
    exact = np.array([2 * s[0] + s[2], np.cos(s[1]), s[0]])
    assert np.max(np.abs(fd_gradient(f, s) - exact)) <= 1e-8


def test_fd_partials_matches_analytic():
    def f(s):
        return np.array([s[0] * s[1], s[1] ** 2])

    s = np.array([1.5, -0.4])
    exact = np.array([[s[1], 0.0], [s[0], 2 * s[1]]])  # [l, i] = d_l f_i
    assert np.max(np.abs(fd_partials(f, s) - exact)) <= 1e-8


# ---------------------------------------------------------- one derivative path

_FD_HELPERS = {"fd_step", "fd_partials", "fd_gradient"}


def test_only_the_fd_helpers_use_finite_differences():
    """Every patch in the package carries closed-form derivatives: no module
    refers to the finite-difference helpers except those helpers themselves."""
    offenders = []
    for path in sorted(Path(chaplygin.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.name == "geometry.py" and isinstance(top, ast.FunctionDef) and top.name in _FD_HELPERS:
                continue
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name in _FD_HELPERS:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_patches_require_their_derivative_hook():
    with pytest.raises(TypeError, match="partials"):
        FormPatch(degree=1, dim=2, entries=lambda s: np.zeros(2))
    with pytest.raises(TypeError, match="jet"):
        BivectorPatch(dim=2, structure=lambda s: np.zeros((2, 2)))
    with pytest.raises(TypeError, match="gradient"):
        ScalarField(value=lambda s: 0.0)


# -------------------------------------------------------------------- FormPatch


def test_form_patch_rejects_symmetric_output():
    bad = FormPatch(
        degree=2, dim=2, entries=lambda s: np.array([[0.0, 1.0], [0.5, 0.0]]), partials=lambda s: np.zeros((2, 2, 2))
    )
    with pytest.raises(SymmetricInput):
        bad(np.zeros(2))


def test_form_patch_rejects_bad_degree():
    with pytest.raises(ValueError):
        FormPatch(degree=4, dim=3, entries=lambda s: np.zeros((3, 3, 3, 3)), partials=lambda s: np.zeros((3,) * 5))


def test_form_patch_evaluate_contracts():
    entries = np.array([[0.0, 2.0], [-2.0, 0.0]])
    form = FormPatch(degree=2, dim=2, entries=lambda s: entries, partials=lambda s: np.zeros((2, 2, 2)))
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert form.evaluate(np.zeros(2), u, v) == pytest.approx(2.0)
    assert form.evaluate(np.zeros(2), v, u) == pytest.approx(-2.0)


def _cubic_one_form(dim: int, seed: int, with_partials: bool) -> FormPatch:
    """Random one-form with cubic polynomial coefficients; its partials are
    analytic, or finite differences of its entries."""
    rng = np.random.default_rng(seed)
    c0 = rng.standard_normal(dim)
    c1 = rng.standard_normal((dim, dim))
    c3 = 0.1 * rng.standard_normal((dim, dim, dim, dim))

    def entries(s):
        return c0 + c1 @ s + np.einsum("iabc,a,b,c->i", c3, s, s, s)

    def partials(s):
        lin = c1.T.copy()  # [l, i] = d_l alpha_i
        cub = (
            np.einsum("ilbc,b,c->li", c3, s, s)
            + np.einsum("ialc,a,c->li", c3, s, s)
            + np.einsum("iabl,a,b->li", c3, s, s)
        )
        return lin + cub

    if not with_partials:
        return FormPatch(degree=1, dim=dim, entries=entries, partials=lambda s: fd_partials(entries, s))
    return FormPatch(degree=1, dim=dim, entries=entries, partials=partials)


def test_exterior_derivative_of_constant_two_form_vanishes():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    entries = m - m.T
    form = FormPatch(degree=2, dim=4, entries=lambda s: entries, partials=lambda s: fd_partials(form, s))
    d = fd_exterior_derivative(form, rng.standard_normal(4))
    assert np.max(np.abs(d)) <= 1e-10


def test_exterior_derivative_output_antisymmetric():
    form = _cubic_one_form(5, seed=4, with_partials=False)
    d = fd_exterior_derivative(form, np.random.default_rng(5).standard_normal(5))
    assert np.max(np.abs(d + d.T)) == 0.0  # assembled antisymmetric by construction


def test_exterior_derivative_fd_matches_analytic_partials():
    # The momentum-sphere annihilator one-form carries analytic partials;
    # replace them by finite differences and check the derivative agrees.
    body = standard_body(3)
    chi = annihilator_one_form(body, "plain")
    chi_fd = FormPatch(degree=1, dim=6, entries=chi.entries, partials=lambda s: fd_partials(chi.entries, s))
    state = sample_reduced_state(seed=7)
    d_exact = fd_exterior_derivative(chi, state)
    d_fd = fd_exterior_derivative(chi_fd, state)
    assert np.max(np.abs(d_exact - d_fd)) <= 1e-7


def _d_patch(form):
    """d(form) as a 2-form patch whose partials are finite differences."""
    def entries(s):
        return fd_exterior_derivative(form, s)

    return FormPatch(degree=2, dim=form.dim, entries=entries, partials=lambda s: fd_partials(entries, s))


def test_d_squared_zero_fd():
    form = _cubic_one_form(4, seed=8, with_partials=False)
    state = np.random.default_rng(9).standard_normal(4)
    dd = fd_exterior_derivative(_d_patch(form), state)
    assert np.max(np.abs(dd)) <= 1e-5


def test_d_squared_zero_analytic_partials():
    form = _cubic_one_form(4, seed=10, with_partials=True)
    state = np.random.default_rng(11).standard_normal(4)
    dd = fd_exterior_derivative(_d_patch(form), state)
    assert np.max(np.abs(dd)) <= 1e-10


def test_wedge_one_two_identity():
    rng = np.random.default_rng(12)
    n = 5
    alpha = rng.standard_normal(n)
    m = rng.standard_normal((n, n))
    omega = m - m.T
    w = wedge_1_2(alpha, omega)
    # fully antisymmetric
    assert np.max(np.abs(w + np.swapaxes(w, 0, 1))) <= 1e-15
    assert np.max(np.abs(w + np.swapaxes(w, 1, 2))) <= 1e-15
    u, v, z = rng.standard_normal((3, n))
    expected = (
        (alpha @ u) * (v @ omega @ z)
        - (alpha @ v) * (u @ omega @ z)
        + (alpha @ z) * (u @ omega @ v)
    )
    got = np.einsum("abc,a,b,c->", w, u, v, z)
    assert got == pytest.approx(expected, rel=1e-12)


def test_levi_civita_tensor():
    assert EPSILON[0, 1, 2] == 1.0
    assert EPSILON[1, 0, 2] == -1.0
    assert EPSILON[0, 0, 1] == 0.0
    with pytest.raises(ValueError):
        EPSILON[0, 0, 0] = 5.0  # write-locked


# --------------------------------------------------------------------- samplers


def test_sample_reduced_state_deterministic():
    assert np.array_equal(sample_reduced_state(seed=42), sample_reduced_state(seed=42))


def test_sample_reduced_state_unit_gamma():
    for seed in range(50):
        s = sample_reduced_state(seed=seed)
        assert abs(np.linalg.norm(s[:3]) - 1.0) <= 1e-12
        assert np.all(np.abs(s[3:]) <= 1.0)


def test_sample_reduced_state_sphere_uniformity():
    rng = np.random.default_rng(0)
    total = np.zeros(3)
    n = 10_000
    for _ in range(n):
        total += sample_reduced_state(seed=rng)[:3]
    assert np.max(np.abs(total / n)) <= 0.05


def test_random_rotation_properties():
    for seed in range(20):
        g = random_rotation(seed=seed)
        assert np.max(np.abs(g.T @ g - np.eye(3))) <= 1e-12
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(random_rotation(seed=3), random_rotation(seed=3))
