"""Exact oracles for the closed-form jets: Omega and its Jacobians, the
partials of the full and the reduced brackets, of the full gauge 2-form and
of the twist forms, held against their exact values at the very floats the
package sees.

The oracles are written from the formulas of the paper, not from the
package's code: Omega = K/n - sign m r^2 c u by Sherman-Morrison (the text
of ``body._OMEGA``), which is also the package's Omega off the unit sphere
(a linear solve agrees with it only on the sphere), and each bracket entry
as its docstring states it.  They run in sympy's exact rationals QQ and are
differentiated one coordinate at a time by forward mode: that coordinate
carries a tangent eps with eps^2 = 0, so the eps part of each entry is its
exact partial; a second tangent on top of the first gives the second
partials.  The full state sits at a rational Cayley rotation.  Omega itself
is also held against an exact linear solve, which does not use the
Sherman-Morrison text.  The bound is round-off: 1e-14 of the largest exact
value."""

import functools
import itertools

import numpy as np
import pytest
import sympy as sp

from chaplygin import (
    gauge_form_on_M,
    matrix_A,
    nh_bracket_full,
    omega_from_K,
    omega_jacobians,
    reduced_bracket,
    twist_three_form,
    twist_two_form,
)
from conftest import VARIANTS, asymmetric_body, standard_body

BODIES = {"standard": standard_body, "asymmetric": asymmetric_body}
TOL = 1e-14
_R = sp.Rational


def _cayley(a) -> sp.Matrix:
    """The rotation (E - hat a)^-1 (E + hat a) of a rational vector a."""
    h = sp.Matrix([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return (sp.eye(3) - h).inv() * (sp.eye(3) + h)


GAMMA = (_R(1, 3), _R(-2, 3), _R(2, 3))  # a rational unit vector
REDUCED = np.array([float(v) for v in (*GAMMA, _R(3, 10), _R(-1, 10), _R(1, 5))])
FULL = np.concatenate([np.array(_cayley([_R(1, 2), _R(-1, 3), _R(1, 4)]), dtype=float).ravel(),
                       [float(_R(1, 5)), float(_R(-1, 7)), float(_R(1, 3))], REDUCED[3:]])


def _q(x):
    """The float x in QQ, exactly."""
    return sp.QQ(*float(x).as_integer_ratio())


class _Dual:
    """a + b eps with eps^2 = 0 over QQ: b is the partial along the tangent eps."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = a, b

    def __add__(self, v):
        v = _dual(v)
        return _Dual(self.a + v.a, self.b + v.b)

    def __neg__(self):
        return _Dual(-self.a, -self.b)

    def __sub__(self, v):
        return self + -_dual(v)

    def __rsub__(self, v):
        return _dual(v) - self

    def __mul__(self, v):
        v = _dual(v)
        return _Dual(self.a * v.a, self.a * v.b + self.b * v.a)

    def __truediv__(self, v):
        v = _dual(v)
        return _Dual(self.a / v.a, (self.b * v.a - self.a * v.b) / (v.a * v.a))

    def __rtruediv__(self, v):
        return _dual(v) / self

    __radd__, __rmul__ = __add__, __mul__


def _dual(v) -> _Dual:
    return v if isinstance(v, _Dual) else _Dual(v)


def _eps(i: int, j: int, k: int) -> int:
    """The Levi-Civita symbol on 0..2."""
    return (i - j) * (j - k) * (k - i) // 2


def _hat(v) -> list:
    return [[-sum(_eps(i, j, k) * v[k] for k in range(3)) for j in range(3)] for i in range(3)]


class _Body:
    """A body's constants in QQ: m r^2, n = I + p m r^2, sign = x - p and sign m r^2,
    Q = A^T A = diag(p, p, x) and r A (the package's A, in rationals)."""

    def __init__(self, params):
        self.p, self.x = int(params.rank >= 2), params.rank % 2
        self.mr2 = _q(params.mass) * _q(params.radius) ** 2
        self.n = [_q(i) + self.p * self.mr2 for i in params.inertia]
        self.sign = self.x - self.p
        self.smr2 = self.sign * self.mr2
        self.ata = (self.p, self.p, self.x)
        self.ra = [[_q(params.radius) * _q(a) for a in row] for row in matrix_A(params)]

    def omega(self, gamma, K) -> list:
        """Omega = K/n - sign m r^2 c u, u = gamma/n, c = K . u / den, den = |gamma|^2 + sign m r^2 gamma . u."""
        u = [g / n for g, n in zip(gamma, self.n)]
        den = sum(g * g for g in gamma) + self.smr2 * sum(g * v for g, v in zip(gamma, u))
        c = sum(k * v for k, v in zip(K, u)) / den
        return [k / n - self.smr2 * c * v for k, n, v in zip(K, self.n, u)]


def _full_bracket(body: _Body, form: str, y) -> list:
    """{g_ij, K_l} = -eps_jlk g_ik, {x_i, K_l} = r (A g)_il and {K_i, K_j} = hat(W)_ij with
    W = K + m r^2 (T - [gauged] E) Omega, T = g^T A^T A g."""
    g, K = [y[0:3], y[3:6], y[6:9]], y[12:]
    omega = body.omega(g[2], K)
    t = [[sum(body.ata[k] * g[k][i] * g[k][j] for k in range(3)) - (form == "gauged") * (i == j) for j in range(3)]
         for i in range(3)]
    w = [K[i] + body.mr2 * sum(t[i][j] * omega[j] for j in range(3)) for i in range(3)]
    pi = [[0] * 15 for _ in range(15)]
    for i, j, l in itertools.product(range(3), repeat=3):
        pi[3 * i + j][12 + l] = -sum(_eps(j, l, k) * g[i][k] for k in range(3))
        pi[9 + i][12 + l] = sum(body.ra[i][k] * g[k][l] for k in range(3))
    for a in range(12):
        for b in range(12, 15):
            pi[b][a] = -pi[a][b]
    for i, row in enumerate(_hat(w)):
        pi[12 + i][12:] = row
    return pi


def _reduced_bracket(body: _Body, variant: str, y) -> list:
    """[[0, hat gamma], [hat gamma, hat V]] with V = K + m r^2 (S(gamma) - [primed] E) Omega,
    S(gamma) = p E + (x - p) gamma gamma^T."""
    gamma, K = y[:3], y[3:]
    omega = body.omega(gamma, K)
    s = [[(body.p - (variant == "primed")) * (i == j) + (body.x - body.p) * gamma[i] * gamma[j] for j in range(3)]
         for i in range(3)]
    v = [K[i] + body.mr2 * sum(s[i][j] * omega[j] for j in range(3)) for i in range(3)]
    hg = _hat(gamma)
    return [[0] * 3 + hg[i] for i in range(3)] + [hg[i] + hv for i, hv in enumerate(_hat(v))]


def _gauge_form(body: _Body, y) -> list:
    """B(U, V) = m r^2 Omega . (u x v) on the g-g block, with u the body-frame rotation
    vector of U, u_d = 1/2 eps_dbc (g^T U)_cb: for U = e_a e_b^T, u_d = 1/2 eps_dbc g_ac."""
    g, K = [y[0:3], y[3:6], y[6:9]], y[12:]
    omega = body.omega(g[2], K)
    us = [[sum(_eps(d, b, c) * g[a][c] for c in range(3)) / 2 for d in range(3)]
          for a, b in itertools.product(range(3), repeat=2)]
    out = [[0] * 15 for _ in range(15)]
    for i, j in itertools.product(range(9), repeat=2):
        u, v = us[i], us[j]
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        out[i][j] = body.mr2 * sum(o * c for o, c in zip(omega, cross))
    return out


def _twist_two_form(body: _Body, y) -> list:
    """B_ab = m r^2 (Omega . gamma) eps_abl gamma_l on the gamma-gamma block."""
    gamma, K = y[:3], y[3:]
    f = sum(o * g for o, g in zip(body.omega(gamma, K), gamma))
    out = [[0] * 6 for _ in range(6)]
    for a, b in itertools.product(range(3), repeat=2):
        out[a][b] = body.mr2 * f * sum(_eps(a, b, l) * gamma[l] for l in range(3))
    return out


def _d_two_form(p: np.ndarray) -> np.ndarray:
    """(dB)_ijk = d_i B_jk - d_j B_ik + d_k B_ij from p[..., l, a, b] = d_l B_ab."""
    return p - np.swapaxes(p, -3, -2) + np.moveaxis(p, -3, -1)


def _exact_partials(entries, state: np.ndarray, order: int = 1) -> np.ndarray:
    """The exact values (order 0), partials d_l (order 1) or second partials d_l d_m
    (order 2, axes l, m first) of entries at the rationals of the float state, as an
    object array: each coordinate carries one nested tangent per order."""
    y0 = [_q(v) for v in state]
    out = []
    for ls in itertools.product(range(len(y0)), repeat=order):
        y = y0
        for l in ls:
            y = [_Dual(v, int(i == l)) for i, v in enumerate(y)]
        e = np.array(entries(y), dtype=object)
        for _ in ls:
            e = np.vectorize(lambda t: _dual(t).b, otypes=[object])(e)
        out.append(e)
    return np.array(out, dtype=object).reshape((len(y0),) * order + out[0].shape)


def _assert_exact(got: np.ndarray, exact: np.ndarray):
    exact = np.asarray(exact, dtype=float)
    assert got.shape == exact.shape
    assert np.max(np.abs(got - exact)) <= TOL * np.max(np.abs(exact))


@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
@pytest.mark.parametrize("form", ["plain", "gauged"])
def test_full_bracket_partials_are_exact(rank, make, form):
    params = make(rank)
    exact = _exact_partials(lambda y: _full_bracket(_Body(params), form, y), FULL)
    _assert_exact(nh_bracket_full(params, form).partial_tensor(FULL), exact)


@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
@pytest.mark.parametrize("variant", VARIANTS)
def test_reduced_bracket_partials_are_exact(rank, make, variant):
    params = make(rank)
    exact = _exact_partials(lambda y: _reduced_bracket(_Body(params), variant, y), REDUCED)
    _assert_exact(reduced_bracket(params, variant).partial_tensor(REDUCED), exact)


@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
def test_gauge_form_partials_are_exact(rank, make):
    params = make(rank)
    exact = _exact_partials(lambda y: _gauge_form(_Body(params), y), FULL)
    _assert_exact(gauge_form_on_M(params).partial_tensor(FULL), exact)


@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
def test_omega_jacobians_are_exact(rank, make):
    params = make(rank)
    exact = _exact_partials(lambda y: _Body(params).omega(y[:3], y[3:]), REDUCED)
    _assert_exact(np.concatenate(omega_jacobians(params, REDUCED[:3], REDUCED[3:]), axis=1), exact.T)


@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
def test_omega_solves_the_momentum_map_exactly(rank, make):
    """Omega from sympy's solve of (I + m r^2 S(gamma)) Omega = K with S(gamma) =
    p E + (x - p) gamma gamma^T, at the exact unit gamma that REDUCED rounds."""
    params = make(rank)
    body, gamma = _Body(params), sp.Matrix(GAMMA)
    s = body.p * sp.eye(3) + (body.x - body.p) * gamma * gamma.T
    omega = (sp.diag(*map(_q, params.inertia)) + body.mr2 * s).LUsolve(sp.Matrix(list(map(_q, REDUCED[3:]))))
    _assert_exact(omega_from_K(params, REDUCED[:3], REDUCED[3:]), np.array(omega).ravel())


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
def test_twist_two_form_is_exact(rank, make):
    params = make(rank)
    b, entries = twist_two_form(params), functools.partial(_twist_two_form, _Body(params))
    _assert_exact(b(REDUCED), _exact_partials(entries, REDUCED, 0))
    _assert_exact(b.partial_tensor(REDUCED), _exact_partials(entries, REDUCED))


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
def test_twist_three_form_is_exact(rank, make):
    """phi = sign dB, and its partials sign d over the second partials of B."""
    params = make(rank)
    body, phi = _Body(params), twist_three_form(params)
    partials = [_exact_partials(functools.partial(_twist_two_form, body), REDUCED, order) for order in (1, 2)]
    _assert_exact(phi(REDUCED), body.sign * _d_two_form(partials[0]))
    _assert_exact(phi.partial_tensor(REDUCED), body.sign * _d_two_form(partials[1]))
