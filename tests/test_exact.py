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
value.

The paper's identities are held exactly, with no bound, at the rational
states themselves: the Jacobi identity of the Poisson variants, the rank-2
plain witness, the conformal and the twisted Jacobi identities of the
Hamiltonizable bracket, and the closed gauge pair (B pi squares to 0)."""

import functools
import itertools

import numpy as np
import pytest
import sympy as sp

from chaplygin import (
    gauge_form_on_M,
    hamiltonizable_variant,
    jacobi_tensor,
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
EXACT_REDUCED = (*GAMMA, _R(3, 10), _R(-1, 10), _R(1, 5))
EXACT_FULL = (*_cayley([_R(1, 2), _R(-1, 3), _R(1, 4)]), _R(1, 5), _R(-1, 7), _R(1, 3), *EXACT_REDUCED[3:])
REDUCED, FULL = (np.array([float(v) for v in state]) for state in (EXACT_REDUCED, EXACT_FULL))


def _q(x):
    """x in QQ, exactly: a sympy Rational, or the binary value of a float."""
    return sp.QQ(x.p, x.q) if isinstance(x, sp.Rational) else sp.QQ(*float(x).as_integer_ratio())


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

    def den(self, gamma):
        """den = |gamma|^2 + sign m r^2 gamma . u with u = gamma/n: the square of the conformal factor."""
        return sum(g * g for g in gamma) + self.smr2 * sum(g * g / n for g, n in zip(gamma, self.n))

    def omega(self, gamma, K) -> list:
        """Omega = K/n - sign m r^2 c u, u = gamma/n, c = K . u / den."""
        u = [g / n for g, n in zip(gamma, self.n)]
        c = sum(k * v for k, v in zip(K, u)) / self.den(gamma)
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


def _exact_partials(entries, state, order: int = 1) -> np.ndarray:
    """The exact values (order 0), partials d_l (order 1) or second partials d_l d_m
    (order 2, axes l, m first) of entries at the rationals of the state (floats or
    sympy Rationals), as an object array: each coordinate carries one nested tangent
    per order."""
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


# ---------------------------------------------------------------------------
# the paper's identities, exactly, at the rational states themselves


def _jacobi(p, dp, phi=None) -> list:
    """sum_l [pi_al d_l pi_bc + pi_bl d_l pi_ca + pi_cl d_l pi_ab] at every sorted triple
    a < b < c, from exact p[a, b] and dp[l, a, b], plus phi(X_a, X_b, X_c) with X_a =
    -pi e_a when a 3-form phi[i, j, k] is given."""
    dim, x = len(p), -p.T  # row a is X_a
    out = []
    for a, b, c in itertools.combinations(range(dim), 3):
        j = sum(p[a, l] * dp[l, b, c] + p[b, l] * dp[l, c, a] + p[c, l] * dp[l, a, b] for l in range(dim))
        out.append(j if phi is None else j + phi.dot(x[c]).dot(x[b]).dot(x[a]))
    return out


def _zero(values) -> bool:
    return all(v == 0 for v in values)


def _reduced_jet(body: _Body, variant: str) -> tuple:
    """The exact reduced bracket and its partials at EXACT_REDUCED."""
    entries = functools.partial(_reduced_bracket, body, variant)
    return tuple(_exact_partials(entries, EXACT_REDUCED, order) for order in (0, 1))


@pytest.mark.parametrize("rank, variant", [(0, "plain"), (3, "primed")])
@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
def test_poisson_variants_satisfy_jacobi_exactly(rank, variant, make):
    """The variants with S(gamma) = p E (x = p) are Poisson as they are."""
    assert _zero(_jacobi(*_reduced_jet(_Body(make(rank)), variant)))


def test_rank2_plain_jacobi_witness_is_exact():
    """The plain rank-2 bracket is not Poisson: its largest Jacobi defect is 12/37,
    which the package's float Jacobi tensor reproduces to round-off."""
    params = standard_body(2)
    witness = max(map(abs, _jacobi(*_reduced_jet(_Body(params), "plain"))))
    assert witness == sp.QQ(12, 37)
    got = np.max(np.abs(jacobi_tensor(reduced_bracket(params, "plain"), REDUCED)))
    assert abs(got - 12 / 37) <= TOL * 12 / 37


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
def test_conformal_rescaling_is_poisson_exactly(rank, make):
    """J(phi pi) = den J(pi) + 1/2 sum_cyc sum_l pi_al d_l den pi_bc = 0 for the
    Hamiltonizable pi, as phi^2 = den and phi d phi = d den / 2: no square root enters."""
    body = _Body(make(rank))
    p, dp = _reduced_jet(body, hamiltonizable_variant(rank))
    d = p.dot(_exact_partials(lambda y: body.den(y[:3]), EXACT_REDUCED))  # d[a] = sum_l pi_al d_l den
    den = body.den([_q(g) for g in GAMMA])
    triples = itertools.combinations(range(len(p)), 3)
    assert _zero(den * j + (d[a] * p[b, c] + d[b] * p[c, a] + d[c] * p[a, b]) / 2
                 for j, (a, b, c) in zip(_jacobi(p, dp), triples))


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
def test_twisted_jacobi_identity_is_exact(rank, make):
    """J(pi) + phi(X_a, X_b, X_c) = 0 for the Hamiltonizable pi, with phi = sign dB
    and X_a = -pi e_a."""
    body = _Body(make(rank))
    phi = body.sign * _d_two_form(_exact_partials(functools.partial(_twist_two_form, body), EXACT_REDUCED))
    assert _zero(_jacobi(*_reduced_jet(body, hamiltonizable_variant(rank)), phi))


@pytest.mark.parametrize("make", BODIES.values(), ids=BODIES.keys())
@pytest.mark.parametrize("form", ["plain", "gauged"])
def test_gauge_pair_is_closed_exactly(rank, make, form):
    """At the rational rotation X = B pi is zero outside rows 0-8 x columns 12-14,
    so X @ X = 0, and pi B pi is zero outside the K-K block."""
    body, y = _Body(make(rank)), [_q(v) for v in EXACT_FULL]
    pi, b = (np.array(m, dtype=object) for m in (_full_bracket(body, form, y), _gauge_form(body, y)))
    x = b.dot(pi)
    outside = np.ones((15, 15), dtype=bool)
    outside[:9, 12:] = False
    assert _zero(x[outside]) and _zero(x.dot(x).ravel())
    pbp = pi.dot(x)
    pbp[12:, 12:] = 0
    assert _zero(pbp.ravel())
