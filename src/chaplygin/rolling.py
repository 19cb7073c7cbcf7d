"""Rigid body with a generalized rolling constraint of rank 0..3.

Reduced phase space: states are 6-vectors (gamma, K) where gamma is the
advected vertical direction in the body frame and K the constrained
momentum.  Full phase space: 15-vectors (g row-major, x, K) with g the
attitude rotation (gamma is the third row of g) and x the contact-plane
position.

For each rank there are two reduced almost-Poisson structures ("plain" and
"primed", the latter obtained by a gauge transformation); both have the
block form

    pi = [[0,      hat(gamma)],
          [hat(gamma),  hat(V)]],      V = K + m r^2 (a Omega + b (Omega.gamma) gamma)

with a = p - [primed] and b = x - p, i.e. V = K + m r^2 (S(gamma) - [primed] E)
Omega with S(gamma) = g^T A^T A g.  The constraint has A^T A = diag(p, p, x)
with p = [rank >= 2] and x = [rank odd]; every rank-dependent term derives
from these two bits (``_rank_bits``).  Rank 2 with an SO(2) angle of -pi/2
is the Chaplygin sphere.

Brackets, forms, fields and the Omega helpers also take a stack (N, d) of
states; the stepper's kernels (``BodyParams._kernels``) stay on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .brackets import BivectorPatch, ScalarField
from .errors import DegenerateDenominator, NonFiniteState, UnsupportedRank
from .geometry import (
    EPSILON,
    FormPatch,
    _first_bad,
    _mv,
    _swap,
    fd_exterior_derivative,
    hat,
    random_rotation,
)

__all__ = [
    "FULL_DIM",
    "REDUCED_DIM",
    "RHO_INDEX",
    "BodyParams",
    "K_from_omega",
    "X_nh_full",
    "annihilator_one_form",
    "casimir_gamma_norm",
    "casimir_kgamma",
    "conformal_factor",
    "full_hamiltonian_field",
    "gauge_form_on_M",
    "hamiltonian",
    "horizontal_lift",
    "hamiltonian_field",
    "hamiltonizable_variant",
    "invariant_density",
    "leafwise_two_form",
    "lift_reduced_state",
    "matrix_A",
    "nh_bracket_full",
    "omega_from_K",
    "omega_jacobians",
    "pack_full",
    "poisson_variant",
    "project_rho",
    "reduced_bracket",
    "reduced_vf",
    "reduction_consistency",
    "reduction_defect",
    "sample_full_state",
    "split_full",
    "split_reduced",
    "twist_three_form",
    "twist_two_form",
]

REDUCED_DIM = 6
FULL_DIM = 15
# positions of (gamma, K) in a full state: gamma is the third row of g
RHO_INDEX = np.array([6, 7, 8, 12, 13, 14])
RHO_INDEX.setflags(write=False)

# _HAT_BASIS[l] = hat(e_l) = d hat(gamma) / d x_l on the reduced chart, zero for l >= 3
_HAT_BASIS = np.concatenate([-EPSILON.transpose(2, 0, 1), np.zeros((3, 3, 3))])
_HAT_BASIS.setflags(write=False)
# the constant part of the reduced bracket partials: d_l of the two hat(gamma) blocks
_BRACKET_BASE = np.zeros((REDUCED_DIM,) * 3)
_BRACKET_BASE[:, :3, 3:] = _BRACKET_BASE[:, 3:, :3] = _HAT_BASIS
_BRACKET_BASE.setflags(write=False)


def _rank_bits(rank: int) -> tuple[float, float]:
    """(p, x) with A^T A = diag(p, p, x): p = [rank >= 2], x = [rank odd].

    So S(gamma) = g^T A^T A g = p E + (x - p) gamma gamma^T on the reduced space.
    """
    if isinstance(rank, bool) or not isinstance(rank, int) or rank not in (0, 1, 2, 3):
        raise UnsupportedRank(f"constraint rank must be an int in 0..3, got {rank!r}")
    return float(rank >= 2), float(rank % 2)


def hamiltonizable_variant(rank: int) -> str:
    """The variant that is Poisson after (at most) a conformal rescaling: the
    primed one (V = K + m r^2 (S - E) Omega) exactly when p = 1."""
    return "primed" if _rank_bits(rank)[0] else "plain"


def poisson_variant(rank: int):
    """The variant that is Poisson as-is, or None: S(gamma) = p E there
    (x = p), so the Hamiltonizable bracket needs no conformal factor."""
    p, x = _rank_bits(rank)
    return hamiltonizable_variant(rank) if x == p else None


def _v_coeffs(rank: int, variant: str) -> tuple[float, float]:
    """(a, b) of V = K + m r^2 (a Omega + b (Omega.gamma) gamma) =
    K + m r^2 (S(gamma) - [primed] E) Omega: a = p - [primed], b = x - p."""
    p, x = _rank_bits(rank)
    return p - (variant == "primed"), x - p


def _check_variant(variant: str):
    if variant not in ("plain", "primed"):
        raise ValueError(f"variant must be 'plain' or 'primed', got {variant!r}")


@dataclass(frozen=True)
class BodyParams:
    """Body and constraint data: principal inertia, mass, ball radius, rank
    of the generalized rolling constraint, and the SO(2) angle entering the
    constraint matrix for ranks 2 and 3 (-pi/2 is the rubber/Chaplygin pairing).
    """

    inertia: tuple[float, float, float]
    mass: float
    radius: float
    rank: int
    so2_angle: float = -0.5 * math.pi

    def __post_init__(self):
        if len(self.inertia) != 3 or any(not 0.0 < i < math.inf for i in self.inertia):
            raise ValueError(f"inertia must be three finite positive moments, got {self.inertia}")
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be finite and positive, got {self.mass}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        if not math.isfinite(self.so2_angle):
            raise ValueError(f"so2_angle must be finite, got {self.so2_angle}")
        _rank_bits(self.rank)  # raises UnsupportedRank unless an int in 0..3

    @cached_property
    def mr2(self) -> float:
        return self.mass * self.radius**2

    @cached_property
    def _rank_terms(self) -> tuple[float, tuple[float, float, float]]:
        """(sign, n) with I + m r^2 S(gamma) = diag(n) + sign m r^2 gamma gamma^T:
        sign = x - p and n = I + p m r^2, as Python floats; computed once per body."""
        p, x = _rank_bits(self.rank)
        shift = p * self.mr2
        return x - p, tuple(float(i) + shift for i in self.inertia)

    @cached_property
    def _kernels(self) -> "_Kernels":
        """The per-step kernels of this body on Python floats; built once."""
        return _build_kernels(self)


def _checked(state, dim: int, chart: str) -> np.ndarray:
    """A state (dim,) or a stack (..., dim) of states of the chart."""
    state = np.asarray(state, dtype=float)
    if state.shape[-1:] != (dim,):
        raise ValueError(f"expected a {dim}-dim {chart} state, got shape {state.shape}")
    return state


def split_reduced(state) -> tuple[np.ndarray, np.ndarray]:
    state = _checked(state, REDUCED_DIM, "reduced")
    return state[..., :3], state[..., 3:]


def matrix_A(params: BodyParams) -> np.ndarray:
    """Constraint matrix A of rank ``params.rank``, with A^T A = diag(p, p, x):
    a planar rotation by ``so2_angle`` in the upper-left block if p, and
    A[2, 2] = x."""
    p, x = _rank_bits(params.rank)
    a = np.zeros((3, 3))
    if p:
        c, s = math.cos(params.so2_angle), math.sin(params.so2_angle)
        a[:2, :2] = [[c, -s], [s, c]]
    a[2, 2] = x
    return a


def _check_denominator(rank: int, den, g2):
    """Raise NonFiniteState where |gamma|^2 or den overflows (the correction
    term would silently vanish; a blow-up reaches the integrator this way)
    and DegenerateDenominator where den <= 1e-12 |gamma|^2 (gamma = 0 too);
    NaN passes.  Floats for one state; arrays for many, naming the first
    offending row."""
    den, g2 = np.asarray(den), np.asarray(g2)
    if bad := _first_bad((g2 == math.inf) | (den == math.inf)):
        raise NonFiniteState(f"non-finite state: rank-{rank} |gamma|^2 overflows{bad[1]}")
    if bad := _first_bad(den <= 1e-12 * np.maximum(g2, 1e-300)):
        i, where = bad
        raise DegenerateDenominator(
            f"rank-{rank} denominator {den.flat[i]:.3e} at |gamma|^2 = {g2.flat[i]:.3e}{where}"
        )


class _Kernels(NamedTuple):
    """Per-body kernels on Python floats (see _build_kernels)."""

    omega: Callable  # (gamma, K) -> (Omega, u, den, c)
    reduced: Callable  # 6 floats (gamma, K) -> their 6 time derivatives
    full: Callable  # 15 floats (g, x, K) -> their 15 time derivatives


def _build_kernels(params: BodyParams) -> _Kernels:
    sign, (n1, n2, n3) = params._rank_terms
    smr2 = sign * params.mr2
    rank, inf = params.rank, math.inf
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = (params.radius * matrix_A(params)).tolist()

    def omega(gamma, k):
        """Omega = K/n - sign m r^2 c u with u = gamma/n, den = |gamma|^2 + sign
        m r^2 gamma . u (the Sherman-Morrison denominator of diag(n) + sign m r^2
        gamma gamma^T, phi^2 on the unit sphere) and c = K . u / den.

        The components are Python floats for one state or numpy columns for
        many; both round left to right, so a batch equals its rows bit for
        bit.  Returns (Omega, u, den, c); u, den, c are None when sign = 0.
        """
        k1, k2, k3 = k
        if not sign:
            return (k1 / n1, k2 / n2, k3 / n3), None, None, None
        g1, g2, g3 = gamma
        u1, u2, u3 = g1 / n1, g2 / n2, g3 / n3
        gg = g1 * g1 + g2 * g2 + g3 * g3
        den = gg + smr2 * (g1 * u1 + g2 * u2 + g3 * u3)
        # floats that pass this test are ones _check_denominator lets through
        if not (isinstance(den, float) and 1e-300 <= gg < inf and 1e-12 * gg < den < inf):
            _check_denominator(rank, den, gg)
        c = (k1 * u1 + k2 * u2 + k3 * u3) / den
        s = smr2 * c
        return (k1 / n1 - s * u1, k2 / n2 - s * u2, k3 / n3 - s * u3), (u1, u2, u3), den, c

    def reduced(y):
        g1, g2, g3, k1, k2, k3 = y
        w1, w2, w3 = omega((g1, g2, g3), (k1, k2, k3))[0]
        return (
            g2 * w3 - g3 * w2, g3 * w1 - g1 * w3, g1 * w2 - g2 * w1,
            k2 * w3 - k3 * w2, k3 * w1 - k1 * w3, k1 * w2 - k2 * w1,
        )

    # g' = g x Omega row by row (gamma is the third row), x' = r A g Omega, K' = K x Omega
    def full(y):
        a1, a2, a3, b1, b2, b3, g1, g2, g3, _, _, _, k1, k2, k3 = y
        w1, w2, w3 = omega((g1, g2, g3), (k1, k2, k3))[0]
        v1 = a1 * w1 + a2 * w2 + a3 * w3
        v2 = b1 * w1 + b2 * w2 + b3 * w3
        v3 = g1 * w1 + g2 * w2 + g3 * w3
        return (
            a2 * w3 - a3 * w2, a3 * w1 - a1 * w3, a1 * w2 - a2 * w1,
            b2 * w3 - b3 * w2, b3 * w1 - b1 * w3, b1 * w2 - b2 * w1,
            g2 * w3 - g3 * w2, g3 * w1 - g1 * w3, g1 * w2 - g2 * w1,
            r11 * v1 + r12 * v2 + r13 * v3, r21 * v1 + r22 * v2 + r23 * v3, r31 * v1 + r32 * v2 + r33 * v3,
            k2 * w3 - k3 * w2, k3 * w1 - k1 * w3, k1 * w2 - k2 * w1,
        )

    return _Kernels(omega, reduced, full)


def K_from_omega(params: BodyParams, gamma, omega) -> np.ndarray:
    """K = n Omega + sign m r^2 (gamma . Omega) gamma = (I + m r^2 S(gamma)) Omega,
    for one state or each row of a stack (..., 3) (bit for bit)."""
    gamma = np.asarray(gamma, dtype=float)
    omega = np.asarray(omega, dtype=float)
    sign, n = params._rank_terms
    return np.array(n) * omega + (sign * params.mr2 * np.vecdot(gamma, omega))[..., None] * gamma


def omega_from_K(params: BodyParams, gamma, K) -> np.ndarray:
    """Angular velocity from constrained momentum, in closed form.

    Inverts K = (I + m r^2 S(gamma)) Omega by Sherman-Morrison.  The rank-1
    and rank-2 expressions carry |gamma|^2 in their denominators; they invert
    K_from_omega exactly on the unit sphere and extend smoothly off it, so
    their partials hold off the sphere too.

    gamma and K may carry leading axes, e.g. (N, 3) for N states; each row
    equals the 1-d call on that row bit for bit (one component formula on
    floats or columns).  Raises DegenerateDenominator if any row is degenerate.
    """
    return _omega_terms(params, gamma, K)[0]


def _omega_terms(params: BodyParams, gamma, K) -> tuple:
    """The omega kernel on the components of gamma and K, Python floats for
    one state or numpy columns for a stack: (Omega, u, den, c) with Omega
    and u as arrays (..., 3) and den, c floats or arrays (...,); u, den, c
    are None when sign = 0."""
    gamma = np.asarray(gamma, dtype=float)
    K = np.asarray(K, dtype=float)
    kernel = params._kernels.omega
    if gamma.ndim == 1 and K.ndim == 1:
        omega, u, den, c = kernel(gamma.tolist(), K.tolist())
        return np.array(omega), None if u is None else np.array(u), den, c
    # the kernel's denominator check raises on an overflow, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        omega, u, den, c = kernel(np.moveaxis(gamma, -1, 0), np.moveaxis(K, -1, 0))
    return np.stack(omega, axis=-1), None if u is None else np.stack(u, axis=-1), den, c


def _omega_and_jacobians(params: BodyParams, gamma, K) -> tuple:
    """(Omega, d Omega / d gamma, d Omega / d K) at one state or a stack, from
    one evaluation of the Sherman-Morrison terms."""
    gamma = np.asarray(gamma, dtype=float)
    K = np.asarray(K, dtype=float)
    sign, n = params._rank_terms
    omega, u, den, c = _omega_terms(params, gamma, K)
    n = np.array(n)
    inv_n = np.diag(1.0 / n)
    if not sign:
        return omega, np.zeros(omega.shape + (3,)), np.zeros(omega.shape + (3,)) + inv_n
    smr2 = sign * params.mr2
    den, c = np.asarray(den)[..., None], np.asarray(c)[..., None]
    dden = 2.0 * gamma + 2.0 * smr2 * u
    dc = (K / n) / den - (c / den) * dden
    d_gamma = -smr2 * (u[..., :, None] * dc[..., None, :] + c[..., None] * inv_n)
    d_k = inv_n - (smr2 / den)[..., None] * (u[..., :, None] * u[..., None, :])
    return omega, d_gamma, d_k


def omega_jacobians(params: BodyParams, gamma, K) -> tuple[np.ndarray, np.ndarray]:
    """(d Omega / d gamma, d Omega / d K), both 3x3 with [i, j] = d Omega_i / d coord_j."""
    return _omega_and_jacobians(params, gamma, K)[1:]


def hamiltonian(params: BodyParams, state):
    """H = K . Omega / 2 at a reduced state, or at each row of a stack."""
    gamma, K = split_reduced(state)
    return 0.5 * np.vecdot(K, omega_from_K(params, gamma, K))


def hamiltonian_field(params: BodyParams) -> ScalarField:
    """Reduced Hamiltonian H = K . Omega / 2 with its analytic gradient."""

    def gradient(s):
        gamma, K = split_reduced(s)
        omega, d_gamma, _ = _omega_and_jacobians(params, gamma, K)
        return np.concatenate([0.5 * _mv(_swap(d_gamma), K), omega], axis=-1)

    return ScalarField(value=lambda s: hamiltonian(params, s), gradient=gradient, name="H")


def reduced_vf(params: BodyParams, state) -> np.ndarray:
    """Equations of motion on the reduced space: (gamma, K)' = (gamma x Omega, K x Omega),
    evaluated on Python floats by the body's reduced kernel (on numpy columns
    for a stack of states)."""
    state = _checked(state, REDUCED_DIM, "reduced")
    if state.ndim == 1:
        return np.array(params._kernels.reduced(state.tolist()))
    return np.stack(params._kernels.reduced(list(np.moveaxis(state, -1, 0))), axis=-1)


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.outer of each pair of vectors of a stack."""
    return u[..., :, None] * v[..., None, :]


def _v_vector(params: BodyParams, gamma, K, variant: str, omega) -> np.ndarray:
    """V = K + m r^2 (a Omega + b (Omega . gamma) gamma) for the given Omega."""
    a, b = _v_coeffs(params.rank, variant)
    return K + params.mr2 * (a * omega + b * np.vecdot(omega, gamma)[..., None] * gamma)


def _omega_dot_gamma_grads(params: BodyParams, gamma, K) -> tuple:
    """Omega, Omega . gamma, its gradients in gamma and in K, and omega_jacobians."""
    omega, d_gamma, d_k = _omega_and_jacobians(params, gamma, K)
    og = np.vecdot(omega, gamma)
    return omega, og, _mv(_swap(d_gamma), gamma) + omega, _mv(_swap(d_k), gamma), d_gamma, d_k


def _v_jet(params: BodyParams, gamma, K, variant: str) -> tuple:
    """(V, dV/dgamma, dV/dK) from one evaluation of Omega and its Jacobians;
    Jacobian columns are indexed by the differentiation coordinate."""
    a, b = _v_coeffs(params.rank, variant)
    mr2 = params.mr2
    omega, og, dog_dgamma, dog_dk, d_gamma, d_k = _omega_dot_gamma_grads(params, gamma, K)
    dv_gamma = mr2 * (a * d_gamma + b * (_outer(gamma, dog_dgamma) + og[..., None, None] * np.eye(3)))
    dv_k = np.eye(3) + mr2 * (a * d_k + b * _outer(gamma, dog_dk))
    return _v_vector(params, gamma, K, variant, omega), dv_gamma, dv_k


def _omega_dot_gamma_hessian(params: BodyParams, gamma, K) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (..., 6) and Hessian (..., 6, 6) in (gamma, K) of f = Omega . gamma
    at ranks 1 and 2, in closed form: f den = |gamma|^2 (K . u) with u = gamma / n
    and den the denominator of the omega kernel (which also checks it), and
    every factor of that product has constant second derivatives."""
    sign, n = params._rank_terms
    _, u, den, _ = _omega_terms(params, gamma, K)
    inv_n, zero = 1.0 / np.array(n), np.zeros_like(u)
    den = np.asarray(den)[..., None]
    gg, ku = np.vecdot(gamma, gamma)[..., None], np.vecdot(K, u)[..., None]
    f = gg * ku / den
    d_ku = np.concatenate([K * inv_n, u], axis=-1)
    d_gg = np.concatenate([2.0 * gamma, zero], axis=-1)
    d_den = d_gg + np.concatenate([(2.0 * sign * params.mr2) * u, zero], axis=-1)
    dd_ku = np.zeros((REDUCED_DIM, REDUCED_DIM))
    dd_ku[:3, 3:] = dd_ku[3:, :3] = np.diag(inv_n)
    dd_gg = np.diag([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])
    dd_den = dd_gg + np.diag(np.concatenate([(2.0 * sign * params.mr2) * inv_n, np.zeros(3)]))
    df = (gg * d_ku + ku * d_gg - f * d_den) / den
    gg, ku, f, den = gg[..., None], ku[..., None], f[..., None], den[..., None]
    dd_fden = gg * dd_ku + _outer(d_ku, d_gg) + _outer(d_gg, d_ku) + ku * dd_gg
    return df, (dd_fden - _outer(df, d_den) - _outer(d_den, df) - f * dd_den) / den


def reduced_bracket(params: BodyParams, variant: str = "plain") -> BivectorPatch:
    """Almost-Poisson structure on (gamma, K) in block form [[0, hat g], [hat g, hat V]].

    Its jet takes V and its Jacobians from one evaluation of Omega."""
    _check_variant(variant)

    def matrix(gamma, v):
        p = np.zeros(gamma.shape[:-1] + (6, 6))
        p[..., :3, 3:] = p[..., 3:, :3] = hat(gamma)
        p[..., 3:, 3:] = hat(v)
        return p

    def structure(s):
        gamma, K = split_reduced(s)
        return matrix(gamma, _v_vector(params, gamma, K, variant, omega_from_K(params, gamma, K)))

    def jet(s):
        gamma, K = split_reduced(s)
        v, dv_gamma, dv_k = _v_jet(params, gamma, K, variant)
        dp = np.broadcast_to(_BRACKET_BASE, gamma.shape[:-1] + _BRACKET_BASE.shape).copy()
        # d_l hat(V) = hat(d_l V)
        dp[..., 3:, 3:] = hat(_swap(np.concatenate([dv_gamma, dv_k], axis=-1)))
        return matrix(gamma, v), dp

    return BivectorPatch(dim=REDUCED_DIM, structure=structure, name=f"rank{params.rank}-{variant}", jet=jet)


def conformal_factor(params: BodyParams) -> ScalarField:
    """The positive function that rescales the Hamiltonizable bracket into a
    Poisson one: sqrt(|gamma|^2 + m r^2 gamma . I^-1 gamma) for rank 1,
    sqrt(|gamma|^2 - m r^2 gamma . (I + m r^2)^-1 gamma) for rank 2 (the
    denominator of omega_from_K), and the constant 1 for ranks 0 and 3.
    """
    sign, n = params._rank_terms
    if not sign:
        return ScalarField(value=lambda s: 1.0, gradient=lambda s: np.zeros(s.shape), name="phi=1")
    w1, w2, w3 = weight = [1.0 + sign * params.mr2 / n_i for n_i in n]

    def value(s):
        # Python floats, left to right: this is the factor the reparametrized
        # stepper uses on lists; an array takes its columns (same bits per row)
        g1, g2, g3 = s[:3] if type(s) is list else (s[..., 0], s[..., 1], s[..., 2])
        q = g1 * (w1 * g1) + g2 * (w2 * g2) + g3 * (w3 * g3)
        return math.sqrt(q) if isinstance(q, float) else np.sqrt(q)

    def gradient(s):
        phi = np.asarray(value(s))
        if bad := _first_bad(phi == 0.0):
            raise DegenerateDenominator(f"rank-{params.rank} conformal factor vanishes at gamma = 0{bad[1]}")
        out = np.zeros(s.shape)
        out[..., :3] = np.array(weight) * s[..., :3] / phi[..., None]
        return out

    return ScalarField(value=value, gradient=gradient, name=f"phi_rank{params.rank}")


def invariant_density(params: BodyParams) -> ScalarField:
    """Density of the smooth invariant measure on (gamma, K): 1/conformal_factor."""
    if not params._rank_terms[0]:
        return ScalarField(value=lambda s: 1.0, gradient=lambda s: np.zeros(s.shape), name="mu=1")
    phi = conformal_factor(params)

    def value(s):
        p = phi(s)
        if bad := _first_bad(p == 0.0):
            raise DegenerateDenominator(f"rank-{params.rank} invariant density 1/phi at phi = 0{bad[1]}")
        return 1.0 / p

    def gradient(s):
        p = np.asarray(phi(s))[..., None]
        return -phi.grad(s) / (p * p)

    return ScalarField(value=value, gradient=gradient, name=f"mu_rank{params.rank}")


def casimir_kgamma() -> ScalarField:
    """C1 = K . gamma on the reduced space."""

    def gradient(s):
        gamma, K = split_reduced(s)
        return np.concatenate([K, gamma], axis=-1)

    return ScalarField(value=lambda s: np.vecdot(s[..., :3], s[..., 3:]), gradient=gradient, name="C1")


def casimir_gamma_norm() -> ScalarField:
    """C2 = |gamma|^2 on the reduced space."""

    def gradient(s):
        gamma, _ = split_reduced(s)
        return np.concatenate([2.0 * gamma, np.zeros_like(gamma)], axis=-1)

    return ScalarField(value=lambda s: np.vecdot(s[..., :3], s[..., :3]), gradient=gradient, name="C2")


def annihilator_one_form(params: BodyParams, variant: str = "plain") -> FormPatch:
    """The 1-form V . dgamma + gamma . dK, which annihilates the characteristic
    distribution of the corresponding reduced bracket."""
    _check_variant(variant)

    def entries(s):
        gamma, K = split_reduced(s)
        v = _v_vector(params, gamma, K, variant, omega_from_K(params, gamma, K))
        return np.concatenate([v, gamma], axis=-1)

    def partials(s):
        _, dv_gamma, dv_k = _v_jet(params, *split_reduced(s), variant)
        out = np.zeros(dv_k.shape[:-2] + (6, 6))
        out[..., :3, :3], out[..., :3, 3:], out[..., 3:, :3] = _swap(dv_gamma), np.eye(3), _swap(dv_k)
        return out

    return FormPatch(degree=1, dim=6, entries=entries, partials=partials, name="chi")


def twist_two_form(params: BodyParams) -> FormPatch:
    """The gauge 2-form on the reduced space, supported on the gamma-gamma
    block: B_ab = m r^2 (Omega . gamma) eps_abl gamma_l.  Only ranks 1 and 2
    (sign = x - p nonzero) carry a nonzero twist.
    """
    if not params._rank_terms[0]:
        raise UnsupportedRank(f"no reduced gauge 2-form for rank {params.rank}")
    mr2 = params.mr2

    def entries(s):
        gamma, K = split_reduced(s)
        og = np.vecdot(omega_from_K(params, gamma, K), gamma)
        out = np.zeros(gamma.shape[:-1] + (6, 6))
        # eps_abl gamma_l = -hat(gamma)_ab
        out[..., :3, :3] = (-mr2 * og)[..., None, None] * hat(gamma)
        return out

    def partials(s):
        gamma, K = split_reduced(s)
        _, og, dog_dgamma, dog_dk, _, _ = _omega_dot_gamma_grads(params, gamma, K)
        out = np.zeros(gamma.shape[:-1] + (6, 6, 6))
        hg = hat(gamma)[..., None, :, :]
        og = np.asarray(og)[..., None, None, None]
        out[..., :3, :3, :3] = -mr2 * (dog_dgamma[..., None, None] * hg + og * _HAT_BASIS[:3])
        out[..., 3:, :3, :3] = (-mr2 * dog_dk)[..., None, None] * hg
        return out

    return FormPatch(degree=2, dim=6, entries=entries, partials=partials, name="B_red")


def twist_three_form(params: BodyParams) -> FormPatch:
    """Background 3-form making the Hamiltonizable bracket twisted-Poisson:
    sign dB with sign = x - p, i.e. -dB for rank 2, +dB for rank 1
    (B = twist_two_form).

    Its partials are closed form: d_l phi_ijk = sign (H[l,i,j,k] - H[l,j,i,k]
    + H[l,k,i,j]) with H[l,m,a,b] = d_l d_m B_ab.  B = -m r^2 f hat(gamma)
    with f = Omega . gamma, and hat(gamma) is linear, so H needs only the
    Hessian of f (``_omega_dot_gamma_hessian``).
    """
    sign = params._rank_terms[0]
    if not sign:
        raise UnsupportedRank(f"no twist 3-form for rank {params.rank}")
    b = twist_two_form(params)
    mr2 = params.mr2

    def entries(s):
        return sign * fd_exterior_derivative(b, s)

    def partials(s):
        gamma, K = split_reduced(s)
        df, ddf = _omega_dot_gamma_hessian(params, gamma, K)
        h = np.zeros(gamma.shape[:-1] + (REDUCED_DIM,) * 4)
        df = df[..., None, None]
        h[..., :3, :3] = -mr2 * (
            ddf[..., None, None] * hat(gamma)[..., None, None, :, :]
            + df[..., None, :, :, :] * _HAT_BASIS[:, None]
            + df[..., :, None, :, :] * _HAT_BASIS[None, :]
        )
        return sign * (h - np.moveaxis(h, -3, -2) + np.moveaxis(h, -3, -1))

    return FormPatch(degree=3, dim=6, entries=entries, partials=partials, name="phi_twist")


def leafwise_two_form(params: BodyParams) -> FormPatch:
    """Rank-2 leafwise 2-form of the twisted structure, used to compare the
    twist 3-form with the conformal exact form (1/phi) dphi on the leaves:
    -R pi' R^T with pi' the primed reduced bracket and R = [[0, -E], [E, 0]]:
    gamma-gamma block -hat(V) of pi', K-gamma block hat(gamma).
    """
    if params.rank != 2:
        raise UnsupportedRank("the leafwise 2-form is only assembled for rank 2")
    pi = reduced_bracket(params, "primed")
    r = np.block([[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
    return FormPatch(
        degree=2, dim=6, entries=lambda s: -(r @ pi.matrix(s) @ r.T),
        partials=lambda s: -(r @ pi.partial_tensor(s) @ r.T), name="Omega_leaf",
    )


# ---------------------------------------------------------------------------
# full (unreduced) phase space


def pack_full(g, x, K) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    return np.concatenate([g.reshape(9), np.asarray(x, dtype=float), np.asarray(K, dtype=float)])


def split_full(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    state = _checked(state, FULL_DIM, "full")
    return state[..., :9].reshape(state.shape[:-1] + (3, 3)), state[..., 9:12], state[..., 12:15]


def project_rho(state) -> np.ndarray:
    """Reduction map rho(g, x, K) = (gamma, K) with gamma the third row of g."""
    return _checked(state, FULL_DIM, "full")[..., RHO_INDEX]


def _one(vector, dim: int, what: str) -> np.ndarray:
    """One vector (dim,), not a stack."""
    if np.shape(vector) != (dim,):
        raise ValueError(f"expected one {dim}-dim {what}, got shape {np.shape(vector)}")
    return np.asarray(vector, dtype=float)


def lift_reduced_state(state) -> np.ndarray:
    """Deterministic section of rho: a rotation with third row gamma, x = 0."""
    gamma, K = split_reduced(_one(state, REDUCED_DIM, "reduced state"))
    norm = float(np.linalg.norm(gamma))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"cannot lift: |gamma| = {norm!r} is not 1")
    gamma = gamma / norm
    # complete gamma to an orthonormal, positively oriented row triple
    trial = np.zeros(3)
    trial[int(np.argmin(np.abs(gamma)))] = 1.0
    row1 = trial - float(trial @ gamma) * gamma
    row1 /= np.linalg.norm(row1)
    row2 = np.cross(gamma, row1)
    g = np.vstack([row1, row2, gamma])
    return pack_full(g, np.zeros(3), K)


def sample_full_state(seed=None) -> np.ndarray:
    """Random full state: Haar-ish rotation, x and K uniform in [-1,1]^3."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = random_rotation(rng)
    x = rng.uniform(-1.0, 1.0, size=3)
    k = rng.uniform(-1.0, 1.0, size=3)
    return pack_full(g, x, k)


def full_hamiltonian_field(params: BodyParams) -> ScalarField:
    """H on the full space: the reduced H at project_rho(state), its gradient
    scattered to the gamma and K positions."""
    h = hamiltonian_field(params)

    def gradient(s):
        out = np.zeros(s.shape)
        out[..., RHO_INDEX] = h.grad(project_rho(s))
        return out

    return ScalarField(value=lambda s: h(project_rho(s)), gradient=gradient, name="H_full")


def nh_bracket_full(params: BodyParams, form: str = "plain") -> BivectorPatch:
    """Almost-Poisson structure on the full space (g, x, K).

    Nonzero entries: {g_ij, K_l} = -eps_jlk g_ik, {x_i, K_l} = r (A g)_il,
    and {K_i, K_j} = hat(W)_ij with W = K + m r^2 T Omega for the plain form
    and W = K + m r^2 (T - E) Omega for the gauged one, T = g^T A^T A g.
    Its jet takes Omega and its Jacobians from one evaluation.
    """
    if form not in ("plain", "gauged"):
        raise ValueError(f"form must be 'plain' or 'gauged', got {form!r}")
    a_mat = matrix_A(params)
    q = a_mat.T @ a_mat
    mr2 = params.mr2
    shift = 0.0 if form == "plain" else 1.0
    eye = np.eye(3)
    # the constant part of the partials: d{g_ij, K_m}/dg_ab = -eps_jmb delta_ia and
    # d{x_i, K_m}/dg_ab = r A_ia delta_mb, l = 3a + b, and their antisymmetric partners
    base = np.zeros((FULL_DIM,) * 3)
    base[:9, :9, 12:] = -np.einsum("ia,jmb->abijm", eye, EPSILON).reshape(9, 9, 3)
    base[:9, 9:12, 12:] = params.radius * np.einsum("ia,mb->abim", a_mat, eye).reshape(9, 3, 3)
    base = base - base.transpose(0, 2, 1)

    def matrix(g, K, t_eff, omega):
        stack = g.shape[:-2]
        p = np.zeros(stack + (FULL_DIM, FULL_DIM))
        # {g_ij, K_l} = -eps_jlk g_ik = hat(g_i)_jl, rows 3i+j, columns 12+l
        p[..., :9, 12:] = hat(g).reshape(stack + (9, 3))
        p[..., 9:12, 12:] = params.radius * (a_mat @ g)
        p = p - _swap(p)
        p[..., 12:, 12:] = hat(K + mr2 * _mv(t_eff, omega))
        return p

    def structure(s):
        g, _, K = split_full(s)
        return matrix(g, K, _swap(g) @ q @ g - shift * eye, omega_from_K(params, g[..., 2, :], K))

    def jet(s):
        g, _, K = split_full(s)
        stack = g.shape[:-2]
        omega, d_omega_gamma, d_omega_k = _omega_and_jacobians(params, g[..., 2, :], K)
        t_eff = _swap(g) @ q @ g - shift * eye
        qg = q @ g
        # rows dW/dx_l: dW/dg_ab = mr2 [(dT/dg_ab) Omega + T_eff dOmega/dg_ab], where
        # Omega sees g only through gamma = row 2; dW/dK_c = e_c + mr2 T_eff dOmega/dK_c
        dw = np.zeros(stack + (FULL_DIM, 3))
        dw_g = _mv(qg, omega)[..., :, None, None] * eye + omega[..., None, :, None] * qg[..., :, None, :]
        dw[..., :9, :] = dw_g.reshape(stack + (9, 3))
        dw[..., 6:9, :] += _swap(t_eff @ d_omega_gamma)
        dw[..., :9, :] *= mr2
        dw[..., 12:, :] = eye + mr2 * _swap(t_eff @ d_omega_k)
        out = np.broadcast_to(base, stack + base.shape).copy()
        # d_l hat(W) = hat(d_l W)
        out[..., 12:, 12:] = hat(dw)
        return matrix(g, K, t_eff, omega), out

    return BivectorPatch(dim=FULL_DIM, structure=structure, name=f"nh-rank{params.rank}-{form}", jet=jet)


def X_nh_full(params: BodyParams, state) -> np.ndarray:
    """Constrained equations of motion on the full space, in closed form:
    g' = g hat(Omega) (row i of g' is g_i x Omega), x' = r A g Omega and
    K' = K x Omega, with Omega = omega_from_K(gamma = g[2], K), evaluated on
    Python floats by the body's full kernel.

    This is the bracket flow -ham_vf(nh_bracket_full(params, "plain"),
    full_hamiltonian_field(params)), which the tests keep as its oracle.
    """
    return np.array(params._kernels.full(_checked(state, FULL_DIM, "full").tolist()))


def _rotation_map(g) -> np.ndarray:
    """L (..., 3, 9), linear in g, takes the 9 g-coordinates of a tangent U to its body-frame
    rotation vector u_d = 1/2 eps_dbc (g^T U)_cb, as eps_dbc g_mc = -hat(g_m)_db."""
    return (-0.5 * np.swapaxes(hat(g), -3, -2)).reshape(g.shape[:-2] + (3, 9))


def gauge_form_on_M(params: BodyParams) -> FormPatch:
    """The semi-basic gauge 2-form on the full space relating the plain and
    gauged brackets: B(U, V) = m r^2 Omega . (u x v) where u, v are the
    body-frame rotation components of U, V.  Supported on the g-g block,
    -m r^2 L^T hat(Omega) L (``_rotation_map``), whose partials are -m r^2
    (Y_l - Y_l^T + L^T hat(d_l Omega) L) with Y_l = L^T hat(Omega) d_l L.
    """
    mr2 = params.mr2
    d_l_map = _rotation_map(np.eye(FULL_DIM)[:, :9].reshape(FULL_DIM, 3, 3))  # L is linear in g

    def entries(s):
        g, _, K = split_full(s)
        l_map = _rotation_map(g)
        out = np.zeros(g.shape[:-2] + (FULL_DIM, FULL_DIM))
        out[..., :9, :9] = -mr2 * _swap(l_map) @ hat(omega_from_K(params, g[..., 2, :], K)) @ l_map
        return out

    def partials(s):
        g, _, K = split_full(s)
        l_map = _rotation_map(g)
        lt = _swap(l_map)[..., None, :, :]
        omega, d_gamma, d_k = _omega_and_jacobians(params, g[..., 2, :], K)
        d_omega = np.zeros(g.shape[:-2] + (FULL_DIM, 3))  # Omega sees g only through gamma
        d_omega[..., RHO_INDEX, :] = _swap(np.concatenate([d_gamma, d_k], axis=-1))
        y = lt @ hat(omega)[..., None, :, :] @ d_l_map
        out = np.zeros(g.shape[:-2] + (FULL_DIM,) * 3)
        out[..., :9, :9] = -mr2 * (y - _swap(y) + lt @ hat(d_omega) @ l_map[..., None, :, :])
        return out

    return FormPatch(degree=2, dim=FULL_DIM, entries=entries, partials=partials, name="B_full")


def horizontal_lift(params: BodyParams, full_state, reduced_tangent) -> np.ndarray:
    """Lift a reduced tangent (w_gamma, w_K) at rho(state) to the full space.

    The rotational part solves gamma x a = w_gamma with a . gamma = 0 (no
    spin about gamma) and moves g along g hat(a); x does not move.  Requires
    w_gamma . gamma = 0, i.e. a genuine tangent to the gamma-sphere, and
    gamma != 0.
    """
    g, _, _ = split_full(_one(full_state, FULL_DIM, "full state"))
    gamma = g[2]
    w_gamma, w_k = split_reduced(_one(reduced_tangent, REDUCED_DIM, "reduced tangent"))
    if abs(float(w_gamma @ gamma)) > 1e-8:
        raise ValueError("reduced tangent leaves the gamma-sphere")
    g2 = float(gamma @ gamma)
    if not g2 > 0.0:
        raise ValueError(f"cannot lift: |gamma|^2 = {g2!r} is not positive")
    a = np.cross(w_gamma, gamma) / g2
    return np.concatenate([(g @ hat(a)).reshape(9), np.zeros(3), w_k])


def _full_form(variant: str) -> str:
    """The full bracket whose reduction is the reduced ``variant``."""
    _check_variant(variant)
    return "plain" if variant == "plain" else "gauged"


def reduction_defect(params: BodyParams, variant: str, full_state) -> np.ndarray:
    """|{y_a, y_b}_full - pi_reduced[a, b] at rho(state)| for all a, b: the
    6x6 block of the reduced coordinates y = (gamma, K) seen as functions
    on the full space; (N, 6, 6) for a stack of N states.

    variant 'plain' pairs the plain full bracket with the plain reduced one;
    'primed' pairs the gauged full bracket with the primed reduced one.
    """
    p_full = nh_bracket_full(params, _full_form(variant)).matrix(full_state)
    return _reduction_gap(params, variant, p_full, full_state)


def _reduction_gap(params: BodyParams, variant: str, p_full: np.ndarray, full_state) -> np.ndarray:
    """``reduction_defect`` from the full bracket matrix p_full at full_state."""
    p_red = reduced_bracket(params, variant).matrix(project_rho(full_state))
    return np.abs(p_full[..., RHO_INDEX[:, None], RHO_INDEX] - p_red)


def reduction_consistency(params: BodyParams, variant: str, full_state, i: int, j: int):
    """Entry (i, j) of ``reduction_defect``: a float for one state, one per state of a stack."""
    if not (0 <= i < REDUCED_DIM and 0 <= j < REDUCED_DIM):
        raise IndexError("reduced coordinate index out of range")
    return reduction_defect(params, variant, full_state)[..., i, j][()]
