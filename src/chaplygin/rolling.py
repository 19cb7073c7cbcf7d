"""Bracket structures of the rolling body, of constraint rank 0..3.

The body, Omega and the vector fields live in ``body``.  This module adds
what the gauge-related brackets need: the reduced and full almost-Poisson
structures, the twist forms, the full gauge 2-form, the annihilator, the
leafwise form, the horizontal lift and the reduction checks.

For each rank there are two reduced almost-Poisson structures ("plain" and
"primed", the latter obtained by a gauge transformation); both have the
block form

    pi = [[0,      hat(gamma)],
          [hat(gamma),  hat(V)]],      V = K + m r^2 (a Omega + b (Omega.gamma) gamma)

with a = p - [primed] and b = x - p, i.e. V = K + m r^2 (S(gamma) - [primed] E)
Omega with S(gamma) = g^T A^T A g.  The constraint has A^T A = diag(p, p, x)
with p = [rank >= 2] and x = [rank odd]; every rank-dependent term derives
from these two bits (``body._rank_bits``).  Rank 2 with an SO(2) angle of
-pi/2 is the Chaplygin sphere.

Brackets and forms also take a stack (N, d) of states.
"""

from __future__ import annotations

import numpy as np

from .body import (
    FULL_DIM,
    REDUCED_DIM,
    RHO_INDEX,
    BodyParams,
    _memoized,
    _omega_and_jacobians,
    _omega_terms,
    _rank_bits,
    hamiltonian_field,
    matrix_A,
    omega_from_K,
    project_rho,
    split_full,
    split_reduced,
)

# perfbench/tracer.py traces these four as rolling.<name>, though nothing here
# calls them; they can go once the tracer looks them up in body
from .body import X_nh_full, hamiltonian, omega_jacobians, reduced_vf
from .brackets import BivectorPatch
from .errors import UnsupportedRank
from .geometry import (
    FormPatch,
    ScalarField,
    _as_rng,
    _draws,
    _indices,
    _mv,
    _one,
    _rotations,
    _swap,
    fd_exterior_derivative,
    hat,
)

__all__ = [
    "annihilator_one_form",
    "full_hamiltonian_field",
    "gauge_form_on_M",
    "hamiltonizable_variant",
    "horizontal_lift",
    "leafwise_two_form",
    "nh_bracket_full",
    "poisson_variant",
    "reduced_bracket",
    "reduction_consistency",
    "reduction_defect",
    "sample_full_state",
    "twist_three_form",
    "twist_two_form",
]

# Each block below is linear in its arguments, so its partials are the block at
# the partials of the arguments: row l of _D_GAMMA (_D_K) is d gamma / d x_l
# (d K / d x_l) on the reduced chart, and _G_BASIS[l] is d g / d x_l on the full one.
_D_GAMMA, _D_K = np.eye(REDUCED_DIM, 3), np.eye(REDUCED_DIM, 3, -3)
_G_BASIS = np.eye(FULL_DIM, 9).reshape(FULL_DIM, 3, 3)
_HAT_BASIS = hat(_D_GAMMA)  # d hat(gamma) / d x_l
# the constant part of the reduced bracket partials: d_l of the two hat(gamma) blocks
_BRACKET_BASE = np.zeros((REDUCED_DIM,) * 3)
_BRACKET_BASE[:, :3, 3:] = _BRACKET_BASE[:, 3:, :3] = _HAT_BASIS
for _constant in (_D_GAMMA, _D_K, _G_BASIS, _HAT_BASIS, _BRACKET_BASE):
    _constant.setflags(write=False)


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
    """(V, dV) from one evaluation of Omega and its Jacobians, dV[..., l, i] =
    d V_i / d x_l: V = K + m r^2 (a Omega + b (Omega . gamma) gamma) at the partials."""
    a, b = _v_coeffs(params.rank, variant)
    omega, og, dog_dgamma, dog_dk, d_gamma, d_k = _omega_dot_gamma_grads(params, gamma, K)
    d_omega = _swap(np.concatenate([d_gamma, d_k], axis=-1))
    d_og = np.concatenate([dog_dgamma, dog_dk], axis=-1)
    dv = _D_K + params.mr2 * (a * d_omega + b * (_outer(d_og, gamma) + og[..., None, None] * _D_GAMMA))
    return _v_vector(params, gamma, K, variant, omega), dv


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

        def compute():
            v, dv = _v_jet(params, gamma, K, variant)
            dp = np.broadcast_to(_BRACKET_BASE, gamma.shape[:-1] + _BRACKET_BASE.shape).copy()
            dp[..., 3:, 3:] = hat(dv)
            return matrix(gamma, v), dp

        return _memoized(("jet", variant), params, (gamma, K), compute)

    return BivectorPatch(dim=REDUCED_DIM, structure=structure, name=f"rank{params.rank}-{variant}", jet=jet)


def annihilator_one_form(params: BodyParams, variant: str = "plain") -> FormPatch:
    """The 1-form V . dgamma + gamma . dK, which annihilates the characteristic
    distribution of the corresponding reduced bracket."""
    _check_variant(variant)

    def entries(s):
        gamma, K = split_reduced(s)
        v = _v_vector(params, gamma, K, variant, omega_from_K(params, gamma, K))
        return np.concatenate([v, gamma], axis=-1)

    def partials(s):
        _, dv = _v_jet(params, *split_reduced(s), variant)
        return np.concatenate([dv, np.broadcast_to(_D_GAMMA, dv.shape)], axis=-1)

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




def sample_full_state(seed=None, n=None) -> np.ndarray:
    """Random full state: Haar-ish rotation, x and K uniform in [-1,1]^3;
    with a count n, the stack of n such draws (n, 15)."""
    rng = _as_rng(seed)
    out = _draws(n, FULL_DIM)
    for row in out:
        row[:9] = rng.standard_normal(9)
        row[9:] = rng.uniform(-1.0, 1.0, size=6)
    out[:, :9] = _rotations(out[:, :9].reshape(-1, 3, 3)).reshape(-1, 9)
    return out[0] if n is None else out


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
        def compute():
            g, _, K = split_full(s)
            return matrix(g, K, _swap(g) @ q @ g - shift * eye, omega_from_K(params, g[..., 2, :], K))

        return _memoized(("full", form), params, (s,), compute)

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
        # the g-K and x-K blocks are linear in g: their partials are the matrix at
        # d g / d x_l, built here as verify reads no full jet
        zero = np.zeros(3)
        out = np.broadcast_to(matrix(_G_BASIS, zero, eye, zero), stack + (FULL_DIM,) * 3).copy()
        out[..., 12:, 12:] = hat(dw)
        return matrix(g, K, t_eff, omega), out

    return BivectorPatch(dim=FULL_DIM, structure=structure, name=f"nh-rank{params.rank}-{form}", jet=jet)


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
    d_l_map = _rotation_map(_G_BASIS)  # L is linear in g

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
    p_red = reduced_bracket(params, variant).matrix(project_rho(full_state))
    return np.abs(p_full[..., RHO_INDEX[:, None], RHO_INDEX] - p_red)


def reduction_consistency(params: BodyParams, variant: str, full_state, i: int, j: int):
    """Entry (i, j) of ``reduction_defect``: a float for one state, one per state of a stack."""
    _indices(REDUCED_DIM, i, j)
    return reduction_defect(params, variant, full_state)[..., i, j][()]
