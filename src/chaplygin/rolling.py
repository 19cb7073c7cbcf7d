"""Bracket structures of the rolling body, of constraint rank 0..3.

The body, Omega and the vector fields live in ``body``.  This module adds
what the gauge-related brackets need: the reduced and full almost-Poisson
structures, the twist forms, the full gauge 2-form, the annihilator, the
leafwise form, the horizontal lift, the reduction checks and the samplers.

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
    _FULL_K,
    _G,
    _GAMMA,
    _K,
    _X,
    BodyParams,
    _den_gradient,
    _gamma_norm_gradient,
    _memoized,
    _omega_and_jacobians,
    _omega_terms,
    _pack_reduced,
    _rank_bits,
    hamiltonian_field,
    matrix_A,
    omega_from_K,
    pack_full,
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
    _draws,
    _exterior_derivative,
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
    "sample_reduced_state",
    "twist_three_form",
    "twist_two_form",
]

# Each block below is linear in its arguments, so its partials are the block at the partials
# of the arguments, read off the identity: _D_GAMMA[l] (_D_K[l]) is d gamma / d x_l (d K / d x_l)
# on the reduced chart, _G_BASIS[l] (_FULL_D_K[l]) d g / d x_l (d K / d x_l) on the full one.
_D_GAMMA, _D_K = split_reduced(np.eye(REDUCED_DIM))
_G_BASIS, _, _FULL_D_K = split_full(np.eye(FULL_DIM))
for _constant in (_D_GAMMA, _D_K, _G_BASIS, _FULL_D_K):
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


def _gamma_block(w: np.ndarray) -> np.ndarray:
    """hat(w) in the gamma-gamma block of a zero matrix on the reduced chart, for each w of a stack."""
    out = np.zeros(w.shape[:-1] + (REDUCED_DIM, REDUCED_DIM))
    out[..., _GAMMA, _GAMMA] = hat(w)
    return out


def _v_vector(params: BodyParams, gamma, K, variant: str, omega) -> np.ndarray:
    """V = K + m r^2 (a Omega + b (Omega . gamma) gamma) for the given Omega."""
    a, b = _v_coeffs(params.rank, variant)
    return K + params.mr2 * (a * omega + b * np.vecdot(omega, gamma)[..., None] * gamma)


def _omega_jet(params: BodyParams, gamma, K) -> tuple:
    """(Omega, dOmega, d(f gamma)) on the reduced chart, from one evaluation of Omega's
    Jacobians: dOmega[..., l, i] = d Omega_i / d x_l and, with f = Omega . gamma,
    d(f gamma) = df gamma + f d gamma, the product rule written once for dV and dw."""
    omega, d_gamma, d_k = _omega_and_jacobians(params, gamma, K)
    f = np.vecdot(omega, gamma)
    df = _pack_reduced(_mv(_swap(d_gamma), gamma) + omega, _mv(_swap(d_k), gamma))
    return omega, _swap(_pack_reduced(d_gamma, d_k)), _outer(df, gamma) + f[..., None, None] * _D_GAMMA


def _full_omega_jet(params: BodyParams, g, K) -> tuple:
    """(Omega, dOmega) on the full chart: Omega sees g only through gamma, its third
    row, so dOmega is ``_omega_jet``'s at the rows RHO_INDEX and 0 elsewhere."""
    omega, d_omega, _ = _omega_jet(params, g[..., 2, :], K)
    out = np.zeros(g.shape[:-2] + (FULL_DIM, 3))
    out[..., RHO_INDEX, :] = d_omega
    return omega, out


def _v_jet(params: BodyParams, gamma, K, variant: str) -> tuple:
    """(V, dV) with dV[..., l, i] = d V_i / d x_l: V = K + m r^2 (a Omega + b f gamma),
    f = Omega . gamma, is linear in K, Omega and f gamma, so dV is the same formula at
    their partials (``_omega_jet``)."""
    a, b = _v_coeffs(params.rank, variant)
    omega, d_omega, d_f_gamma = _omega_jet(params, gamma, K)
    dv = _D_K + params.mr2 * (a * d_omega + b * d_f_gamma)
    return _v_vector(params, gamma, K, variant, omega), dv


def _omega_dot_gamma_hessian(params: BodyParams, gamma, K) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (..., 6) and Hessian (..., 6, 6) in (gamma, K) of f = Omega . gamma
    at ranks 1 and 2, in closed form: f den = |gamma|^2 (K . u) with u = gamma / n
    and den the denominator of the omega kernel (which also checks it), and
    every factor of that product has a gradient linear in (gamma, K, u), so its
    Hessian is that gradient at their partials (d gamma, dK, d gamma / n)."""
    _, u, den, _ = _omega_terms(params, gamma, K)
    inv_n = 1.0 / np.array(params._rank_terms[1])

    def gradients(gamma, K, u) -> tuple:
        """The gradients of K . u, |gamma|^2 and den."""
        return (_pack_reduced(K * inv_n, u), _gamma_norm_gradient(gamma),
                _pack_reduced(_den_gradient(params, gamma, u), np.zeros_like(u)))

    den = np.asarray(den)[..., None]
    gg, ku = np.vecdot(gamma, gamma)[..., None], np.vecdot(K, u)[..., None]
    f = gg * ku / den
    d_ku, d_gg, d_den = gradients(gamma, K, u)
    dd_ku, dd_gg, dd_den = gradients(_D_GAMMA, _D_K, _D_GAMMA * inv_n)
    df = (gg * d_ku + ku * d_gg - f * d_den) / den
    gg, ku, f, den = gg[..., None], ku[..., None], f[..., None], den[..., None]
    dd_fden = gg * dd_ku + _outer(d_ku, d_gg) + _outer(d_gg, d_ku) + ku * dd_gg
    return df, (dd_fden - _outer(df, d_den) - _outer(d_den, df) - f * dd_den) / den


def reduced_bracket(params: BodyParams, variant: str = "plain") -> BivectorPatch:
    """Almost-Poisson structure on (gamma, K) in block form [[0, hat g], [hat g, hat V]].

    It is linear in its blocks gamma and V, so its partials are ``matrix`` at
    their partials (d gamma, dV), from one evaluation of Omega's jet (``_v_jet``)."""
    _check_variant(variant)

    def matrix(gamma, v):
        p = np.zeros(gamma.shape[:-1] + (REDUCED_DIM, REDUCED_DIM))
        p[..., _GAMMA, _K] = p[..., _K, _GAMMA] = hat(gamma)
        p[..., _K, _K] = hat(v)
        return p

    def structure(s):
        gamma, K = split_reduced(s)
        return matrix(gamma, _v_vector(params, gamma, K, variant, omega_from_K(params, gamma, K)))

    def jet(s):
        gamma, K = split_reduced(s)

        def compute():
            v, dv = _v_jet(params, gamma, K, variant)
            return matrix(gamma, v), matrix(np.broadcast_to(_D_GAMMA, dv.shape), dv)

        return _memoized(("jet", variant), params, (gamma, K), compute)

    return BivectorPatch(dim=REDUCED_DIM, structure=structure, name=f"rank{params.rank}-{variant}", jet=jet)


def annihilator_one_form(params: BodyParams, variant: str = "plain") -> FormPatch:
    """The 1-form V . dgamma + gamma . dK, which annihilates the characteristic
    distribution of the corresponding reduced bracket."""
    _check_variant(variant)

    def entries(s):
        gamma, K = split_reduced(s)
        v = _v_vector(params, gamma, K, variant, omega_from_K(params, gamma, K))
        return _pack_reduced(v, gamma)

    def partials(s):
        _, dv = _v_jet(params, *split_reduced(s), variant)
        return _pack_reduced(dv, np.broadcast_to(_D_GAMMA, dv.shape))

    return FormPatch(degree=1, dim=REDUCED_DIM, entries=entries, partials=partials, name="chi")


def twist_two_form(params: BodyParams) -> FormPatch:
    """The gauge 2-form on the reduced space: B_ab = m r^2 f eps_abl gamma_l with
    f = Omega . gamma, the block hat(w) of w = -m r^2 f gamma (``_gamma_block``),
    so its partials are the block at dw = -m r^2 d(f gamma) (``_omega_jet``).  Only
    ranks 1 and 2 (sign = x - p nonzero) carry a nonzero twist."""
    if not params._rank_terms[0]:
        raise UnsupportedRank(f"no reduced gauge 2-form for rank {params.rank}")
    mr2 = params.mr2

    def entries(s):
        gamma, K = split_reduced(s)
        f = np.vecdot(omega_from_K(params, gamma, K), gamma)
        return _gamma_block((-mr2 * f)[..., None] * gamma)

    def partials(s):
        gamma, K = split_reduced(s)
        return _gamma_block(-mr2 * _omega_jet(params, gamma, K)[2])

    return FormPatch(degree=2, dim=REDUCED_DIM, entries=entries, partials=partials, name="B_red")


def twist_three_form(params: BodyParams) -> FormPatch:
    """Background 3-form making the Hamiltonizable bracket twisted-Poisson:
    sign dB with sign = x - p, i.e. -dB for rank 2, +dB for rank 1
    (B = twist_two_form).

    Its partials d_l phi are sign d, taken over m, of B's block at the second
    partials of w = -m r^2 f gamma: ddw_lm = -m r^2 (dd_lm f gamma + d_m f d_l gamma
    + d_l f d_m gamma), where only f needs a Hessian (``_omega_dot_gamma_hessian``).
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
        ddw = -mr2 * (
            ddf[..., None] * gamma[..., None, None, :]
            + df[..., None, :, None] * _D_GAMMA[:, None]
            + df[..., :, None, None] * _D_GAMMA[None, :]
        )
        return sign * _exterior_derivative(_gamma_block(ddw), 2)

    return FormPatch(degree=3, dim=REDUCED_DIM, entries=entries, partials=partials, name="phi_twist")


def leafwise_two_form(params: BodyParams) -> FormPatch:
    """Rank-2 leafwise 2-form of the twisted structure, used to compare the
    twist 3-form with the conformal exact form (1/phi) dphi on the leaves:
    -R pi' R^T with pi' the primed reduced bracket and R = [[0, -E], [E, 0]]:
    gamma-gamma block -hat(V) of pi', K-gamma block hat(gamma).
    """
    if params.rank != 2:
        raise UnsupportedRank("the leafwise 2-form is only assembled for rank 2")
    pi = reduced_bracket(params, "primed")
    r = _D_K @ _D_GAMMA.T - _D_GAMMA @ _D_K.T
    return FormPatch(
        degree=2, dim=REDUCED_DIM, entries=lambda s: -(r @ pi.matrix(s) @ r.T),
        partials=lambda s: -(r @ pi.partial_tensor(s) @ r.T), name="Omega_leaf",
    )


def sample_reduced_state(seed=None, n=None) -> np.ndarray:
    """Random reduced state (gamma, K): gamma uniform on S^2, K uniform in
    [-1,1]^3; with a count n, the stack of n such draws (n, 6)."""
    rng = np.random.default_rng(seed)
    out = _draws(n, REDUCED_DIM)
    for row in out:
        while True:
            g = rng.standard_normal(3)
            norm = np.linalg.norm(g)
            if norm > 1e-8:
                break
        row[_GAMMA] = g / norm
        row[_K] = rng.uniform(-1.0, 1.0, size=3)
    return out[0] if n is None else out


# ---------------------------------------------------------------------------
# full (unreduced) phase space


def sample_full_state(seed=None, n=None) -> np.ndarray:
    """Random full state: Haar-ish rotation, x and K uniform in [-1,1]^3;
    with a count n, the stack of n such draws (n, 15)."""
    rng = np.random.default_rng(seed)
    out = _draws(n, FULL_DIM)
    for row in out:
        row[_G] = rng.standard_normal(9)
        row[_G.stop:] = rng.uniform(-1.0, 1.0, size=FULL_DIM - _G.stop)  # x and K in one draw
    out[:, _G] = _rotations(out[:, _G].reshape(-1, 3, 3)).reshape(-1, 9)
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
    It is linear in its blocks g and W, so its partials are ``matrix`` at their
    partials (d g, dW), from one evaluation of Omega's jet (``_full_omega_jet``).
    """
    if form not in ("plain", "gauged"):
        raise ValueError(f"form must be 'plain' or 'gauged', got {form!r}")
    a_mat = matrix_A(params)
    q = a_mat.T @ a_mat
    mr2 = params.mr2
    shift = 0.0 if form == "plain" else 1.0

    def matrix(g, w):
        stack = g.shape[:-2]
        p = np.zeros(stack + (FULL_DIM, FULL_DIM))
        # {g_ij, K_l} = -eps_jlk g_ik = hat(g_i)_jl, at row 3i+j of the g block and column l of the K block
        p[..., _G, _FULL_K] = hat(g).reshape(stack + (9, 3))
        p[..., _X, _FULL_K] = params.radius * (a_mat @ g)
        p = p - _swap(p)
        p[..., _FULL_K, _FULL_K] = hat(w)
        return p

    def w_vector(g, K, omega) -> tuple:
        """(W, T_eff) with W = K + m r^2 T_eff Omega and T_eff = T - [gauged] E."""
        t_eff = _swap(g) @ q @ g - shift * np.eye(3)
        return K + mr2 * _mv(t_eff, omega), t_eff

    def structure(s):
        def compute():
            g, _, K = split_full(s)
            return matrix(g, w_vector(g, K, omega_from_K(params, g[..., 2, :], K))[0])

        return _memoized(("full", form), params, (s,), compute)

    def jet(s):
        g, _, K = split_full(s)
        omega, d_omega = _full_omega_jet(params, g, K)
        w, t_eff = w_vector(g, K, omega)
        # dW = dK + m r^2 (dT Omega + T_eff dOmega), dT = dg^T Q g plus its transpose (Q is symmetric)
        dt = _swap(_G_BASIS) @ (q @ g)[..., None, :, :]
        dw = _FULL_D_K + mr2 * (_mv(dt + _swap(dt), omega[..., None, :]) + _mv(t_eff[..., None, :, :], d_omega))
        return matrix(g, w), matrix(np.broadcast_to(_G_BASIS, dw.shape + (3,)), dw)

    return BivectorPatch(dim=FULL_DIM, structure=structure, name=f"nh-rank{params.rank}-{form}", jet=jet)


def _rotation_map(g) -> np.ndarray:
    """L (..., 3, 9), linear in g, takes the 9 g-coordinates of a tangent U to its body-frame
    rotation vector u_d = 1/2 eps_dbc (g^T U)_cb, as eps_dbc g_mc = -hat(g_m)_db."""
    return (-0.5 * np.swapaxes(hat(g), -3, -2)).reshape(g.shape[:-2] + (3, 9))


def gauge_form_on_M(params: BodyParams) -> FormPatch:
    """The semi-basic gauge 2-form on the full space relating the plain and
    gauged brackets: B(U, V) = m r^2 Omega . (u x v) where u, v are the
    body-frame rotation components of U, V.  Supported on the g-g block
    -m r^2 L^T hat(Omega) L (``_rotation_map``), linear in each of L, Omega and
    L, so its partials are the block at (dL, Omega, L) + (L, dOmega, L) + (L, Omega, dL).
    """
    mr2 = params.mr2
    d_l_map = _rotation_map(_G_BASIS)  # L is linear in g

    def block(left, omega, right):
        """-m r^2 left^T hat(omega) right in the g-g block of a zero matrix on the full chart."""
        b = -mr2 * _swap(left) @ hat(omega) @ right
        out = np.zeros(b.shape[:-2] + (FULL_DIM, FULL_DIM))
        out[..., _G, _G] = b
        return out

    def entries(s):
        g, _, K = split_full(s)
        l_map = _rotation_map(g)
        return block(l_map, omega_from_K(params, g[..., 2, :], K), l_map)

    def partials(s):
        g, _, K = split_full(s)
        l_map = _rotation_map(g)[..., None, :, :]  # broadcast over the partial index l
        omega, d_omega = _full_omega_jet(params, g, K)
        omega = omega[..., None, :]
        return block(d_l_map, omega, l_map) + block(l_map, d_omega, l_map) + block(l_map, omega, d_l_map)

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
    return pack_full(g @ hat(a), np.zeros(3), w_k)


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
