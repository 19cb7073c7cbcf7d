"""Almost-Poisson brackets on a chart: structure matrices, Jacobiators,
gauge transformations by 2-forms, conformal rescaling and twisted defects.

The structure matrix convention is pi[i, j] = {x_i, x_j}.  Hamiltonian
vector fields follow (X_f)_i = -sum_j pi[i, j] d_j f, so the bracket flow
of a Hamiltonian h is -ham_vf(pi, h, state); see ``body.reduced_vf``.

Patches, fields, ``jacobi_tensor`` and ``gauge_matrix`` also take a stack
(N, d) of states (N matrices); a failed check names the first offending row.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AnnihilationViolated, NonPositiveFactor, SingularGauge, SymmetricInput
from .geometry import FormPatch, ScalarField, _first_bad, _indices, _mv, _one, _Patch, _swap, fd_exterior_derivative

__all__ = [
    "BivectorPatch",
    "casimir_defect",
    "conformal_jacobiator",
    "coordinate_field",
    "distribution_probe",
    "dynamical_gauge_check",
    "gauge_matrix",
    "gauge_transform",
    "ham_vf",
    "jacobi_tensor",
    "jacobiator",
    "scale_bivector",
    "twisted_defect",
]

_COND_LIMIT = 1e12
_CONTRACTION_TOL = 1e-9  # |i_{X_h} B| of a dynamical gauge
_ANNIHILATION_TOL = 1e-8  # |chi(X_f)| of a distribution probe


@dataclass(frozen=True)
class BivectorPatch(_Patch):
    """An almost-Poisson bivector on a chart of R^dim.

    ``structure(state)`` is the matrix pi[i, j] = {x_i, x_j}; it must be
    antisymmetric to 1e-12 (checked on every evaluation, ``_Patch._checked``).
    ``jet`` returns (structure(state), partials) from one evaluation of what
    they share, with the derivative index first: partials[l, i, j] = d_l pi[i, j].
    """

    dim: int
    structure: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[np.ndarray], tuple]
    name: str = ""

    def matrix(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        return self._checked(self.structure(state), state, 2, "bivector")

    def partial_tensor(self, state: np.ndarray) -> np.ndarray:
        return self.matrix_and_partials(state)[1]

    def matrix_and_partials(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(matrix(state), partial_tensor(state)), from one ``jet`` call."""
        state = np.asarray(state, dtype=float)
        p, t = self.jet(state)
        return self._checked(p, state, 2, "bivector"), self._checked(t, state, 3, "partials of", antisymmetric=False)

    def bracket(self, f: "ScalarField", g: "ScalarField", state: np.ndarray) -> float:
        """{f, g} at one state; each gradient must be one dim-vector."""
        state = _one(state, self.dim, "state")
        p = self.matrix(state)
        return float(_one(f.grad(state), self.dim, "gradient") @ p @ _one(g.grad(state), self.dim, "gradient"))


def coordinate_field(dim: int, i: int) -> ScalarField:
    """The coordinate x_i, at one state or each row of a stack (..., dim)."""
    _indices(dim, i)
    e = np.zeros(dim)
    e[i] = 1.0
    e.setflags(write=False)

    def gradient(s):
        if s.shape[-1:] != (dim,):
            raise ValueError(f"coordinate x{i} of a {dim}-dim chart at a state of shape {s.shape}")
        return np.zeros(s.shape) + e

    return ScalarField(value=lambda s: s[..., i], gradient=gradient, name=f"x{i}")


def _flow(p: np.ndarray, df: np.ndarray) -> np.ndarray:
    """-p df: the Hamiltonian vector field of a function with gradient df
    under the structure matrix p, for one state or each row of a stack."""
    return -_mv(p, df)


def ham_vf(pi: BivectorPatch, f: ScalarField, state: np.ndarray) -> np.ndarray:
    """Hamiltonian vector field of f: (X_f)_i = -pi[i, j] d_j f; (N, dim)
    for a stack of N states."""
    return _flow(pi.matrix(state), f.grad(state))


def _on_chart(pi: BivectorPatch, form: FormPatch, degree: int, what: str):
    """Raise ValueError unless ``form`` is a degree-form on the chart of pi."""
    if form.degree != degree or form.dim != pi.dim:
        raise ValueError(f"{what} form must be a {degree}-form on the same chart")


@functools.cache
def _sorted_triples(dim: int) -> tuple:
    """Read-only index arrays a, b and c of every sorted triple a < b < c of
    a dim-dim chart, in ``itertools.combinations`` order."""
    index = np.array(list(itertools.combinations(range(dim), 3)), dtype=np.intp).reshape(-1, 3).T
    index.setflags(write=False)
    return tuple(index)


def _cyclic_sum(pi: BivectorPatch, state: np.ndarray, phi: Optional[FormPatch] = None, index: Optional[tuple] = None):
    """sum_l [pi_al d_l pi_bc + pi_bl d_l pi_ca + pi_cl d_l pi_ab], plus
    phi(X_a, X_b, X_c) with X_a = -pi e_a when a 3-form is given.

    ``index`` holds the index arrays a, b and c of the sorted triples (by
    default ``_sorted_triples``, every one of the chart), one value per
    triple; a stack of states adds its axis in front.  The twist contracts
    phi with every X_c once, then with X_b and X_a at each triple.  Every
    sum is a reduction over the last axis of a fresh product (``_dot``), so
    a value has the same bits for one state as in a stack, and for one
    triple as among all of them.
    """
    if phi is not None:
        _on_chart(pi, phi, 3, "twist")
    a, b, c = _sorted_triples(pi.dim) if index is None else index
    p, dp = pi.matrix_and_partials(state)
    dp = np.moveaxis(dp, -3, -1)  # dp[..., b, c, l] = d_l pi_bc
    pa, pb, pc = p[..., a, :], p[..., b, :], p[..., c, :]
    out = _dot(pa, dp[..., b, c, :]) + _dot(pb, dp[..., c, a, :]) + _dot(pc, dp[..., a, b, :])
    if phi is not None:
        x = -_swap(p)  # row a is X_a
        t = _dot(phi(state)[..., None, :, :, :], x[..., :, None, None, :])  # t[..., c, i, j] = phi(e_i, e_j, X_c)
        t = _dot(t[..., c, :, :], x[..., b, None, :])  # phi(e_i, X_b, X_c)
        out = out + _dot(t, x[..., a, :])  # phi(X_a, X_b, X_c)
    return out


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_l u[..., l] v[..., l], summed the same way for every broadcast shape
    and memory layout: the product is laid out in C order, so l runs last."""
    return np.add.reduce(np.multiply(u, v, order="C"), axis=-1)


def _odd(t) -> bool:
    """Whether three distinct indices come in an odd permutation of their
    sorted order: the sign of a Jacobi tensor entry against its sorted triple."""
    return (t[0] > t[1]) ^ (t[0] > t[2]) ^ (t[1] > t[2])


def jacobi_tensor(pi: BivectorPatch, state: np.ndarray, phi: Optional[FormPatch] = None) -> np.ndarray:
    """The (dim, dim, dim) tensor of cyclic Jacobi defects at state, plus
    phi(X_a, X_b, X_c) when a background 3-form phi is given; (N, dim, dim,
    dim) for a stack of N states.

    The bracket and its partials are evaluated once (one ``jet`` call); the
    values at sorted triples are scattered with the sign of each
    permutation, so the tensor alternates exactly and is exactly 0.0 on
    repeated indices.
    """
    v = _cyclic_sum(pi, state, phi)
    out = np.zeros(v.shape[:-1] + (pi.dim,) * 3)
    triple = _sorted_triples(pi.dim)
    for perm in itertools.permutations(range(3)):
        out[(..., *(triple[m] for m in perm))] = -v if _odd(perm) else v
    return out


def jacobiator(pi: BivectorPatch, i: int, j: int, k: int, state: np.ndarray) -> float:
    """Cyclic Jacobi defect {x_i,{x_j,x_k}} + {x_j,{x_k,x_i}} + {x_k,{x_i,x_j}}
    at one state.

    In coordinates this is sum_l [pi_il d_l pi_jk + pi_jl d_l pi_ki + pi_kl d_l pi_ij],
    entry [i, j, k] of ``jacobi_tensor``: it alternates exactly under index
    swaps, and a repeated index gives exactly 0.0.
    """
    return twisted_defect(pi, None, i, j, k, state)


def scale_bivector(pi: BivectorPatch, factor: ScalarField) -> BivectorPatch:
    """The bivector factor * pi, with product-rule partials; its jet takes the
    matrix and partials of pi from one ``matrix_and_partials`` call."""

    # pi first, so that its state check speaks before the factor reads the state
    def structure(s):
        p = pi.matrix(s)
        return np.asarray(factor(s))[..., None, None] * p

    def jet(s):
        p, dp = pi.matrix_and_partials(s)
        phi = np.asarray(factor(s))[..., None, None]
        dphi = factor.grad(s)
        return phi * p, dphi[..., None, None] * p[..., None, :, :] + phi[..., None] * dp

    return BivectorPatch(
        dim=pi.dim, structure=structure, name=f"{factor.name or 'f'}*{pi.name or 'pi'}", jet=jet
    )


def _conditioning(m: np.ndarray) -> tuple:
    """Smallest singular value and condition number (inf if singular) of m,
    or of each matrix of a stack."""
    svals = np.linalg.svd(m, compute_uv=False)
    smallest, largest = svals[..., -1], svals[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return smallest, np.where(smallest > 0.0, largest / smallest, np.inf)


def _closed_gauge(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """p (E + x)^{-1} = p - p x for x @ x = 0, where (E + x)(E - x) = E."""
    return p - p @ x


def gauge_matrix(p: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """p (E + bm p)^{-1} for a structure matrix p and a 2-form matrix bm of
    one shape (..., d, d): one pair, or each pair of a stack.

    Raises SingularGauge where p or bm is not finite, where their product
    overflows (before any LAPACK call), or where the condition number of
    E + bm p is above 1e12 (or nan).  The result is re-antisymmetrized; a
    symmetric residue above 1e-10 before that step is an error
    (SymmetricInput).

    A pair is closed where X = bm p has X @ X exactly 0 and no entry above 1
    in size.  Then (E + X)^{-1} = E - X, and partial-pivoting LU of the
    transposed system makes no row swap, so the solve reduces to the
    substitution p - p X (the tests hold the two to the same values, and
    to the same bits on the rows of an SVD-and-solve oracle; a zero entry
    may differ in sign).  The paper's semi-basic B is closed: its
    X is nonzero only in rows 0-8 and columns 12-14 of the full chart, so
    X @ X = 0 is a theorem and E + B pi is always invertible.  A closed pair
    is finite (an inf or nan in p or bm makes a column or row of X
    non-finite) and has condition at most (1 + ||X||_F)^2 <= (1 + d)^2, far
    below 1e12.  Where every pair is closed, the result is p - p X, with no
    SVD and no solve; otherwise every pair is tested for finite entries, the
    pairs that are not closed are conditioned by one SVD, and the whole
    stack is solved.
    """
    if bm.shape != p.shape or p.ndim < 2 or p.shape[-1] != p.shape[-2]:
        raise ValueError(f"expected p and bm of one shape (..., d, d), got shapes {p.shape} and {bm.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below; a square that overflows is not 0
        x = bm @ p
        closed = ((x @ x == 0.0) & (np.abs(x) <= 1.0)).all(axis=(-2, -1))
    if closed.all():
        g = _closed_gauge(p, x)
    else:
        if bad := _first_bad(~(np.isfinite(p) & np.isfinite(bm)).all(axis=(-2, -1))):
            raise SingularGauge(f"non-finite bracket or 2-form entries{bad[1]}")
        if bad := _first_bad(~np.isfinite(x).all(axis=(-2, -1))):
            raise SingularGauge(f"the product B pi overflows{bad[1]}")
        m = np.eye(p.shape[-1]) + x
        condition = np.zeros(closed.shape)  # 0.0 where the pair is closed
        condition[~closed] = _conditioning(m[~closed])[1]
        if bad := _first_bad(~(condition <= _COND_LIMIT)):
            raise SingularGauge(f"E + B pi has condition {condition.flat[bad[0]]:.3e}{bad[1]}")
        # p @ inv(m), computed by a solve on the transposed system
        g = _swap(np.linalg.solve(_swap(m), _swap(p)))
    residue = np.max(np.abs(g + _swap(g)), axis=(-2, -1))
    if bad := _first_bad(residue > 1e-10):
        raise SymmetricInput(f"gauged matrix has symmetric residue {residue.flat[bad[0]]:.3e}{bad[1]}")
    return 0.5 * (g - _swap(g))


def gauge_transform(pi: BivectorPatch, b_form: FormPatch) -> BivectorPatch:
    """Gauge transformation of pi by the 2-form B: pi^B = pi (E + B pi)^{-1},
    where B is the component matrix B[i, j] = B(e_i, e_j); see ``gauge_matrix``.

    Its jet is d_l G = x_l M^{-1}, x_l = d_l P - G (d_l B P + B d_l P), with no
    solve: M^{-1} = E - B G, as P = G M = G + P B G; antisymmetrized, as G is.
    """
    _on_chart(pi, b_form, 2, "gauge")

    def jet(s):
        (p, dp), bm = pi.matrix_and_partials(s), b_form(s)
        g = gauge_matrix(p, bm)
        p, bm, gl = p[..., None, :, :], bm[..., None, :, :], g[..., None, :, :]  # broadcast over l
        x = dp - gl @ (b_form.partial_tensor(s) @ p + bm @ dp)
        dg = x - x @ (bm @ gl)
        return g, 0.5 * (dg - _swap(dg))

    return BivectorPatch(
        dim=pi.dim,
        structure=lambda s: gauge_matrix(pi.matrix(s), b_form(s)),
        jet=jet,
        name=f"gauge({pi.name or 'pi'})",
    )


def dynamical_gauge_check(
    pi: BivectorPatch,
    b_form: FormPatch,
    h_field: ScalarField,
    states: Sequence[np.ndarray],
) -> list[dict]:
    """Check that B is compatible with the dynamics of h on each state.

    Reports (never raises) per state: (i) the contraction i_{X_h} B, which
    must vanish for the gauged bracket to reproduce the same trajectories,
    and (ii) invertibility of E + B pi; a state passes when both hold, the
    contraction to 1e-9.
    """
    out = []
    for s in states:
        p, bm = pi.matrix(s), b_form(s)
        smallest, condition = map(float, _conditioning(np.eye(pi.dim) + bm @ p))
        contraction = float(np.linalg.norm(_flow(p, h_field.grad(s)) @ bm))
        invertible = condition <= _COND_LIMIT  # False also for nan and inf
        out.append(
            {
                "contraction": contraction,
                "smallest_singular_value": smallest,
                "condition": condition,
                "invertible": invertible,
                "passed": invertible and contraction <= _CONTRACTION_TOL,
            }
        )
    return out


def twisted_defect(
    pi: BivectorPatch, phi: Optional[FormPatch], i: int, j: int, k: int, state: np.ndarray
) -> float:
    """Jacobiator plus phi(X_i, X_j, X_k) on coordinate Hamiltonian fields,
    at one state.

    Vanishes exactly when the bracket is twisted-Poisson with background
    3-form phi.  Entry [i, j, k] of ``jacobi_tensor(pi, state, phi)``, bit for
    bit, so with phi = None this is the plain Jacobiator.  A call evaluates
    the one sorted triple of (i, j, k) (the bracket's jet and phi are still
    evaluated once, also for a repeated index, which gives exactly 0.0).
    """
    _indices(pi.dim, i, j, k)
    a, b, c = _sorted_triples(pi.dim)
    s, t, u = sorted((i, j, k))
    hit = (a == s) & (b == t) & (c == u)  # no sorted triple has a repeated index
    v = _cyclic_sum(pi, _one(state, pi.dim, "state"), phi, (a[hit], b[hit], c[hit]))
    return float(-v[0] if _odd((i, j, k)) else v[0]) if v.size else 0.0


def conformal_jacobiator(
    pi: BivectorPatch, factor: ScalarField, i: int, j: int, k: int, state: np.ndarray
) -> float:
    """Jacobiator of the rescaled bivector factor * pi at one state.

    The factor must be strictly positive at the state (NonPositiveFactor
    otherwise): a conformal rescaling by a vanishing or negative function
    would change the characteristic distribution.
    """
    state = _one(state, pi.dim, "state")
    phi = factor(state)
    if not phi > 0.0:
        raise NonPositiveFactor(f"conformal factor {phi!r} at state is not positive")
    return jacobiator(scale_bivector(pi, factor), i, j, k, state)


def casimir_defect(pi: BivectorPatch, c_field: ScalarField, state: np.ndarray):
    """|| X_C ||_2 with X_C = -pi dC (``_flow``); zero iff C is a Casimir of pi
    at the state.  A stack of N states gives the N norms."""
    v = _flow(pi.matrix(state), c_field.grad(state))
    return np.sqrt(np.vecdot(v, v))


def distribution_probe(
    pi: BivectorPatch,
    chi: FormPatch,
    f: ScalarField,
    g: ScalarField,
    state: np.ndarray,
) -> float:
    """-d(chi)(X_f, X_g) for a 1-form chi annihilating the characteristic
    distribution of pi.

    A nonzero value witnesses non-integrability of the distribution
    (Frobenius): the annihilator has a differential with a component along
    the distribution.  Raises AnnihilationViolated if chi fails to
    annihilate either Hamiltonian field at the state (to 1e-8), since then
    the probe would be meaningless.
    """
    _on_chart(pi, chi, 1, "probe")
    state = _one(state, pi.dim, "state")
    xf = ham_vf(pi, f, state)
    xg = ham_vf(pi, g, state)
    c = chi(state)
    for x, field in ((xf, f), (xg, g)):
        pairing = abs(float(c @ x))
        if pairing > _ANNIHILATION_TOL:
            raise AnnihilationViolated(
                f"chi(X_{field.name or 'f'}) = {pairing:.3e} exceeds {_ANNIHILATION_TOL:.1e}"
            )
    d = fd_exterior_derivative(chi, state)
    return -float(xf @ d @ xg)
