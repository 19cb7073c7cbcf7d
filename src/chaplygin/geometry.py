"""Chart-level differential geometry on R^n.

Conventions used throughout the package:

* a k-form is stored as its full component tensor T with
  T[i1, ..., ik] = omega(e_i1, ..., e_ik), antisymmetric in all indices;
* evaluation on vectors contracts every slot: omega(u, v, ...) = T[a,b,...] u_a v_b ...;
* partial-derivative tensors carry the derivative index FIRST:
  P[l, i1, ..., ik] = d/dx_l T[i1, ..., ik];
* the exterior derivative of a k-form is
  (d omega)_{i0..ik} = sum_j (-1)^j  d/dx_{ij} omega_{i0..^ij..ik}.

Finite differences are central second order with the per-component step
h_i = cbrt(machine eps) * max(1, |x_i|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SymmetricInput

__all__ = [
    "EPSILON",
    "FD_CBRT_EPS",
    "FormPatch",
    "cross3",
    "fd_exterior_derivative",
    "fd_gradient",
    "fd_partials",
    "fd_step",
    "hat",
    "random_rotation",
    "sample_reduced_state",
    "unhat",
    "wedge_1_2",
]

FD_CBRT_EPS = float(np.cbrt(np.finfo(float).eps))

# Levi-Civita symbol, EPSILON[i,j,k] = sign of the permutation (i,j,k).
EPSILON = np.zeros((3, 3, 3))
EPSILON[0, 1, 2] = EPSILON[1, 2, 0] = EPSILON[2, 0, 1] = 1.0
EPSILON[0, 2, 1] = EPSILON[2, 1, 0] = EPSILON[1, 0, 2] = -1.0
EPSILON.setflags(write=False)


def fd_step(x: float) -> float:
    """Central-difference step for a coordinate of magnitude |x|."""
    return FD_CBRT_EPS * max(1.0, abs(x))


def hat(v) -> np.ndarray:
    """Antisymmetric matrix of v: hat(v) w = v x w, i.e. hat(v)_ab = -epsilon_abl v_l."""
    v = np.asarray(v, dtype=float)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def cross3(a, b) -> list:
    """a x b of two length-3 sequences of Python floats, by the formula of
    np.cross (so bit-identical to it) at a fraction of its call cost."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    return [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]


def unhat(m) -> np.ndarray:
    """Inverse of hat. Antisymmetrizes first; the symmetric residue must stay below 1e-8."""
    m = np.asarray(m, dtype=float)
    residue = float(np.max(np.abs(m + m.T)))
    if residue > 1e-8:
        raise SymmetricInput(f"symmetric part {residue:.3e} exceeds tolerance 1.0e-08")
    a = 0.5 * (m - m.T)
    return np.array([a[2, 1], a[0, 2], a[1, 0]])


def fd_partials(func: Callable[[np.ndarray], np.ndarray], state: np.ndarray) -> np.ndarray:
    """Partial derivatives of an array-valued (or scalar) function; leading axis is the derivative index."""
    state = np.asarray(state, dtype=float)
    rows = []
    for l in range(state.size):
        h = fd_step(state[l])
        sp = state.copy()
        sm = state.copy()
        sp[l] += h
        sm[l] -= h
        rows.append((np.asarray(func(sp), float) - np.asarray(func(sm), float)) / (2.0 * h))
    return np.stack(rows)


def fd_gradient(func: Callable[[np.ndarray], float], state: np.ndarray) -> np.ndarray:
    return fd_partials(lambda s: float(func(s)), state)


@dataclass(frozen=True)
class FormPatch:
    """A differential k-form on a chart of R^dim, k in {1, 2, 3}.

    ``entries(state)`` returns the full component tensor (shape (dim,)*degree).
    ``partials(state)``, when given, returns the derivative tensor with the
    derivative index first (shape (dim,)*(degree+1)); otherwise finite
    differences are used.  Component tensors must be antisymmetric to 1e-12
    in every pair of adjacent indices; this is checked on each evaluation.
    """

    degree: int
    dim: int
    entries: Callable[[np.ndarray], np.ndarray]
    partials: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if self.degree not in (1, 2, 3):
            raise ValueError(f"degree must be 1, 2 or 3, got {self.degree}")
        if self.dim < 1:
            raise ValueError("dim must be positive")

    def __call__(self, state: np.ndarray) -> np.ndarray:
        t = np.asarray(self.entries(np.asarray(state, dtype=float)), dtype=float)
        expect = (self.dim,) * self.degree
        if t.shape != expect:
            raise ValueError(f"form '{self.name}' returned shape {t.shape}, expected {expect}")
        for ax in range(self.degree - 1):
            residue = float(np.max(np.abs(t + np.swapaxes(t, ax, ax + 1))))
            if residue > 1e-12:
                raise SymmetricInput(
                    f"form '{self.name}' is not antisymmetric in axes ({ax},{ax + 1}): "
                    f"residue {residue:.3e}"
                )
        return t

    def evaluate(self, state: np.ndarray, *vectors: np.ndarray) -> float:
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} vectors, got {len(vectors)}")
        t = self(state)
        for v in vectors:
            t = np.tensordot(t, np.asarray(v, dtype=float), axes=([0], [0]))
        return float(t)

    def partial_tensor(self, state: np.ndarray) -> np.ndarray:
        """d/dx_l of the component tensor, derivative index first."""
        if self.partials is not None:
            p = np.asarray(self.partials(np.asarray(state, dtype=float)), dtype=float)
            expect = (self.dim,) * (self.degree + 1)
            if p.shape != expect:
                raise ValueError(f"partials of '{self.name}' have shape {p.shape}, expected {expect}")
            return p
        return fd_partials(self.__call__, state)


def fd_exterior_derivative(form: FormPatch, state: np.ndarray) -> np.ndarray:
    """Component tensor of d(form) at state, shape (dim,)*(degree+1).

    Uses the form's analytic partials when available, finite differences
    otherwise.  The alternating assembly makes the result antisymmetric to
    the last bit either way.
    """
    p = form.partial_tensor(state)
    out = np.zeros_like(p)
    for j in range(form.degree + 1):
        term = np.moveaxis(p, 0, j)
        out = out + (term if j % 2 == 0 else -term)
    return out


def wedge_1_2(alpha: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Component tensor of alpha ^ omega for a 1-form alpha and 2-form omega."""
    alpha = np.asarray(alpha, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return (
        np.einsum("a,bc->abc", alpha, omega)
        + np.einsum("b,ca->abc", alpha, omega)
        + np.einsum("c,ab->abc", alpha, omega)
    )


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_reduced_state(seed=None) -> np.ndarray:
    """Random reduced state (gamma, K): gamma uniform on S^2, K uniform in [-1,1]^3."""
    rng = _as_rng(seed)
    while True:
        g = rng.standard_normal(3)
        norm = np.linalg.norm(g)
        if norm > 1e-8:
            break
    gamma = g / norm
    k = rng.uniform(-1.0, 1.0, size=3)
    return np.concatenate([gamma, k])


def random_rotation(seed=None) -> np.ndarray:
    """Haar-ish random rotation matrix (QR of a Gaussian matrix, sign-fixed)."""
    rng = _as_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q
