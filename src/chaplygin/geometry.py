"""Chart-level differential geometry on R^n.

Conventions used throughout the package:

* a k-form is stored as its full component tensor T with
  T[i1, ..., ik] = omega(e_i1, ..., e_ik), antisymmetric in all indices;
* evaluation on vectors contracts every slot: omega(u, v, ...) = T[a,b,...] u_a v_b ...;
* partial-derivative tensors carry the derivative index FIRST:
  P[l, i1, ..., ik] = d/dx_l T[i1, ..., ik];
* the exterior derivative of a k-form is
  (d omega)_{i0..ik} = sum_j (-1)^j  d/dx_{ij} omega_{i0..^ij..ik}.

Every patch carries its partials in closed form.  The finite differences
here (central, second order, step h_i = cbrt(machine eps) * max(1, |x_i|))
are the reference oracle that tests hold those partials against.

A stack (N, d) of states puts its axis first in every result, before a
derivative index; each row equals the call on that row bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SymmetricInput

__all__ = [
    "FormPatch",
    "fd_exterior_derivative",
    "fd_gradient",
    "fd_partials",
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


def fd_step(x):
    """Central-difference step for a coordinate of magnitude |x| (elementwise on arrays)."""
    return FD_CBRT_EPS * np.maximum(1.0, np.abs(x))


def _first_bad(bad):
    """None if no entry of ``bad`` (one boolean per state) is set; otherwise
    the flat index of the first set entry and where it is: '' for one state
    (0-d), ' in row i' for a stack."""
    bad = np.asarray(bad)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, f" in row {i}" if bad.ndim else ""


def _swap(m: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack (the last two axes)."""
    return m.swapaxes(-1, -2)


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for each matrix and vector of a stack, rounded as the 2-d @ 1-d product."""
    return (m @ v[..., None])[..., 0]


def hat(v) -> np.ndarray:
    """Antisymmetric matrix of v: hat(v) w = v x w, i.e. hat(v)_ab = -epsilon_abl v_l.
    A stack (..., 3) of vectors gives a stack (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def unhat(m) -> np.ndarray:
    """Inverse of hat (of each matrix of a stack). Antisymmetrizes first; the
    symmetric residue must stay below 1e-8."""
    m = np.asarray(m, dtype=float)
    residue = np.max(np.abs(m + _swap(m)), axis=(-2, -1))
    if bad := _first_bad(residue > 1e-8):
        raise SymmetricInput(f"symmetric part {residue.flat[bad[0]]:.3e} exceeds tolerance 1.0e-08{bad[1]}")
    a = 0.5 * (m - _swap(m))
    return np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]], axis=-1)


def fd_partials(func: Callable[[np.ndarray], np.ndarray], state: np.ndarray) -> np.ndarray:
    """Partial derivatives of an array-valued (or scalar) function, derivative
    index first; for a stack of states it follows the stack axes."""
    state = np.asarray(state, dtype=float)
    rows = []
    for l in range(state.shape[-1]):
        h = fd_step(state[..., l])
        sp = state.copy()
        sm = state.copy()
        sp[..., l] += h
        sm[..., l] -= h
        diff = np.asarray(func(sp), float) - np.asarray(func(sm), float)
        rows.append(diff / np.reshape(2.0 * h, np.shape(h) + (1,) * (diff.ndim - np.ndim(h))))
    return np.stack(rows, axis=state.ndim - 1)


def fd_gradient(func: Callable[[np.ndarray], float], state: np.ndarray) -> np.ndarray:
    return fd_partials(lambda s: float(func(s)), state)


@dataclass(frozen=True)
class FormPatch:
    """A differential k-form on a chart of R^dim, k in {1, 2, 3}.

    ``entries(state)`` returns the full component tensor (shape (dim,)*degree)
    and ``partials(state)`` the derivative tensor with the derivative index
    first (shape (dim,)*(degree+1)).  Component tensors must be antisymmetric
    to 1e-12 in every pair of adjacent indices; this is checked on each
    evaluation.
    """

    degree: int
    dim: int
    entries: Callable[[np.ndarray], np.ndarray]
    partials: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.degree not in (1, 2, 3):
            raise ValueError(f"degree must be 1, 2 or 3, got {self.degree}")
        if self.dim < 1:
            raise ValueError("dim must be positive")

    def __call__(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        t = np.asarray(self.entries(state), dtype=float)
        expect = state.shape[:-1] + (self.dim,) * self.degree
        if t.shape != expect:
            raise ValueError(f"form '{self.name}' returned shape {t.shape}, expected {expect}")
        slots = tuple(range(-self.degree, 0))
        for ax in range(self.degree - 1):
            pair = slots[ax], slots[ax + 1]
            residue = np.max(np.abs(t + np.swapaxes(t, *pair)), axis=slots)
            if bad := _first_bad(residue > 1e-12):
                raise SymmetricInput(
                    f"form '{self.name}' is not antisymmetric in axes ({ax},{ax + 1}): "
                    f"residue {residue.flat[bad[0]]:.3e}{bad[1]}"
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
        state = np.asarray(state, dtype=float)
        p = np.asarray(self.partials(state), dtype=float)
        expect = state.shape[:-1] + (self.dim,) * (self.degree + 1)
        if p.shape != expect:
            raise ValueError(f"partials of '{self.name}' have shape {p.shape}, expected {expect}")
        return p


def fd_exterior_derivative(form: FormPatch, state: np.ndarray) -> np.ndarray:
    """Component tensor of d(form) at state, shape (dim,)*(degree+1).

    Assembled from the form's partials; the alternating assembly makes the
    result antisymmetric to the last bit.
    """
    p = form.partial_tensor(state)
    out = np.zeros_like(p)
    first = -(form.degree + 1)  # the derivative index, after any stack axes
    for j in range(form.degree + 1):
        term = np.moveaxis(p, first, first + j)
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
