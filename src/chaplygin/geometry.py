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

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AllocationFailed, SymmetricInput

__all__ = [
    "FormPatch",
    "ScalarField",
    "fd_exterior_derivative",
    "fd_gradient",
    "fd_partials",
    "hat",
    "random_rotation",
    "unhat",
    "wedge_1_2",
]

FD_CBRT_EPS = float(np.cbrt(np.finfo(float).eps))


def fd_step(x):
    """Central-difference step for a coordinate of magnitude |x| (elementwise on arrays)."""
    return FD_CBRT_EPS * np.maximum(1.0, np.abs(x))


def _first_bad(bad):
    """None if no entry of ``bad`` (a numpy bool per state) is set; otherwise
    the flat index of the first set entry and where it is: '' for one state
    (0-d), ' in row i' for a stack."""
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, f" in row {i}" if bad.ndim else ""


def _asymmetry(t, k, ax, bound):
    """None if no tensor of t (its last k axes) has a residue max |t + t swapped| in slots (ax, ax + 1)
    above ``bound`` (nan passes); else that residue of the first and where it is (``_first_bad``)."""
    s = np.abs(t + np.swapaxes(t, ax - k, ax + 1 - k))
    if (s > bound).any():
        residue = np.max(s, axis=tuple(range(-k, 0)))
        if bad := _first_bad(residue > bound):
            return residue.flat[bad[0]], bad[1]


def _indices(dim: int, *indices: int) -> None:
    """Raise IndexError naming the first index outside 0 <= i < dim."""
    if bad := [i for i in indices if not 0 <= i < dim]:
        raise IndexError(f"index {bad[0]} out of range for dim {dim}")


def _one(vector, dim: int, what: str) -> np.ndarray:
    """One vector (dim,), not a stack."""
    if np.shape(vector) != (dim,):
        raise ValueError(f"expected one {dim}-dim {what}, got shape {np.shape(vector)}")
    return np.asarray(vector, dtype=float)


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
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected a 3-vector or a stack (..., 3), got shape {v.shape}")
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def unhat(m) -> np.ndarray:
    """Inverse of hat (of each matrix of a stack). Antisymmetrizes first; the
    symmetric residue must stay below 1e-8."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or a stack (..., 3, 3), got shape {m.shape}")
    if bad := _asymmetry(m, 2, 0, 1e-8):
        raise SymmetricInput(f"symmetric part {bad[0]:.3e} exceeds tolerance 1.0e-08{bad[1]}")
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
    """The gradient of a scalar function at one state."""
    return fd_partials(lambda s: float(func(s)), _one(state, np.shape(state)[-1], "state"))


class _Patch:
    """The contract of every patch on a chart of R^dim: dim >= 1, and each
    output checked against the state it was evaluated at (``_checked``)."""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")

    def _checked(self, t, state: np.ndarray, k: int, what: str, antisymmetric: bool = True) -> np.ndarray:
        """The raw output t at ``state`` as a float array, checked: its shape is state.shape[:-1]
        + (dim,) * k and, when ``antisymmetric``, it is antisymmetric to 1e-12 in each adjacent
        pair of its k slots (``_asymmetry``; SymmetricInput names the first offending row)."""
        t = np.asarray(t, dtype=float)
        if t.shape != (expect := state.shape[:-1] + (self.dim,) * k):
            raise ValueError(f"{what} '{self.name}' has shape {t.shape}, expected {expect}")
        for ax in range(k - 1 if antisymmetric else 0):
            if bad := _asymmetry(t, k, ax, 1e-12):
                raise SymmetricInput(f"{what} '{self.name}' is not antisymmetric in axes ({ax},{ax + 1}): "
                                     f"residue {bad[0]:.3e}{bad[1]}")
        return t


@dataclass(frozen=True)
class FormPatch(_Patch):
    """A differential k-form on a chart of R^dim, k in {1, 2, 3}.

    ``entries(state)`` returns the full component tensor (shape (dim,)*degree)
    and ``partials(state)`` the derivative tensor with the derivative index
    first (shape (dim,)*(degree+1)).  Entries must be antisymmetric to 1e-12 (``_Patch._checked``).
    """

    degree: int
    dim: int
    entries: Callable[[np.ndarray], np.ndarray]
    partials: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.degree not in (1, 2, 3):
            raise ValueError(f"degree must be 1, 2 or 3, got {self.degree}")
        super().__post_init__()

    def __call__(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        return self._checked(self.entries(state), state, self.degree, "form")

    def evaluate(self, state: np.ndarray, *vectors: np.ndarray) -> float:
        """The form on the vectors at one state, each one dim-vector."""
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} vectors, got {len(vectors)}")
        t = self(_one(state, self.dim, "state"))
        for v in vectors:
            t = np.tensordot(t, _one(v, self.dim, "vector"), axes=([0], [0]))
        return float(t)

    def partial_tensor(self, state: np.ndarray) -> np.ndarray:
        """d/dx_l of the component tensor, derivative index first."""
        state = np.asarray(state, dtype=float)
        return self._checked(self.partials(state), state, self.degree + 1, "partials of", antisymmetric=False)


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on the chart with its analytic gradient.

    A field whose ``value`` and ``gradient`` take a stack of states gives one
    value (gradient) per row; a constant ``value`` stands for every row.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, state: np.ndarray):
        state = np.asarray(state, dtype=float)
        value = self.value(state)
        if state.ndim == 1:
            return float(value)
        return np.full(state.shape[:-1], value, dtype=float)

    def grad(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(self.gradient(np.asarray(state, dtype=float)), dtype=float)


def fd_exterior_derivative(form: FormPatch, state: np.ndarray) -> np.ndarray:
    """Component tensor of d(form) at state, shape (dim,)*(degree+1).

    Assembled from the form's partials by ``_exterior_derivative``.  For a
    1-form the assembly p - p^T is antisymmetric to the last bit; from a
    2-form on it is so only to round-off (d of the rank-1 twist 2-form, the
    twist 3-form, shows a 2.2e-16 residue in axes (1, 2) over 50 states).
    """
    return _exterior_derivative(form.partial_tensor(state), form.degree)


def _exterior_derivative(p: np.ndarray, degree: int) -> np.ndarray:
    """d of a degree-form from its partials p[..., l, i1, ..., ik], any leading axes
    kept: the sum over j of (-1)^j p with its derivative index moved to slot j."""
    out = np.zeros_like(p)
    first = -(degree + 1)  # the derivative index, after any leading axes
    for j in range(degree + 1):
        term = np.moveaxis(p, first, first + j)
        out = out + (term if j % 2 == 0 else -term)
    return out


def wedge_1_2(alpha: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Component tensor of alpha ^ omega for a 1-form alpha and 2-form omega
    (of each pair of a stack)."""
    alpha = np.asarray(alpha, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if not alpha.ndim or omega.shape != alpha.shape + alpha.shape[-1:]:
        raise ValueError(f"expected alpha (..., d) and omega (..., d, d), got shapes {alpha.shape} and {omega.shape}")
    return (
        np.einsum("...a,...bc->...abc", alpha, omega)
        + np.einsum("...b,...ca->...abc", alpha, omega)
        + np.einsum("...c,...ab->...abc", alpha, omega)
    )


@contextmanager
def _allocating(shape: tuple):
    """Run the block that builds an array of float64 ``shape``: a shape of
    more bytes than numpy can address, or a MemoryError in the block, is
    AllocationFailed naming the shape."""
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise AllocationFailed(shape)
    try:
        yield
    except MemoryError:
        raise AllocationFailed(shape) from None


def _draws(n, dim: int) -> np.ndarray:
    """The uninitialized rows of n draws of dim entries, or of one if n is None."""
    if n is None:
        n = 1
    elif isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be a non-negative int or None, got {n!r}")
    with _allocating(shape := (int(n), dim)):
        return np.empty(shape)


def random_rotation(seed=None) -> np.ndarray:
    """Haar-ish random rotation matrix (QR of a Gaussian matrix, sign-fixed)."""
    return _rotations(np.random.default_rng(seed).standard_normal((3, 3)))


def _rotations(a: np.ndarray) -> np.ndarray:
    """``random_rotation`` of each Gaussian matrix of a stack."""
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[np.linalg.det(q) < 0.0, :, 2] *= -1.0
    return q
