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
states.  The per-step formulas are written once as source text (``_chart``):
the stepper splices them into its RK4 march, and ``BodyParams._kernels``
compiles them into callables on Python floats or numpy columns.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from .brackets import BivectorPatch, ScalarField
from .errors import DegenerateDenominator, NonFiniteState, UnsupportedRank
from .geometry import (
    EPSILON,
    FormPatch,
    _as_rng,
    _first_bad,
    _mv,
    _one,
    _rotations,
    _swap,
    fd_exterior_derivative,
    hat,
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
    def _constants(self) -> dict:
        """This body's values of _CONSTANTS, which the chart texts read."""
        sign, n = self._rank_terms
        smr2 = sign * self.mr2
        values = (*n, smr2, *(self.radius * matrix_A(self)).ravel().tolist(), *(1.0 + smr2 / n_i for n_i in n))
        return dict(zip(_CONSTANTS, values), check=partial(_check_denominator, self.rank))

    @cached_property
    def _kernels(self) -> "_Kernels":
        """The callables of this body, each compiled on first use."""
        return _Kernels(self)


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


# The per-step formulas, written once as source text on gamma g1..g3, K
# k1..k3, rows a1..a3 and b1..b3 of g, and the constants: n, smr2 = sign m r^2,
# m11..m33 = r A, the weights w of phi^2 and the denominator check, which a
# closure binds to a body's values (_compile).
_CONSTANTS = ("n1", "n2", "n3", "smr2", *(f"m{i}{j}" for i in "123" for j in "123"), "w1", "w2", "w3", "check")
# Omega = K/n - sign m r^2 c u, u = gamma/n, c = K . u / den, by Sherman-Morrison
# (den = |gamma|^2 + sign m r^2 gamma . u is phi^2 on the unit sphere).  Floats
# passing the test pass check; {floats} is the callables' type test.
_OMEGA = """\
u1, u2, u3 = g1 / n1, g2 / n2, g3 / n3
gg = g1 * g1 + g2 * g2 + g3 * g3
den = gg + smr2 * (g1 * u1 + g2 * u2 + g3 * u3)
if not ({floats}1e-300 <= gg < inf and 1e-12 * gg < den < inf):
    check(den, gg)
c = (k1 * u1 + k2 * u2 + k3 * u3) / den
s = smr2 * c
o1, o2, o3 = k1 / n1 - s * u1, k2 / n2 - s * u2, k3 / n3 - s * u3
"""
_OMEGA_ZERO = "o1, o2, o3 = k1 / n1, k2 / n2, k3 / n3\n"
_PHI = "phi = sqrt(g1 * (w1 * g1) + g2 * (w2 * g2) + g3 * (w3 * g3))\n"
_PHI_ZERO = "phi = 1.0\n"


def _cross(v: str) -> tuple:
    """The components of v x Omega."""
    return f"{v}2 * o3 - {v}3 * o2", f"{v}3 * o1 - {v}1 * o3", f"{v}1 * o2 - {v}2 * o1"


_REDUCED = ("g1", "g2", "g3", "k1", "k2", "k3"), (*_cross("g"), *_cross("k"))
# g' = g x Omega row by row (gamma is the third row), x' = r A v with v = g Omega, K' = K x Omega
_FULL_V = "".join(f"v{i} = {r}1 * o1 + {r}2 * o2 + {r}3 * o3\n" for i, r in zip("123", "abg"))
_FULL = (*(f"{r}{j}" for r in "abg" for j in "123"), None, None, None, "k1", "k2", "k3"), (
    *_cross("a"), *_cross("b"), *_cross("g"), *(f"m{i}1 * v1 + m{i}2 * v2 + m{i}3 * v3" for i in "123"), *_cross("k"))


def _chart(chart: str, zero: bool, omega: str = "") -> tuple[tuple, str, tuple]:
    """(names of the state entries, None where unread; body text; derivative
    expressions) of the field on ``chart``: "reduced" (gamma, K), "reparam"
    (gamma, K, t) with d/dtau = phi d/dt, phi first, or "full" (g, x, K).
    ``omega`` replaces the text of Omega when given."""
    names, derivatives = _FULL if chart == "full" else _REDUCED
    body = omega or (_OMEGA_ZERO if zero else _OMEGA).format(floats="")
    if chart == "full":
        body += _FULL_V
    elif chart == "reparam":
        names, body = (*names, None), (_PHI_ZERO if zero else _PHI) + body
        derivatives = (*(f"phi * ({d})" for d in derivatives), "phi")
    return names, body, derivatives


def _stage(field: tuple, out: str, args: list) -> list:
    """The lines that evaluate a field of _chart at the entries ``args``
    (expressions) into out0, out1, ...: its names set to the arguments, its
    body, its derivatives."""
    names, body, derivatives = field
    lines = [f"{n} = {a}" for n, a in zip(names, args) if n]
    return [*lines, *body.splitlines(), *(f"{out}{i} = {d}" for i, d in enumerate(derivatives))]


def _function(header: str, *blocks: str) -> str:
    """Source of a function: the header, then the blocks of lines indented."""
    return header + "\n" + "".join(f"    {line}\n" for b in blocks for line in b.splitlines())


def _compile(function: str, name: str, filename: str, namespace: dict, constants: tuple = _CONSTANTS) -> Callable:
    """bind(*constants) -> the function ``name`` of the source ``function``,
    with the constants as closure cells and a copy of ``namespace`` as its
    globals: one compiled text serves every body."""
    source = _function(f"def bind({', '.join(constants)}):", function, f"return {name}")
    exec(compile(source, filename, "exec"), namespace := dict(namespace))
    return namespace["bind"]


@cache
def _kernel_factory(name: str, zero: bool) -> Callable:
    """bind(**constants) -> omega(gamma, k) -> (Omega, u, den, c) (u, den, c
    None if sign = 0), reduced(y) or full(y) -> y' (through a bound omega),
    or phi(g1, g2, g3), for the bodies with sign == 0 or with sign != 0.  On
    Python floats or numpy columns, which round alike: a batch equals its
    rows bit for bit."""
    constants = _CONSTANTS
    if name == "omega":
        text = (_OMEGA_ZERO if zero else _OMEGA).format(floats="isinstance(den, float) and ")
        gamma, terms = ("", "None, None, None") if zero else ("g1, g2, g3 = gamma", "(u1, u2, u3), den, c")
        blocks = "def omega(gamma, k):", "k1, k2, k3 = k", gamma, text, f"return (o1, o2, o3), {terms}"
    elif name == "phi":
        blocks = "def phi(g1, g2, g3):", _PHI_ZERO if zero else _PHI, "return phi"
    else:
        names, body, derivatives = _chart(name, zero, "(o1, o2, o3), _, _, _ = omega((g1, g2, g3), (k1, k2, k3))\n")
        unpack = f"{', '.join(n or '_' for n in names)} = y"
        blocks = f"def {name}(y):", unpack, body, f"return {', '.join(derivatives)}"
        constants += ("omega",)
    return _compile(_function(*blocks), name, f"<{name} zero={zero}>", {"sqrt": np.sqrt, "inf": math.inf}, constants)


class _Kernels:
    """A body's callables (see _kernel_factory), each compiled on first use
    and bound to the body's constants: simulate needs omega alone."""

    def __init__(self, params: BodyParams):
        self._constants, self._zero = params._constants, not params._rank_terms[0]

    def _bind(self, name: str, **callables) -> Callable:
        return _kernel_factory(name, self._zero)(**self._constants, **callables)

    omega = cached_property(lambda self: self._bind("omega"))
    reduced = cached_property(lambda self: self._bind("reduced", omega=self.omega))
    full = cached_property(lambda self: self._bind("full", omega=self.omega))
    phi = cached_property(lambda self: self._bind("phi"))


def K_from_omega(params: BodyParams, gamma, omega) -> np.ndarray:
    """K = n Omega + sign m r^2 (gamma . Omega) gamma = (I + m r^2 S(gamma)) Omega,
    for one state or each row of a stack (..., 3) (bit for bit)."""
    gamma, omega = _omega_args(gamma, omega)
    sign, n = params._rank_terms
    return np.array(n) * omega + (sign * params.mr2 * np.vecdot(gamma, omega))[..., None] * gamma


# The evaluations shared by the suites of one verify run: a dict from
# (kind, params, shape, gamma bytes, K bytes) to a value, set by
# ``verify._run_suites`` around its suites and reset when they end; None
# outside a run.
_run_memo: ContextVar[dict | None] = ContextVar("_run_memo", default=None)


def _memoized(kind, params: BodyParams, gamma: np.ndarray, K: np.ndarray, compute: Callable):
    """compute(), once per kind and content of a stack (gamma, K) inside a
    verify run, its arrays then read-only and shared; outside a run, or for
    one state, compute() alone.  A first computation that raises stores
    nothing, so the same inputs raise again."""
    memo = _run_memo.get()
    if memo is None or gamma.ndim == 1:
        return compute()
    key = (kind, params, gamma.shape, gamma.tobytes(), K.tobytes())
    if key not in memo:
        value = compute()
        for a in value:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        memo[key] = value
    return memo[key]


def _columns(a: np.ndarray) -> tuple:
    """The views a[..., i] of the last axis, the numpy columns a kernel takes."""
    return tuple(a[..., i] for i in range(a.shape[-1]))


def _assemble(columns) -> np.ndarray:
    """The array (..., len(columns)) whose last axis holds the columns."""
    out = np.empty(np.shape(columns[0]) + (len(columns),))
    for i, c in enumerate(columns):
        out[..., i] = c
    return out


def _omega_args(gamma, K) -> tuple[np.ndarray, np.ndarray]:
    """gamma and K as float arrays of one shape (..., 3)."""
    gamma = np.asarray(gamma, dtype=float)
    K = np.asarray(K, dtype=float)
    if gamma.shape[-1:] != (3,) or K.shape != gamma.shape:
        raise ValueError(
            f"expected gamma and K of shape (..., 3) with the same leading axes, "
            f"got shapes {gamma.shape} and {K.shape}"
        )
    return gamma, K


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
    return _omega_terms(params, gamma, K)[0].copy()


def _omega_terms(params: BodyParams, gamma, K) -> tuple:
    """The omega kernel on the components of gamma and K, Python floats for
    one state or numpy columns for a stack: (Omega, u, den, c) with Omega
    and u as arrays (..., 3) and den, c floats or arrays (...,); u, den, c
    are None when sign = 0."""
    gamma, K = _omega_args(gamma, K)
    kernel = params._kernels.omega
    if gamma.ndim == 1 and K.ndim == 1:
        omega, u, den, c = kernel(gamma.tolist(), K.tolist())
        return np.array(omega), None if u is None else np.array(u), den, c

    def compute():
        # the kernel's denominator check raises on an overflow, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            omega, u, den, c = kernel(_columns(gamma), _columns(K))
        return _assemble(omega), None if u is None else _assemble(u), den, c

    return _memoized("terms", params, gamma, K, compute)


def _omega_and_jacobians(params: BodyParams, gamma, K) -> tuple:
    """(Omega, d Omega / d gamma, d Omega / d K) at one state or a stack, from
    one evaluation of the Sherman-Morrison terms."""
    gamma, K = _omega_args(gamma, K)
    return _memoized("jacobians", params, gamma, K, lambda: _jacobians(params, gamma, K))


def _jacobians(params: BodyParams, gamma: np.ndarray, K: np.ndarray) -> tuple:
    """``_omega_and_jacobians`` of checked gamma and K, computed."""
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
    return tuple(d.copy() for d in _omega_and_jacobians(params, gamma, K)[1:])


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


def _field(kernel: Callable, state, dim: int, chart: str) -> np.ndarray:
    """A chart kernel's field at one state, on Python floats, or at each row
    of a stack, on numpy columns."""
    state = _checked(state, dim, chart)
    if state.ndim == 1:
        return np.array(kernel(state.tolist()))
    return _assemble(kernel(_columns(state)))


def reduced_vf(params: BodyParams, state) -> np.ndarray:
    """Equations of motion on the reduced space: (gamma, K)' = (gamma x Omega, K x Omega),
    evaluated by the body's reduced kernel."""
    return _field(params._kernels.reduced, state, REDUCED_DIM, "reduced")


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

        def compute():
            v, dv_gamma, dv_k = _v_jet(params, gamma, K, variant)
            dp = np.broadcast_to(_BRACKET_BASE, gamma.shape[:-1] + _BRACKET_BASE.shape).copy()
            # d_l hat(V) = hat(d_l V)
            dp[..., 3:, 3:] = hat(_swap(np.concatenate([dv_gamma, dv_k], axis=-1)))
            return matrix(gamma, v), dp

        return _memoized(("jet", variant), params, gamma, K, compute)

    return BivectorPatch(dim=REDUCED_DIM, structure=structure, name=f"rank{params.rank}-{variant}", jet=jet)


def conformal_factor(params: BodyParams) -> ScalarField:
    """The positive function that rescales the Hamiltonizable bracket into a
    Poisson one: sqrt(|gamma|^2 + m r^2 gamma . I^-1 gamma) for rank 1,
    sqrt(|gamma|^2 - m r^2 gamma . (I + m r^2)^-1 gamma) for rank 2 (the
    denominator of omega_from_K), and the constant 1 for ranks 0 and 3.
    """
    if not params._rank_terms[0]:
        return ScalarField(value=lambda s: 1.0, gradient=lambda s: np.zeros(s.shape), name="phi=1")
    kernels = params._kernels
    weight = np.array([params._constants[w] for w in ("w1", "w2", "w3")])  # phi^2 = sum_i w_i gamma_i^2

    def value(s):
        return kernels.phi(s[..., 0], s[..., 1], s[..., 2])

    def gradient(s):
        phi = np.asarray(value(s))
        if bad := _first_bad(phi == 0.0):
            raise DegenerateDenominator(f"rank-{params.rank} conformal factor vanishes at gamma = 0{bad[1]}")
        out = np.zeros(s.shape)
        out[..., :3] = weight * s[..., :3] / phi[..., None]
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
    """The full state (g row-major, x, K), or the stack of them; g is (..., 3, 3)
    or flat (..., 9)."""
    g = np.asarray(g, dtype=float)
    if g.shape[-2:] == (3, 3):
        g = g.reshape(g.shape[:-2] + (9,))
    elif g.shape[-1:] != (9,):
        raise ValueError(f"expected g of shape (..., 3, 3) or (..., 9), got shape {g.shape}")
    return np.concatenate([g, np.asarray(x, dtype=float), np.asarray(K, dtype=float)], axis=-1)


def split_full(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    state = _checked(state, FULL_DIM, "full")
    return state[..., :9].reshape(state.shape[:-1] + (3, 3)), state[..., 9:12], state[..., 12:15]


def project_rho(state) -> np.ndarray:
    """Reduction map rho(g, x, K) = (gamma, K) with gamma the third row of g."""
    return _checked(state, FULL_DIM, "full")[..., RHO_INDEX]


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


def sample_full_state(seed=None, n=None) -> np.ndarray:
    """Random full state: Haar-ish rotation, x and K uniform in [-1,1]^3;
    with a count n, the stack of n such draws (n, 15)."""
    rng = _as_rng(seed)
    out = np.empty((1 if n is None else n, FULL_DIM))
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
    K' = K x Omega, with Omega = omega_from_K(gamma = g[2], K), evaluated by
    the body's full kernel.

    This is the bracket flow -ham_vf(nh_bracket_full(params, "plain"),
    full_hamiltonian_field(params)), which the tests keep as its oracle.
    """
    return _field(params._kernels.full, state, FULL_DIM, "full")


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
