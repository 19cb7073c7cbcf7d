"""The rolling body and its dynamics, with no bracket machinery.

Reduced phase space: states are 6-vectors (gamma, K) where gamma is the
advected vertical direction in the body frame and K the constrained
momentum.  Full phase space: 15-vectors (g row-major, x, K) with g the
attitude rotation (gamma is the third row of g) and x the contact-plane
position.  The chart table below declares this layout once, for every
module.  The constraint of rank 0..3 has A^T A = diag(p, p, x) with
p = [rank >= 2] and x = [rank odd] (``_rank_bits``).

This module holds what the nonholonomic vector field needs, which every
gauge-related bracket of ``rolling`` generates alike: the body parameters,
the angular velocity Omega(gamma, K) with its Jacobians, the Hamiltonian,
the Casimirs, the conformal factor and invariant density, and the vector
fields on both charts.  Loading a scenario and integrating need nothing
else.

Fields and the Omega helpers also take a stack (N, d) of states.  The
per-step formulas are written once as source text (``_chart``): the
stepper splices them into its RK4 march, and ``BodyParams._kernels``
compiles them into callables on numpy columns, for one state or a stack.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from .errors import DegenerateDenominator, NonFiniteState, UnsupportedRank
from .geometry import ScalarField, _first_bad, _mv, _one, _swap

__all__ = [
    "FULL_DIM",
    "REDUCED_DIM",
    "RHO_INDEX",
    "BodyParams",
    "K_from_omega",
    "X_nh_full",
    "casimir_gamma_norm",
    "casimir_kgamma",
    "conformal_factor",
    "hamiltonian",
    "hamiltonian_field",
    "invariant_density",
    "lift_reduced_state",
    "matrix_A",
    "omega_from_K",
    "omega_jacobians",
    "pack_full",
    "project_rho",
    "reduced_vf",
    "split_full",
    "split_reduced",
]

# The chart table: the blocks and entry names of each chart.  The dimensions derive from it, and so
# does RHO_INDEX, the positions of (gamma, K) in a full state (gamma is the third row of g).
_GAMMA, _K = slice(0, 3), slice(3, 6)
_G, _X, _FULL_K = slice(0, 9), slice(9, 12), slice(12, 15)
REDUCED_NAMES = ("gamma1", "gamma2", "gamma3", "K1", "K2", "K3")
FULL_NAMES = ("g11", "g12", "g13", "g21", "g22", "g23", "g31", "g32", "g33", "x1", "x2", "x3", *REDUCED_NAMES[_K])
REDUCED_DIM, FULL_DIM = len(REDUCED_NAMES), len(FULL_NAMES)
RHO_INDEX = np.array([FULL_NAMES.index(name) for name in ("g31", "g32", "g33", *REDUCED_NAMES[_K])])
RHO_INDEX.setflags(write=False)


def _rank_bits(rank: int) -> tuple[float, float]:
    """(p, x) with A^T A = diag(p, p, x): p = [rank >= 2], x = [rank odd].

    So S(gamma) = g^T A^T A g = p E + (x - p) gamma gamma^T on the reduced space.
    """
    if isinstance(rank, bool) or not isinstance(rank, int) or rank not in (0, 1, 2, 3):
        raise UnsupportedRank(f"constraint rank must be an int in 0..3, got {rank!r}")
    return float(rank >= 2), float(rank % 2)


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
        # a list or an array would make the body unhashable, and verify keys its memo by the body
        object.__setattr__(self, "inertia", tuple(float(i) for i in self.inertia))
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be finite and positive, got {self.mass}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        if not math.isfinite(self.so2_angle):
            raise ValueError(f"so2_angle must be finite, got {self.so2_angle}")
        _rank_bits(self.rank)  # raises UnsupportedRank unless an int in 0..3
        try:  # radius**2 raises OverflowError where the product would be inf
            finite = math.isfinite(self.mr2 + max(self.inertia))  # so is every inertia_i + m r^2
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"mass * radius**2 + inertia overflows: mass {self.mass}, radius {self.radius}")

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
        values = (*n, sign * self.mr2, *(self.radius * matrix_A(self)).ravel().tolist())
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
    return state[..., _GAMMA], state[..., _K]


def _pack_reduced(gamma, K) -> np.ndarray:
    """(gamma, K) joined on the last axis, the inverse of ``split_reduced``, for values or partials."""
    return np.concatenate([gamma, K], axis=-1)


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
    NaN passes.  Scalars for one state; arrays for many, naming the first
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
# m11..m33 = r A and the denominator check, which a closure binds to a body's
# values (_compile).
_CONSTANTS = ("n1", "n2", "n3", "smr2", *(f"m{i}{j}" for i in "123" for j in "123"), "check")
# Omega = K/n - sign m r^2 c u, u = gamma/n, c = K . u / den, by Sherman-Morrison;
# den = |gamma|^2 + sign m r^2 gamma . u is phi^2, the square of the conformal
# factor.  Floats passing the test pass check; {floats} is the callables' type test.
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
_PHI = "phi = sqrt(den)\n"
_PHI_ZERO = "phi = 1.0\n"


def _cross(v: str) -> tuple:
    """The components of v x Omega."""
    return f"{v}2 * o3 - {v}3 * o2", f"{v}3 * o1 - {v}1 * o3", f"{v}1 * o2 - {v}2 * o1"


_REDUCED = ("g1", "g2", "g3", "k1", "k2", "k3"), (*_cross("g"), *_cross("k"))
# g' = g x Omega row by row (gamma is the third row), x' = r A v with v = g Omega, K' = K x Omega
_FULL_V = "".join(f"v{i} = {r}1 * o1 + {r}2 * o2 + {r}3 * o3\n" for i, r in zip("123", "abg"))
_FULL = (*(f"{r}{j}" for r in "abg" for j in "123"), None, None, None, "k1", "k2", "k3"), (
    *_cross("a"), *_cross("b"), *_cross("g"), *(f"m{i}1 * v1 + m{i}2 * v2 + m{i}3 * v3" for i in "123"), *_cross("k"))


def _chart(chart: str, zero: bool, floats: str = "") -> tuple[tuple, str, tuple]:
    """(names of the state entries, None where unread; body text; derivative
    expressions) of the field on ``chart``: "reduced" (gamma, K), "reparam"
    (gamma, K, t) with d/dtau = phi d/dt, phi after Omega, or "full" (g, x, K).
    ``floats`` is the type test of Omega's denominator check (_OMEGA)."""
    names, derivatives = _FULL if chart == "full" else _REDUCED
    body = (_OMEGA_ZERO if zero else _OMEGA).format(floats=floats)
    if chart == "full":
        body += _FULL_V
    elif chart == "reparam":
        names, body = (*names, None), body + (_PHI_ZERO if zero else _PHI)
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


def _compile(function: str, name: str, filename: str, namespace: dict) -> Callable:
    """bind(**constants) -> the function ``name`` of the source ``function``,
    with _CONSTANTS as closure cells and a copy of ``namespace`` as its
    globals: one compiled text serves every body."""
    source = _function(f"def bind({', '.join(_CONSTANTS)}):", function, f"return {name}")
    exec(compile(source, filename, "exec"), namespace := dict(namespace))
    return namespace["bind"]


@cache
def _kernel_factory(name: str, zero: bool) -> Callable:
    """bind(**constants) -> omega(gamma, k) -> (Omega, u, den, c) (u, den, c
    None if sign = 0), or reduced(y) or full(y) -> y' (Omega inline, as in
    each stage of the march), for the bodies with sign == 0 or with sign !=
    0.  On numpy columns (_columns): one state's are np.float64 scalars, which
    are floats; a batch equals its rows bit for bit."""
    floats = "isinstance(den, float) and "
    if name == "omega":
        text = (_OMEGA_ZERO if zero else _OMEGA).format(floats=floats)
        gamma, terms = ("", "None, None, None") if zero else ("g1, g2, g3 = gamma", "(u1, u2, u3), den, c")
        blocks = "def omega(gamma, k):", "k1, k2, k3 = k", gamma, text, f"return (o1, o2, o3), {terms}"
    else:
        names, body, derivatives = _chart(name, zero, floats)
        unpack = f"{', '.join(n or '_' for n in names)} = y"
        blocks = f"def {name}(y):", unpack, body, f"return {', '.join(derivatives)}"
    return _compile(_function(*blocks), name, f"<{name} zero={zero}>", {"inf": math.inf})


def _bind(factory: Callable, params: BodyParams, name: str) -> Callable:
    """The compiled ``name`` of ``factory`` (_kernel_factory or the stepper's
    _chart_march) for the body's sign, zero or not, bound to its constants."""
    return factory(name, not params._rank_terms[0])(**params._constants)


class _Kernels:
    """A body's callables (see _kernel_factory), each compiled on first use
    and bound to the body's constants: simulate needs omega alone."""

    def __init__(self, params: BodyParams):
        self._params = params

    omega = cached_property(lambda self: _bind(_kernel_factory, self._params, "omega"))
    reduced = cached_property(lambda self: _bind(_kernel_factory, self._params, "reduced"))
    full = cached_property(lambda self: _bind(_kernel_factory, self._params, "full"))


def K_from_omega(params: BodyParams, gamma, omega) -> np.ndarray:
    """K = n Omega + sign m r^2 (gamma . Omega) gamma = (I + m r^2 S(gamma)) Omega,
    for one state or each row of a stack (..., 3) (bit for bit)."""
    gamma, omega = _omega_args(gamma, omega)
    sign, n = params._rank_terms
    return np.array(n) * omega + (sign * params.mr2 * np.vecdot(gamma, omega))[..., None] * gamma


# The evaluations shared by the suites of one verify run: a dict from
# (kind, params, (shape, bytes) of each stack) to a value, set by
# ``verify._run_suites`` around its suites and reset when they end; None
# outside a run.
_run_memo: ContextVar[dict | None] = ContextVar("_run_memo", default=None)


def _memoized(kind, params: BodyParams, arrays: tuple, compute: Callable):
    """compute(), once per kind and content (shape and bytes) of the stacks
    ``arrays`` (gamma and K, or one stack of states) inside a verify run;
    the value (a tuple, an array or a float) is shared, its arrays
    read-only.  Outside a run, compute() alone.  A first computation that
    raises stores nothing, so the same inputs raise again."""
    memo = _run_memo.get()
    if memo is None:
        return compute()
    key = (kind, params, *((a.shape, a.tobytes()) for a in arrays))
    if key not in memo:
        value = compute()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        memo[key] = value
    return memo[key]


def _columns(a: np.ndarray) -> tuple:
    """The columns a[..., i] a kernel takes: views, or np.float64 scalars for one state."""
    return tuple(a[..., i][()] for i in range(a.shape[-1]))


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
    columns).  Raises DegenerateDenominator if any row is degenerate.
    """
    return _omega_terms(params, gamma, K)[0].copy()


def _omega_terms(params: BodyParams, gamma, K) -> tuple:
    """The omega kernel on the numpy columns of gamma and K: (Omega, u, den,
    c) with Omega and u as arrays (..., 3) and den, c numpy floats for one
    state or arrays (...,) for a stack; u, den, c are None when sign = 0."""
    gamma, K = _omega_args(gamma, K)
    kernel = params._kernels.omega

    def compute():
        # the kernel's denominator check raises on an overflow, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            omega, u, den, c = kernel(_columns(gamma), _columns(K))
        return _assemble(omega), None if u is None else _assemble(u), den, c

    return _memoized("terms", params, (gamma, K), compute)


def _den_gradient(params: BodyParams, gamma, u) -> np.ndarray:
    """d den / d gamma = 2 gamma + 2 sign m r^2 u of den = |gamma|^2 + sign
    m r^2 gamma . u, with u = gamma / n the omega kernel's u."""
    return 2.0 * gamma + 2.0 * (params._rank_terms[0] * params.mr2) * u


def _omega_and_jacobians(params: BodyParams, gamma, K) -> tuple:
    """(Omega, d Omega / d gamma, d Omega / d K) at one state or a stack, from
    one evaluation of the Sherman-Morrison terms."""
    gamma, K = _omega_args(gamma, K)

    def compute():
        sign, n = params._rank_terms
        omega, u, den, c = _omega_terms(params, gamma, K)
        n = np.array(n)
        inv_n = np.diag(1.0 / n)
        if not sign:
            return omega, np.zeros(omega.shape + (3,)), np.zeros(omega.shape + (3,)) + inv_n
        smr2 = sign * params.mr2
        den, c = np.asarray(den)[..., None], np.asarray(c)[..., None]
        dc = (K / n) / den - (c / den) * _den_gradient(params, gamma, u)
        d_gamma = -smr2 * (u[..., :, None] * dc[..., None, :] + c[..., None] * inv_n)
        d_k = inv_n - (smr2 / den)[..., None] * (u[..., :, None] * u[..., None, :])
        return omega, d_gamma, d_k

    return _memoized("jacobians", params, (gamma, K), compute)


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
        return _pack_reduced(0.5 * _mv(_swap(d_gamma), K), omega)

    return ScalarField(value=lambda s: hamiltonian(params, s), gradient=gradient, name="H")


def _field(kernel: Callable, state, dim: int, chart: str) -> np.ndarray:
    """A chart kernel's field on the numpy columns of one state or of a stack;
    an overflow gives inf and nan with no warning, in either."""
    state = _checked(state, dim, chart)
    with np.errstate(over="ignore", invalid="ignore"):
        return _assemble(kernel(_columns(state)))


def reduced_vf(params: BodyParams, state) -> np.ndarray:
    """Equations of motion on the reduced space: (gamma, K)' = (gamma x Omega, K x Omega),
    evaluated by the body's reduced kernel."""
    return _field(params._kernels.reduced, state, REDUCED_DIM, "reduced")


def conformal_factor(params: BodyParams) -> ScalarField:
    """The positive function that rescales the Hamiltonizable bracket into a
    Poisson one: phi = sqrt(den) with den the Sherman-Morrison denominator of
    omega_from_K, sqrt(|gamma|^2 + m r^2 gamma . I^-1 gamma) for rank 1 and
    sqrt(|gamma|^2 - m r^2 gamma . (I + m r^2)^-1 gamma) for rank 2, with
    gradient d den / d gamma / (2 phi) in gamma; the constant 1 for ranks
    0 and 3.  Raises as omega_from_K where den degenerates or overflows.
    """
    sign = params._rank_terms[0]
    if not sign:
        return ScalarField(value=lambda s: 1.0, gradient=lambda s: np.zeros(s.shape), name="phi=1")

    def value(s):
        return np.sqrt(_omega_terms(params, *split_reduced(s))[2])

    def gradient(s):
        gamma, K = split_reduced(s)
        _, u, den, _ = _omega_terms(params, gamma, K)
        d_gamma = 0.5 * _den_gradient(params, gamma, u) / np.sqrt(np.asarray(den))[..., None]
        return _pack_reduced(d_gamma, np.zeros_like(K))

    return ScalarField(value=value, gradient=gradient, name=f"phi_rank{params.rank}")


def invariant_density(params: BodyParams) -> ScalarField:
    """Density of the smooth invariant measure on (gamma, K): 1/conformal_factor, at every rank."""
    phi = conformal_factor(params)

    def value(s):
        return 1.0 / phi(s)

    def gradient(s):
        p = np.asarray(phi(s))[..., None]
        return -phi.grad(s) / (p * p)

    return ScalarField(value=value, gradient=gradient, name=f"mu_rank{params.rank}")


def casimir_kgamma() -> ScalarField:
    """C1 = K . gamma on the reduced space."""

    def gradient(s):
        gamma, K = split_reduced(s)
        return _pack_reduced(K, gamma)

    return ScalarField(value=lambda s: np.vecdot(s[..., _GAMMA], s[..., _K]), gradient=gradient, name="C1")


def _gamma_norm_gradient(gamma) -> np.ndarray:
    """(2 gamma, 0), the gradient of |gamma|^2; linear in gamma, so at d gamma it is the Hessian."""
    return _pack_reduced(2.0 * gamma, np.zeros_like(gamma))


def casimir_gamma_norm() -> ScalarField:
    """C2 = |gamma|^2 on the reduced space."""
    return ScalarField(value=lambda s: np.vecdot(s[..., _GAMMA], s[..., _GAMMA]),
                       gradient=lambda s: _gamma_norm_gradient(split_reduced(s)[0]), name="C2")


# ---------------------------------------------------------------------------
# full (unreduced) phase space


def pack_full(g, x, K) -> np.ndarray:
    """The full state (g row-major, x, K), or the stack of them; g is (..., 3, 3)
    or flat (..., 9), and x and K are (..., 3) with the leading axes of g."""
    g, x, K = (np.asarray(a, dtype=float) for a in (g, x, K))
    flat = g.reshape(g.shape[:-2] + (9,)) if g.shape[-2:] == (3, 3) else g
    if flat.shape[-1:] != (9,) or x.shape != flat.shape[:-1] + (3,) or K.shape != x.shape:
        raise ValueError(f"expected g (..., 3, 3) or (..., 9), x and K (..., 3) with the leading axes of g, "
                         f"got shapes {g.shape}, {x.shape} and {K.shape}")
    return np.concatenate([flat, x, K], axis=-1)


def split_full(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    state = _checked(state, FULL_DIM, "full")
    return state[..., _G].reshape(state.shape[:-1] + (3, 3)), state[..., _X], state[..., _FULL_K]


def project_rho(state) -> np.ndarray:
    """Reduction map rho(g, x, K) = (gamma, K) with gamma the third row of g."""
    return _checked(state, FULL_DIM, "full")[..., RHO_INDEX]


def lift_reduced_state(state) -> np.ndarray:
    """Deterministic section of rho: a rotation with third row gamma, x = 0."""
    gamma, K = split_reduced(_one(state, REDUCED_DIM, "reduced state"))
    norm = float(np.linalg.norm(gamma))
    if not abs(norm - 1.0) <= 1e-9:  # a nan norm fails too
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


def X_nh_full(params: BodyParams, state) -> np.ndarray:
    """Constrained equations of motion on the full space, in closed form:
    g' = g hat(Omega) (row i of g' is g_i x Omega), x' = r A g Omega and
    K' = K x Omega, with Omega = omega_from_K(gamma = g[2], K), evaluated by
    the body's full kernel.

    This is the bracket flow -ham_vf(nh_bracket_full(params, "plain"),
    full_hamiltonian_field(params)), which the tests keep as its oracle.
    """
    return _field(params._kernels.full, state, FULL_DIM, "full")
