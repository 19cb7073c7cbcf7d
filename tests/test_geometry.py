"""Vector algebra, hat map, finite-difference exterior calculus, samplers."""

import ast
import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaplygin
from chaplygin import (
    BivectorPatch,
    FormPatch,
    ScalarField,
    SymmetricInput,
    annihilator_one_form,
    fd_exterior_derivative,
    fd_gradient,
    fd_partials,
    hat,
    pack_full,
    random_rotation,
    sample_full_state,
    sample_reduced_state,
    unhat,
    wedge_1_2,
)
from chaplygin.brackets import gauge_matrix
from chaplygin.errors import AllocationFailed
from chaplygin.geometry import FD_CBRT_EPS, _asymmetry, fd_step

from conftest import standard_body


# ---------------------------------------------------------------- hat / unhat


def test_hat_zero():
    assert np.array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_explicit_matrix():
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(hat([1.0, 2.0, 3.0]), expected)


def test_hat_is_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        assert np.max(np.abs(hat(v) @ w - np.cross(v, w))) <= 1e-14


def test_hat_linear_and_antisymmetric():
    rng = np.random.default_rng(1)
    v, w = rng.standard_normal(3), rng.standard_normal(3)
    assert np.allclose(hat(2.0 * v - 3.0 * w), 2.0 * hat(v) - 3.0 * hat(w), atol=1e-15)
    assert np.array_equal(hat(v).T, -hat(v))


def test_unhat_round_trip_exact():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(unhat(hat(v)), v)
    assert np.array_equal(unhat(np.zeros((3, 3))), np.zeros(3))


def test_hat_of_unhat_on_antisymmetric():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3))
    a = 0.5 * (m - m.T)
    assert np.max(np.abs(hat(unhat(a)) - a)) <= 1e-15


def test_unhat_rejects_symmetric_input():
    with pytest.raises(SymmetricInput):
        unhat(np.eye(3))


@pytest.mark.parametrize("shape", [(4,), (2,), (5, 4), ()])
def test_hat_rejects_a_last_axis_other_than_3(shape):
    """hat(np.arange(4.0)) was a (4, 3) array."""
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        hat(np.ones(shape))


@pytest.mark.parametrize("shape", [(2, 2), (3,), (4, 3, 2), (3, 4)])
def test_unhat_rejects_a_matrix_other_than_3x3(shape):
    """unhat(np.zeros((2, 2))) raised a bare IndexError."""
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        unhat(np.zeros(shape))


@pytest.mark.parametrize("alpha_shape, omega_shape", [((3,), (4, 4)), ((2, 3), (3, 3, 3)), ((4,), (4, 3)), ((), ())])
def test_wedge_1_2_names_both_shapes(alpha_shape, omega_shape):
    """A pair that is not (..., d) and (..., d, d) raised numpy's broadcast error."""
    with pytest.raises(ValueError, match=re.escape(f"got shapes {alpha_shape} and {omega_shape}")):
        wedge_1_2(np.ones(alpha_shape), np.zeros(omega_shape))


# ----------------------------------------------------------- finite differences


def test_fd_step_scale():
    assert fd_step(0.0) == pytest.approx(FD_CBRT_EPS)
    assert fd_step(100.0) == pytest.approx(100.0 * FD_CBRT_EPS)


def test_fd_gradient_matches_analytic():
    def f(s):
        return float(s[0] ** 2 + np.sin(s[1]) + s[0] * s[2])

    s = np.array([0.3, -1.2, 0.7])
    exact = np.array([2 * s[0] + s[2], np.cos(s[1]), s[0]])
    assert np.max(np.abs(fd_gradient(f, s) - exact)) <= 1e-8


def test_fd_partials_matches_analytic():
    def f(s):
        return np.array([s[0] * s[1], s[1] ** 2])

    s = np.array([1.5, -0.4])
    exact = np.array([[s[1], 0.0], [s[0], 2 * s[1]]])  # [l, i] = d_l f_i
    assert np.max(np.abs(fd_partials(f, s) - exact)) <= 1e-8


# ---------------------------------------------------------- one derivative path

_FD_HELPERS = {"fd_step", "fd_partials", "fd_gradient"}


def test_only_the_fd_helpers_use_finite_differences():
    """Every patch in the package carries closed-form derivatives: no module
    refers to the finite-difference helpers except those helpers themselves."""
    offenders = []
    for path in sorted(Path(chaplygin.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.name == "geometry.py" and isinstance(top, ast.FunctionDef) and top.name in _FD_HELPERS:
                continue
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name in _FD_HELPERS:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


@functools.cache
def _package_trees() -> tuple:
    """(module, parsed text) of each module of the package."""
    paths = sorted(Path(chaplygin.__file__).parent.glob("*.py"))
    return tuple((path.stem, ast.parse(path.read_text())) for path in paths)


def _references(name: str) -> list:
    """(module, enclosing function path, node) of every Name or Attribute
    ``name`` in the package; the path is "" at module level."""
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            ident = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and ident == name:
                found.append((module, where, child))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, f"{where}.{child.name}" if where else child.name)
            else:
                visit(child, module, where)

    for module, tree in _package_trees():
        visit(tree, module, "")
    return found


# Each guarded name of the package and every (module, enclosing function path)
# allowed to refer to it (``_references``); an empty set for a name that is gone.
_REFERRERS = {
    # only brackets._conditioning runs an SVD, which gauge_matrix calls only on pairs that are not closed
    "svd": {("brackets", "_conditioning")},
    # one store serves a verify run: only the Omega helpers, the reduced bracket jet, the full
    # bracket matrix and verify's Jacobi residual consult it, and only verify._run_suites enters one
    "_memoized": {
        ("body", "_omega_terms"),
        ("body", "_omega_and_jacobians"),
        ("rolling", "reduced_bracket.jet"),
        ("rolling", "nh_bracket_full.structure"),
        ("verify", "_jacobi_residual"),
    },
    "_run_memo": {("body", ""), ("body", "_memoized"), ("verify", "_run_suites")},
    # one Omega jet per chart: the reduced jet, the twist 2-form and (through _full_omega_jet) the
    # full jet and the gauge form take Omega's partials from it; the hand-built bracket base is gone
    "_omega_jet": {("rolling", "_full_omega_jet"), ("rolling", "_v_jet"), ("rolling", "twist_two_form.partials")},
    "_full_omega_jet": {("rolling", "nh_bracket_full.jet"), ("rolling", "gauge_form_on_M.partials")},
    "_BRACKET_BASE": set(),
    "_omega_dot_gamma_grads": set(),
    # d is assembled in one place, with no hat basis of the twist forms' own
    "_HAT_BASIS": set(),
    "_exterior_derivative": {("geometry", "fd_exterior_derivative"), ("rolling", "twist_three_form.partials")},
    # the gamma renormalization is applied where the run asks for it
    "_unit_gamma": {("dynamics", "_march")},
    # the Jacobians are the inner compute of _omega_and_jacobians, and d den / d gamma is written once
    "_jacobians": set(),
    "_den_gradient": {
        ("body", "_omega_and_jacobians.compute"),
        ("body", "conformal_factor.gradient"),
        ("rolling", "_omega_dot_gamma_hessian.gradients"),
    },
    # forms and bivectors check their outputs in _Patch._checked alone, which with unhat and
    # gauge_matrix reads the one antisymmetry test
    "SymmetricInput": {
        ("geometry", "_Patch._checked"),
        ("geometry", "unhat"),
        ("brackets", "gauge_matrix"),
        ("errors", ""),
    },
    "_asymmetry": {("geometry", "_Patch._checked"), ("geometry", "unhat"), ("brackets", "gauge_matrix")},
    # the chart table: blocks are joined in the two packers alone (and the CSV tables), and the
    # gradient of |gamma|^2 is written once, for C2 and the Hessian of Omega . gamma
    "concatenate": {("body", "_pack_reduced"), ("body", "pack_full"), ("cli", "_g17_tables")},
    "_gamma_norm_gradient": {
        ("body", "casimir_gamma_norm"),
        ("rolling", "_omega_dot_gamma_hessian.gradients"),
    },
    # a Generator passes through np.random.default_rng unaltered, so no wrapper stands before it
    "_as_rng": set(),
    # a body's compiled code, kernel or march, is bound in one place for the sign it has
    "_body_march": set(),
    "_bind": {("body", "_Kernels"), ("dynamics", "integrate"), ("dynamics", "reparametrized_integrate")},
}


@pytest.mark.parametrize("name", sorted(_REFERRERS))
def test_a_guarded_name_has_only_its_allowed_referrers(name):
    """A second copy of a rule, or a reader that reaches past it, fails its row of _REFERRERS."""
    assert {(m, w) for m, w, _ in _references(name)} == _REFERRERS[name]


def test_svd_and_whole_jacobi_tensors_stay_out_of_the_verify_path():
    """Verify reads the Jacobi defects at the sorted triples and never builds
    the whole tensor (the SVD is a row of _REFERRERS)."""
    assert [w for m, w, _ in _references("jacobi_tensor") if m == "verify"] == []


def test_run_sharing_stays_inside_verify_runs():
    """Only verify._run_suites enters the store of a run (its readers are rows
    of _REFERRERS), so no cache outlives a run or reaches simulate and the
    CLI.  verify defines no class and keeps no store of its own: its
    module-level names are its registry and constants."""
    entered = {(m, w) for m, w, node in _references("set") if getattr(node.value, "id", None) == "_run_memo"}
    assert entered == {("verify", "_run_suites")}
    tree = ast.parse((Path(chaplygin.__file__).parent / "verify.py").read_text())
    assert not any(isinstance(node, ast.ClassDef) for node in ast.walk(tree))
    names = {getattr(n, k, None) for n in ast.walk(tree) for k in ("id", "attr", "name")}
    assert not names & {"cache", "lru_cache", "cached_property", "ContextVar", "WeakKeyDictionary"}
    assigned = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])}
    assert assigned == {"__all__", "SUITE_NAMES", "_SUITE_FNS"}


def test_one_omega_jet_per_chart():
    """Inside rolling only _omega_jet reads Omega's Jacobians (its readers are
    rows of _REFERRERS)."""
    assert {w for m, w, _ in _references("_omega_and_jacobians") if m == "rolling"} == {"_omega_jet"}


def test_d_is_assembled_in_one_place():
    """No function in rolling moves an axis by hand: the alternation of d is
    written once (a row of _REFERRERS)."""
    assert [w for m, w, _ in _references("moveaxis") if m == "rolling"] == []


def test_each_rule_reads_its_one_definition():
    """mu is 1/phi at every rank, X_C goes through _flow, the rank rule is
    applied where it is defined (the gamma renormalization is a row of
    _REFERRERS), the full gauge form restates no hat or transpose outside its
    block, and the suite names are the suite registry's keys."""
    def where(name: str) -> set:
        return {(m, w) for m, w, _ in _references(name)}

    assert [w for m, w in where("_rank_terms") if w.startswith("invariant_density")] == []
    assert ("brackets", "casimir_defect") in where("_flow") - where("_swap")
    assert [w for m, w in where("RHO_INDEX") if m == "dynamics"] == []
    assert ("scenario", "scenario_from_dict") in where("_rank_bits")
    for name in ("hat", "_swap"):
        assert {w for m, w in where(name) if w.startswith("gauge_form_on_M")} == {"gauge_form_on_M.block"}
    tree = ast.parse((Path(chaplygin.__file__).parent / "verify.py").read_text())
    built = [ast.unparse(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SUITE_NAMES"]
    assert built == ["tuple(_SUITE_FNS)"]


def _products(a: str, b: str) -> set:
    """(module, top-level function) of each product of the texts a and b, in either order."""
    return {(m, top.name) for m, tree in _package_trees() for top in tree.body
            if isinstance(top, ast.FunctionDef) for node in ast.walk(top)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and {ast.unparse(node.left), ast.unparse(node.right)} == {a, b}}


def test_one_evaluation_path_and_one_den_gradient():
    """The Omega terms, the chart fields and the run store take one path for
    one state and a stack: none tests ndim or converts to Python floats (the
    Jacobians and d den / d gamma are rows of _REFERRERS).  2 gamma is
    written only in d den / d gamma and in the gradient of |gamma|^2."""
    for name in ("tolist", "ndim"):
        assert not {w.split(".")[0] for m, w, _ in _references(name) if m == "body"} & {
            "_omega_terms", "_field", "_memoized"}
    assert _products("2.0", "gamma") == {("body", "_den_gradient"), ("body", "_gamma_norm_gradient")}


def test_the_twist_rules_are_written_once():
    """The product rule d(f gamma) = df gamma + f d gamma is written in the Omega
    jet alone, and the Hessian of f = Omega . gamma builds no matrix by hand:
    its constant second derivatives are its factors' gradients at the partials."""
    assert _products("f[..., None, None]", "_D_GAMMA") == {("rolling", "_omega_jet")}
    for name in ("diag", "zeros"):
        assert [w for m, w, _ in _references(name) if w.startswith("_omega_dot_gamma_hessian")] == []


def test_one_function_checks_every_patch_output():
    """Outside body, only the patch classes call _checked (SymmetricInput is a
    row of _REFERRERS), so a second copy of the patch check fails here."""
    assert {(m, w) for m, w, _ in _references("_checked") if m != "body"} == {
        ("geometry", "FormPatch.__call__"),
        ("geometry", "FormPatch.partial_tensor"),
        ("brackets", "BivectorPatch.matrix"),
        ("brackets", "BivectorPatch.matrix_and_partials"),
    }


def test_the_antisymmetry_residue_is_written_once():
    """The residue rule, max |t + t swapped| above a bound, is computed in
    geometry._asymmetry alone (its three readers are a row of _REFERRERS)."""
    sites = set()
    for path in sorted(Path(chaplygin.__file__).parent.glob("*.py")):
        for top in ast.walk(ast.parse(path.read_text())):
            if not isinstance(top, ast.FunctionDef):
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "abs"
                        and isinstance(arg := node.args[0], ast.BinOp) and isinstance(arg.op, ast.Add)
                        and isinstance(arg.right, ast.Call)
                        and getattr(arg.right.func, "attr", getattr(arg.right.func, "id", None)) in ("swapaxes", "_swap")):
                    sites.add((path.stem, top.name))
    assert sites == {("geometry", "_asymmetry")}


# The chart table in body: the module-level names that may hold the layout's literals.
_CHART_TABLE = {"_GAMMA", "_K", "_G", "_X", "_FULL_K", "REDUCED_NAMES", "FULL_NAMES", "REDUCED_DIM", "FULL_DIM",
                "RHO_INDEX"}


def _chart_literals(module: str, tree: ast.Module) -> list:
    """Each slice with a constant bound of 3, 6, 9, 12 or 15 and each int 6 or 15
    in a module, but in the assignments of body's chart table."""
    found = []
    for top in tree.body:
        if module == "body" and isinstance(top, ast.Assign) and {
                n.id for t in top.targets for n in ast.walk(t) if isinstance(n, ast.Name)} <= _CHART_TABLE:
            continue
        for node in ast.walk(top):
            bounds = (node.lower, node.upper, node.step) if isinstance(node, ast.Slice) else ()
            if any(isinstance(b, ast.Constant) and b.value in (3, 6, 9, 12, 15) for b in bounds) or (
                    isinstance(node, ast.Constant) and type(node.value) is int and node.value in (6, 15)):
                found.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    return found


def test_the_chart_layout_is_declared_once():
    """The layout of (gamma, K) and (g, x, K) is body's chart table: no module
    that slices, packs or samples a state restates a block bound or a chart
    dimension (the joins of blocks are a row of _REFERRERS), and the reduced
    sampler lives beside the full one in rolling."""
    trees = dict(_package_trees())
    chart_modules = ("body", "rolling", "dynamics", "geometry", "scenario", "verify")
    assert [hit for m in chart_modules for hit in _chart_literals(m, trees[m])] == []
    assert [m for m, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "sample_reduced_state"] == ["rolling"]


# Entries in units of the bound: below, at and above it, far above, and non-finite.
_UNITS = (0.0, 0.25, 0.5, 1.0, 2.0, 1e8, -3.0, math.inf, -math.inf, math.nan)


def _row_rule(t, k: int, ax: int, bound: float):
    """The residue rule as each precondition wrote it before the stack-wide
    test: each row's max |t + t swapped| in slots (ax, ax + 1) of its last k
    axes, and the first row above the bound, as (residue, where) or None."""
    slots = tuple(range(-k, 0))
    residue = np.max(np.abs(t + np.swapaxes(t, slots[ax], slots[ax + 1])), axis=slots)
    bad = residue > bound
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return residue.flat[i], f" in row {i}" if bad.ndim else ""


@st.composite
def _tensors(draw, ks=(2, 3), dims=(2, 3, 4), units=_UNITS):
    """(t, k): a stack (N, d, ..., d) of k-slot tensors, or one tensor, zero but
    for a few entries drawn from ``units``."""
    k, d = draw(st.sampled_from(ks)), draw(st.sampled_from(dims))
    stack = (draw(st.integers(1, 4)),) if draw(st.booleans()) else ()
    shape = stack + (d,) * k
    t = np.zeros(shape)
    for _ in range(draw(st.integers(0, 4))):
        t[tuple(draw(st.integers(0, n - 1)) for n in shape)] = draw(st.sampled_from(units))
    return t, k


def _nan_row_over_the_bound(k: int) -> tuple:
    """A stack of two 3 x ... x 3 tensors whose row 0 holds a nan and an entry far
    above the bound; its per-row residue is nan, which passes."""
    t = np.zeros((2,) + (3,) * k)
    t[(0,) + (0,) * (k - 1) + (1,)] = math.nan
    t[(0,) + (1,) * (k - 1) + (2,)] = 1e8
    return t, k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tensors(), st.sampled_from([1e-12, 1e-10, 1e-8]))
@example(_nan_row_over_the_bound(2), 1e-12)
@example(_nan_row_over_the_bound(3), 1e-12)
def test_the_stack_wide_antisymmetry_test_keeps_every_verdict(case, bound):
    t, k = case
    t = t * bound
    with np.errstate(invalid="ignore"):  # inf + -inf
        for ax in range(k - 1):
            got, want = _asymmetry(t, k, ax, bound), _row_rule(t, k, ax, bound)
            assert got == want and (got is None or type(got[0]) is type(want[0]))


def _raised(call) -> tuple:
    """(type, message) of what call raises, or None if it returns."""
    try:
        with np.errstate(invalid="ignore"):
            call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tensors())
@example(_nan_row_over_the_bound(2))
@example(_nan_row_over_the_bound(3))
def test_patch_outputs_keep_their_antisymmetry_errors(case):
    t, k = case
    t = t * 1e-12
    d = t.shape[-1]
    form = FormPatch(degree=k, dim=d, entries=lambda s: t, partials=lambda s: None, name="w")
    want = next(((ax, r) for ax in range(k - 1) if (r := _row_rule(t, k, ax, 1e-12))), None)
    if want:
        ax, (residue, where) = want
        want = SymmetricInput, f"form 'w' is not antisymmetric in axes ({ax},{ax + 1}): residue {residue:.3e}{where}"
    assert _raised(lambda: form(np.zeros(t.shape[:-k] + (d,)))) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tensors(ks=(2,), dims=(3,)))
@example(_nan_row_over_the_bound(2))
def test_unhat_keeps_its_antisymmetry_error(case):
    m = case[0] * 1e-8
    want = _row_rule(m, 2, 0, 1e-8)
    if want:
        want = SymmetricInput, f"symmetric part {want[0]:.3e} exceeds tolerance 1.0e-08{want[1]}"
    assert _raised(lambda: unhat(m)) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tensors(ks=(2,), units=_UNITS[:7]))
def test_gauge_matrix_keeps_its_antisymmetry_error(case):
    """With B = 0 every pair is closed and the gauged matrix is p itself, so its
    residue test sees p; a non-finite p stops at SingularGauge first."""
    p = case[0] * 1e-10
    want = _row_rule(p, 2, 0, 1e-10)
    if want:
        want = SymmetricInput, f"gauged matrix has symmetric residue {want[0]:.3e}{want[1]}"
    assert _raised(lambda: gauge_matrix(p, np.zeros_like(p))) == want


@pytest.mark.parametrize(
    "make",
    [
        lambda dim: FormPatch(degree=1, dim=dim, entries=lambda s: np.zeros(0), partials=lambda s: np.zeros((0, 0))),
        lambda dim: BivectorPatch(dim=dim, structure=lambda s: np.zeros((0, 0)), jet=lambda s: None),
    ],
    ids=["form", "bivector"],
)
def test_patches_need_a_positive_dim(make):
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be positive"):
            make(dim)


def test_patch_outputs_fail_with_one_message_per_kind():
    two = np.zeros((2, 2))
    symmetric = np.array([[0.0, 1.0], [1.0, 0.0]])
    form = FormPatch(degree=2, dim=2, entries=lambda s: np.zeros((len(s), 2, 2)), partials=lambda s: two, name="b")
    with pytest.raises(ValueError, match=r"^form 'b' has shape \(3, 2, 2\), expected \(2, 2\)$"):
        form(np.zeros(3))
    with pytest.raises(ValueError, match=r"^partials of 'b' has shape \(2, 2\), expected \(2, 2, 2\)$"):
        form.partial_tensor(np.zeros(2))
    pi = BivectorPatch(dim=2, structure=lambda s: np.zeros(3), jet=lambda s: (symmetric, two), name="p")
    with pytest.raises(ValueError, match=r"^bivector 'p' has shape \(3,\), expected \(2, 2\)$"):
        pi.matrix(np.zeros(2))
    with pytest.raises(SymmetricInput, match=r"^bivector 'p' is not antisymmetric in axes \(0,1\): residue 2.000e\+00$"):
        pi.matrix_and_partials(np.zeros(2))
    pi = BivectorPatch(dim=2, structure=lambda s: np.zeros((2, 2)), jet=lambda s: (np.zeros((2, 2)), two), name="p")
    with pytest.raises(ValueError, match=r"^partials of 'p' has shape \(2, 2\), expected \(2, 2, 2\)$"):
        pi.matrix_and_partials(np.zeros(2))


def test_patches_require_their_derivative_hook():
    with pytest.raises(TypeError, match="partials"):
        FormPatch(degree=1, dim=2, entries=lambda s: np.zeros(2))
    with pytest.raises(TypeError, match="jet"):
        BivectorPatch(dim=2, structure=lambda s: np.zeros((2, 2)))
    with pytest.raises(TypeError, match="gradient"):
        ScalarField(value=lambda s: 0.0)


# -------------------------------------------------------------------- FormPatch


def test_form_patch_rejects_symmetric_output():
    bad = FormPatch(
        degree=2, dim=2, entries=lambda s: np.array([[0.0, 1.0], [0.5, 0.0]]), partials=lambda s: np.zeros((2, 2, 2))
    )
    with pytest.raises(SymmetricInput):
        bad(np.zeros(2))


def test_form_patch_rejects_bad_degree():
    with pytest.raises(ValueError):
        FormPatch(degree=4, dim=3, entries=lambda s: np.zeros((3, 3, 3, 3)), partials=lambda s: np.zeros((3,) * 5))


def test_form_patch_evaluate_contracts():
    entries = np.array([[0.0, 2.0], [-2.0, 0.0]])
    form = FormPatch(degree=2, dim=2, entries=lambda s: entries, partials=lambda s: np.zeros((2, 2, 2)))
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert form.evaluate(np.zeros(2), u, v) == pytest.approx(2.0)
    assert form.evaluate(np.zeros(2), v, u) == pytest.approx(-2.0)


def test_form_patch_evaluate_rejects_too_few_vectors():
    form = FormPatch(degree=2, dim=2, entries=lambda s: np.zeros((2, 2)), partials=lambda s: np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="need 2 vectors, got 1"):
        form.evaluate(np.zeros(2), np.array([1.0, 0.0]))


def _cubic_one_form(dim: int, seed: int, with_partials: bool) -> FormPatch:
    """Random one-form with cubic polynomial coefficients; its partials are
    analytic, or finite differences of its entries."""
    rng = np.random.default_rng(seed)
    c0 = rng.standard_normal(dim)
    c1 = rng.standard_normal((dim, dim))
    c3 = 0.1 * rng.standard_normal((dim, dim, dim, dim))

    def entries(s):
        return c0 + c1 @ s + np.einsum("iabc,a,b,c->i", c3, s, s, s)

    def partials(s):
        lin = c1.T.copy()  # [l, i] = d_l alpha_i
        cub = (
            np.einsum("ilbc,b,c->li", c3, s, s)
            + np.einsum("ialc,a,c->li", c3, s, s)
            + np.einsum("iabl,a,b->li", c3, s, s)
        )
        return lin + cub

    if not with_partials:
        return FormPatch(degree=1, dim=dim, entries=entries, partials=lambda s: fd_partials(entries, s))
    return FormPatch(degree=1, dim=dim, entries=entries, partials=partials)


def test_exterior_derivative_of_constant_two_form_vanishes():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4))
    entries = m - m.T
    form = FormPatch(degree=2, dim=4, entries=lambda s: entries, partials=lambda s: fd_partials(form, s))
    d = fd_exterior_derivative(form, rng.standard_normal(4))
    assert np.max(np.abs(d)) <= 1e-10


def test_exterior_derivative_output_antisymmetric():
    form = _cubic_one_form(5, seed=4, with_partials=False)
    d = fd_exterior_derivative(form, np.random.default_rng(5).standard_normal(5))
    assert np.max(np.abs(d + d.T)) == 0.0  # assembled antisymmetric by construction


def test_exterior_derivative_fd_matches_analytic_partials():
    # The momentum-sphere annihilator one-form carries analytic partials;
    # replace them by finite differences and check the derivative agrees.
    body = standard_body(3)
    chi = annihilator_one_form(body, "plain")
    chi_fd = FormPatch(degree=1, dim=6, entries=chi.entries, partials=lambda s: fd_partials(chi.entries, s))
    state = sample_reduced_state(seed=7)
    d_exact = fd_exterior_derivative(chi, state)
    d_fd = fd_exterior_derivative(chi_fd, state)
    assert np.max(np.abs(d_exact - d_fd)) <= 1e-7


def _d_patch(form):
    """d(form) as a 2-form patch whose partials are finite differences."""
    def entries(s):
        return fd_exterior_derivative(form, s)

    return FormPatch(degree=2, dim=form.dim, entries=entries, partials=lambda s: fd_partials(entries, s))


def test_d_squared_zero_fd():
    form = _cubic_one_form(4, seed=8, with_partials=False)
    state = np.random.default_rng(9).standard_normal(4)
    dd = fd_exterior_derivative(_d_patch(form), state)
    assert np.max(np.abs(dd)) <= 1e-5


def test_d_squared_zero_analytic_partials():
    form = _cubic_one_form(4, seed=10, with_partials=True)
    state = np.random.default_rng(11).standard_normal(4)
    dd = fd_exterior_derivative(_d_patch(form), state)
    assert np.max(np.abs(dd)) <= 1e-10


def test_wedge_one_two_identity():
    rng = np.random.default_rng(12)
    n = 5
    alpha = rng.standard_normal(n)
    m = rng.standard_normal((n, n))
    omega = m - m.T
    w = wedge_1_2(alpha, omega)
    # fully antisymmetric
    assert np.max(np.abs(w + np.swapaxes(w, 0, 1))) <= 1e-15
    assert np.max(np.abs(w + np.swapaxes(w, 1, 2))) <= 1e-15
    u, v, z = rng.standard_normal((3, n))
    expected = (
        (alpha @ u) * (v @ omega @ z)
        - (alpha @ v) * (u @ omega @ z)
        + (alpha @ z) * (u @ omega @ v)
    )
    got = np.einsum("abc,a,b,c->", w, u, v, z)
    assert got == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------- samplers


def test_sample_reduced_state_deterministic():
    assert np.array_equal(sample_reduced_state(seed=42), sample_reduced_state(seed=42))


def test_sample_reduced_state_unit_gamma():
    for seed in range(50):
        s = sample_reduced_state(seed=seed)
        assert abs(np.linalg.norm(s[:3]) - 1.0) <= 1e-12
        assert np.all(np.abs(s[3:]) <= 1.0)


def test_sample_reduced_state_sphere_uniformity():
    rng = np.random.default_rng(0)
    total = np.zeros(3)
    n = 10_000
    for _ in range(n):
        total += sample_reduced_state(seed=rng)[:3]
    assert np.max(np.abs(total / n)) <= 0.05


def _one_by_one(kind, rng):
    """One state per call, as the samplers drew before they took a count."""
    if kind == "full":
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0.0:
            q[:, 2] = -q[:, 2]
        x = rng.uniform(-1.0, 1.0, size=3)
        return pack_full(q, x, rng.uniform(-1.0, 1.0, size=3))
    while True:
        g = rng.standard_normal(3)
        norm = np.linalg.norm(g)
        if norm > 1e-8:
            break
    return np.concatenate([g / norm, rng.uniform(-1.0, 1.0, size=3)])


@pytest.mark.parametrize("kind", ["reduced", "full"])
def test_stacked_draw_equals_single_draws(kind):
    """A count n gives, bit for bit, the n states that n single draws on one
    generator give, and the generator ends in the same place."""
    sample = sample_full_state if kind == "full" else sample_reduced_state
    for seed in range(6):
        for n in range(1, 13):
            rng, oracle, single = (np.random.default_rng([seed, n]) for _ in range(3))
            stacked = sample(rng, n)
            expected = np.array([_one_by_one(kind, oracle) for _ in range(n)])
            assert stacked.shape == expected.shape and stacked.tobytes() == expected.tobytes()
            assert np.array([sample(single) for _ in range(n)]).tobytes() == expected.tobytes()
            assert rng.random() == oracle.random() == single.random()


@pytest.mark.parametrize("sample", [sample_reduced_state, sample_full_state])
@pytest.mark.parametrize("n", [-2, 2.5, True, "3"])
def test_samplers_reject_a_count_that_is_not_a_non_negative_int(sample, n):
    """sample_reduced_state(1, -2) raised numpy's "negative dimensions"."""
    with pytest.raises(ValueError, match=re.escape(f"n must be a non-negative int or None, got {n!r}")):
        sample(1, n)
    assert sample(1, 0).shape[0] == 0


@pytest.mark.parametrize("sample, dim", [(sample_reduced_state, 6), (sample_full_state, 15)])
def test_a_draw_that_cannot_be_allocated_names_its_shape(monkeypatch, sample, dim):
    """A MemoryError of the allocation, and a count of more bytes than numpy
    can address (numpy's ValueError), are AllocationFailed; nothing large is
    allocated: np.empty refuses every request above a million entries."""
    real = np.empty

    def refusing(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e6:
            raise MemoryError(f"refused {shape}")
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    for n in (10**9, 10**20):
        with pytest.raises(AllocationFailed, match=re.escape(f"shape ({n}, {dim})")) as info:
            sample(1, n)
        assert info.value.shape == (n, dim) and isinstance(info.value, MemoryError)
    assert sample(1, 3).shape == (3, dim)


def test_random_rotation_properties():
    for seed in range(20):
        g = random_rotation(seed=seed)
        assert np.max(np.abs(g.T @ g - np.eye(3))) <= 1e-12
        assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(random_rotation(seed=3), random_rotation(seed=3))
