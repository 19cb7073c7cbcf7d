"""Every verify check can fail: one table of mutations, each a monkeypatch
of one formula, with the (check id, rank) pairs it must make fail on the
standard body.  A coverage test names every (check id, rank) pair of the
benchmark's oracle that no mutation reaches."""

import numpy as np
import pytest

from chaplygin import FormPatch, ScalarField, conformal_factor, hamiltonizable_variant, run_all_suites, scale_bivector
from chaplygin import brackets, dynamics, rolling, verify

from conftest import standard_body

RUN = {"trials": 6, "seed": 0}
ALL = (0, 1, 2, 3)


def _constant(c: float) -> ScalarField:
    return ScalarField(value=lambda s: c, gradient=lambda s: np.zeros(s.shape))


def _tilt(weight: float) -> ScalarField:
    """1 + weight gamma_1, positive on the sampled states (|gamma_1| <= 1) for weight < 1."""
    def gradient(s):
        out = np.zeros(s.shape)
        out[..., 0] = weight
        return out

    return ScalarField(value=lambda s: 1.0 + weight * s[..., 0], gradient=gradient)


def _times(f: ScalarField, g: ScalarField) -> ScalarField:
    """f g, with the product rule."""
    def gradient(s):
        return f.grad(s) * np.asarray(g(s))[..., None] + np.asarray(f(s))[..., None] * g.grad(s)

    return ScalarField(value=lambda s: f(s) * g(s), gradient=gradient)


def _scaled_form(form: FormPatch, factor: ScalarField) -> FormPatch:
    """factor * form, with product-rule partials."""
    k = form.degree

    def entries(s):
        f = np.asarray(factor(s))
        return f.reshape(f.shape + (1,) * k) * form(s)

    def partials(s):
        f, df = np.asarray(factor(s)), factor.grad(s)
        return df.reshape(df.shape + (1,) * k) * np.expand_dims(form(s), -k - 1) + f.reshape(
            f.shape + (1,) * (k + 1)) * form.partial_tensor(s)

    return FormPatch(degree=k, dim=form.dim, entries=entries, partials=partials, name=f"scaled-{form.name}")


def _wrap(monkeypatch, modules, name: str, wrap):
    """Replace the function ``name`` by wrap(original) in each of the modules."""
    changed = wrap(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, changed)


def _scale_full_bracket(form: str):
    """The ``form`` full bracket times 1 + 1e-6, in rolling (reduction_defect) and verify."""
    def patch(monkeypatch):
        def wrap(base):
            def bracket(params, f="plain"):
                pi = base(params, f)
                return scale_bivector(pi, _constant(1.0 + 1e-6)) if f == form else pi

            return bracket

        _wrap(monkeypatch, (rolling, verify), "nh_bracket_full", wrap)

    return patch


def _wedge(dim: int, i: int, j: int, size: float) -> np.ndarray:
    """size (e_i ^ e_j) as a dim x dim matrix."""
    out = np.zeros((dim, dim))
    out[i, j], out[j, i] = size, -size
    return out


def _offset_gauge_form(monkeypatch):
    delta = _wedge(15, 0, 12, 1e-6)

    def wrap(base):
        def form(params):
            b = base(params)
            return FormPatch(degree=2, dim=15, entries=lambda s: b(s) + delta, partials=b.partials)

        return form

    _wrap(monkeypatch, (verify,), "gauge_form_on_M", wrap)


def _offset_gauge_matrix(monkeypatch):
    delta = _wedge(15, 0, 12, 1e-9)
    _wrap(monkeypatch, (verify,), "gauge_matrix", lambda base: lambda p, bm: base(p, bm) + delta)


def _scaled_closed_gauge(monkeypatch):
    """p - p B P, the formula behind every gauge of a verify run, times 1 + 1e-6.
    (p - (1 + 1e-6) p B P would pass gauge-roundtrip: gauging by -B still
    undoes it exactly, as (E - c X)(E + c X) = E where X @ X = 0.)"""
    _wrap(monkeypatch, (brackets,), "_closed_gauge", lambda base: lambda p, x: (1.0 + 1e-6) * base(p, x))


def _poisson_reduced_brackets(monkeypatch):
    """Every reduced bracket is the conformally rescaled Hamiltonizable one, a Poisson bracket."""
    def wrap(base):
        return lambda params, variant="plain": scale_bivector(
            base(params, hamiltonizable_variant(params.rank)), conformal_factor(params))

    _wrap(monkeypatch, (verify,), "reduced_bracket", wrap)


def _symmetrized_omega_jacobians(monkeypatch):
    def wrap(base):
        def jacobians(params, gamma, K):
            return tuple(0.5 * (j + np.swapaxes(j, -1, -2)) for j in base(params, gamma, K))

        return jacobians

    _wrap(monkeypatch, (dynamics,), "omega_jacobians", wrap)


def _field_times(module, name: str, factor):
    """The ScalarField ``name`` of ``module`` times factor(field)."""
    def patch(monkeypatch):
        _wrap(monkeypatch, (module,), name, lambda base: lambda params: _times(base(params), factor(base(params))))

    return patch


def _form_times(name: str, factor: ScalarField):
    def patch(monkeypatch):
        _wrap(monkeypatch, (verify,), name, lambda base: lambda params: _scaled_form(base(params), factor))

    return patch


def _bracket_times(factor: ScalarField):
    def patch(monkeypatch):
        def wrap(base):
            return lambda params, variant="plain": scale_bivector(base(params, variant), factor)

        _wrap(monkeypatch, (verify,), "reduced_bracket", wrap)

    return patch


def _pairs(ids, ranks) -> frozenset:
    return frozenset((i, r) for i in ((ids,) if isinstance(ids, str) else ids) for r in ranks)


# name -> (patch, the (check id, rank) pairs that must fail under it); each
# entry but the last alone reaches one of its pairs, so dropping it fails the
# coverage test; the last guards the closed gauge formula, which no other reaches

MUTATIONS = {
    "twist 3-form x 1.5": (
        _form_times("twist_three_form", _constant(1.5)),
        _pairs("twisted-defect-plain", (1,)) | _pairs("twisted-defect-primed", (2,)),
    ),
    "twist 3-form x (1 + gamma_1), not closed": (
        _form_times("twist_three_form", _tilt(1.0)),
        _pairs("twisted-closed", (1, 2)),
    ),
    "reduced brackets x (1 + gamma_1 / 2), not Poisson": (
        _bracket_times(_tilt(0.5)),
        _pairs(("jacobi-plain", "twisted-zero-form-plain"), (0,))
        | _pairs(("jacobi-primed", "twisted-zero-form-primed"), (3,)),
    ),
    "every reduced bracket made Poisson": (
        _poisson_reduced_brackets,
        _pairs("jacobi-primed-witness", (0, 1, 2)) | _pairs("jacobi-plain-witness", (1, 2, 3)),
    ),
    "conformal factor negated": (
        _field_times(verify, "conformal_factor", lambda phi: _constant(-1.0)),
        _pairs("conformal-positive", ALL),
    ),
    "conformal factor x (1 + gamma_1 / 2)": (
        _field_times(verify, "conformal_factor", lambda phi: _tilt(0.5)),
        _pairs("conformal-jacobi-plain", (0, 1)) | _pairs("conformal-jacobi-primed", (2, 3)),
    ),
    "gauge 2-form x 1.01": (
        _form_times("gauge_form_on_M", _constant(1.01)),
        _pairs("gauge-match", ALL),
    ),
    "gauge 2-form + 1e-6 (e_0 ^ e_12), not annihilating the flow": (
        _offset_gauge_form,
        _pairs("gauge-dynamical", ALL),
    ),
    "gauge_matrix + 1e-9 (e_0 ^ e_12)": (
        _offset_gauge_matrix,
        _pairs(("gauge-zero", "gauge-roundtrip"), ALL),
    ),
    "plain full bracket x (1 + 1e-6)": (
        _scale_full_bracket("plain"),
        _pairs("reduction-plain", ALL),
    ),
    "gauged full bracket x (1 + 1e-6)": (
        _scale_full_bracket("gauged"),
        _pairs("reduction-primed", ALL),
    ),
    "invariant density x (1 + gamma_1 / 2)": (
        _field_times(dynamics, "invariant_density", lambda mu: _tilt(0.5)),
        _pairs("measure-invariant", ALL),
    ),
    "Omega's Jacobians symmetrized, divergence-free": (
        _symmetrized_omega_jacobians,
        _pairs("measure-wrong-density", (1, 2)),
    ),
    "closed gauge p - p B P x (1 + 1e-6)": (
        _scaled_closed_gauge,
        _pairs(("gauge-match", "gauge-roundtrip", "gauge-zero"), ALL),
    ),
}


def _failed(rank: int) -> set:
    reports = run_all_suites(standard_body(rank), **RUN)
    return {(c["id"], rank) for report in reports for c in report["checks"] if not c["passed"]}


def test_the_unmutated_runs_pass_every_check():
    assert set().union(*(_failed(rank) for rank in ALL)) == set()


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_each_mutation_fails_its_checks(name, monkeypatch):
    patch, pairs = MUTATIONS[name]
    patch(monkeypatch)
    failed = set().union(*(_failed(rank) for rank in sorted({r for _, r in pairs})))
    assert pairs <= failed, f"still passing: {sorted(pairs - failed)}"


def test_every_check_at_every_rank_has_a_mutation(perfbench):
    _, workloads = perfbench
    reached = frozenset().union(*(pairs for _, pairs in MUTATIONS.values()))
    checks = {(i, rank) for rank, ids in workloads.VERIFY_CHECK_IDS.items() for i in ids}
    missing = sorted(checks - reached)
    assert not missing, f"no mutation makes these (check id, rank) pairs fail: {missing}"
    assert reached <= checks
