"""Verification suites: batched residual checks of the bracket identities,
run over randomized states.

A suite returns one dict per check: its ``id``, an ``anchor`` describing
the identity being tested, the worst observed residual (``max_residual``),
its bound (``tolerance``) and a ``comparison``.  "le" checks bound the
residual from above; "gt" checks are positive controls (quantities that
must stay AWAY from zero, e.g. the Jacobiator of a genuinely non-Poisson
bracket) and the tolerance is a floor.  ``_run_suites`` alone applies the
pass rule: it multiplies every upper bound by ``tol_scale`` (never a
floor) and sets ``passed`` to residual <= bound, or finite residual >
floor, so a nan or infinite residual fails either comparison.

Each suite evaluates its brackets, forms and fields on the whole stack of
sampled states in one call and takes the maximum over the stack; a nan at
any state makes that maximum nan.
"""

from __future__ import annotations

import math

import numpy as np

from .brackets import _flow, gauge_matrix, jacobi_tensor, scale_bivector
from .dynamics import divergence_defect
from .geometry import fd_exterior_derivative, sample_reduced_state
from .rolling import (
    FULL_DIM,
    BodyParams,
    _full_form,
    _reduction_gap,
    conformal_factor,
    full_hamiltonian_field,
    gauge_form_on_M,
    hamiltonizable_variant,
    nh_bracket_full,
    poisson_variant,
    reduced_bracket,
    sample_full_state,
    twist_three_form,
)

__all__ = ["SUITE_NAMES", "run_all_suites", "run_suite"]

SUITE_NAMES = ("jacobi", "conformal", "twisted", "gauge", "reduction", "measure")


def _check(check_id: str, anchor: str, residual: float, tol: float, comparison: str = "le") -> dict:
    """One check with its unscaled bound; ``_run_suites`` decides whether it passed."""
    return {
        "id": check_id,
        "anchor": anchor,
        "max_residual": float(residual),
        "tolerance": tol,
        "comparison": comparison,
    }


def _max_abs(values) -> float:
    """Largest |value| over every entry of every state; nan if any entry is nan."""
    return float(np.max(np.abs(values)))


class _Run:
    """The sampled states of one verify run and the evaluations its suites
    share, each computed on first use and then reused: the Jacobi tensor of
    a reduced bracket (the jacobi suite, and the twisted suite at ranks 0
    and 3) and the plain and gauged full bracket matrices (the gauge and
    reduction suites).  Every evaluation takes the whole stack of states."""

    def __init__(self, params: BodyParams, trials: int, seed: int):
        self.params = params
        self._trials, self._seed = trials, seed
        self._memo = {}

    def _shared(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def states(self, sample) -> np.ndarray:
        """A stack (trials, d) of states from ``sample`` and a generator seeded
        with the run's seed.  ``sample`` draws one state per call, so the
        states are those of the generator's sequence in order."""

        def draw():
            rng = np.random.default_rng(self._seed)
            return np.array([sample(rng) for _ in range(self._trials)])

        return self._shared(sample, draw)

    @property
    def reduced(self) -> np.ndarray:
        return self.states(sample_reduced_state)

    @property
    def full(self) -> np.ndarray:
        return self.states(sample_full_state)

    def jacobi_residual(self, variant: str) -> float:
        """Largest |Jacobiator| of the reduced ``variant`` bracket over the reduced states."""
        def compute():
            return _max_abs(jacobi_tensor(reduced_bracket(self.params, variant), self.reduced))

        return self._shared(("jacobi", variant), compute)

    def full_matrix(self, form: str) -> np.ndarray:
        """The ``form`` full bracket matrices at the full states."""
        return self._shared(("full", form), lambda: nh_bracket_full(self.params, form).matrix(self.full))


def _jacobi_suite(run: _Run, variant=None) -> list:
    """A forced variant must be Poisson; otherwise the Poisson variant of the
    rank (if any) must be, and every other variant is a positive control."""
    rank = run.params.rank
    poisson = variant or poisson_variant(rank)
    checks = []
    # the Poisson variant first
    for v in (variant,) if variant else sorted(("plain", "primed"), key=lambda v: v != poisson):
        worst = run.jacobi_residual(v)
        if v == poisson:
            note = "" if variant else " (Poisson)"
            anchor = f"Jacobiator of the rank-{rank} {v} bracket vanishes identically{note}"
            checks.append(_check(f"jacobi-{v}", anchor, worst, 1e-9))
        else:
            note = "" if poisson else " (no Poisson structure before rescaling)"
            anchor = f"Jacobiator of the rank-{rank} {v} bracket stays away from zero{note}"
            checks.append(_check(f"jacobi-{v}-witness", anchor, worst, 1e-3, comparison="gt"))
    return checks


def _conformal_suite(run: _Run, variant=None) -> list:
    params, states = run.params, run.reduced
    v = variant or hamiltonizable_variant(params.rank)
    phi = conformal_factor(params)
    scaled = scale_bivector(reduced_bracket(params, v), phi)
    return [
        _check(
            "conformal-positive",
            "conformal factor is strictly positive on the sampled states",
            np.min(phi(states)),
            0.0,
            comparison="gt",
        ),
        _check(
            f"conformal-jacobi-{v}",
            f"Jacobiator of (conformal factor) x (rank-{params.rank} {v} bracket) vanishes",
            _max_abs(jacobi_tensor(scaled, states)),
            1e-9 if poisson_variant(params.rank) else 1e-7,
        ),
    ]


def _twisted_suite(run: _Run, variant=None) -> list:
    """At ranks 0 and 3 the bracket is Poisson (``hamiltonizable_variant`` is
    ``poisson_variant`` there) and the twist 3-form vanishes."""
    params, states = run.params, run.reduced
    v = variant or hamiltonizable_variant(params.rank)
    if poisson_variant(params.rank):
        return [
            _check(
                f"twisted-zero-form-{v}",
                f"twisted defect with vanishing 3-form reduces to the Jacobiator (rank {params.rank})",
                run.jacobi_residual(v),
                1e-9,
            )
        ]
    phi = twist_three_form(params)
    return [
        _check(
            f"twisted-defect-{v}",
            f"rank-{params.rank} {v} bracket is twisted-Poisson against the derived 3-form",
            _max_abs(jacobi_tensor(reduced_bracket(params, v), states, phi)),
            1e-6,
        ),
        _check(
            "twisted-closed",
            "the twist 3-form is closed (it is an exterior derivative)",
            _max_abs(fd_exterior_derivative(phi, states[:5])),
            1e-5,
        ),
    ]


def _gauge_suite(run: _Run, variant=None) -> list:
    """P, B and the gauged bracket are evaluated once on the stack of full
    states; the gauges by B, B then -B, and 0 are solves on those values.
    ``gauge_matrix`` raises SingularGauge where E + B P is not invertible,
    so the dynamical check bounds the contraction alone."""
    p = run.full_matrix("plain")
    bm = gauge_form_on_M(run.params)(run.full)
    g = gauge_matrix(p, bm)
    x_h = _flow(p, full_hamiltonian_field(run.params).grad(run.full))
    i_x_b = (x_h[..., None, :] @ bm)[..., 0, :]
    return [
        _check(
            "gauge-match",
            "gauge transformation of the plain bracket by the semi-basic 2-form "
            "reproduces the gauged bracket",
            _max_abs(g - run.full_matrix("gauged")),
            1e-9,
        ),
        _check(
            "gauge-roundtrip",
            "gauging by B then by -B returns the original bracket",
            _max_abs(gauge_matrix(g, -bm) - p),
            1e-10,
        ),
        _check(
            "gauge-zero",
            "gauging by the zero form is the identity, exactly",
            _max_abs(gauge_matrix(p, np.zeros((FULL_DIM, FULL_DIM))) - p),
            0.0,
        ),
        _check(
            "gauge-dynamical",
            "the gauge 2-form annihilates the constrained flow (i_X B = 0) "
            "and E + B pi stays invertible",
            np.max(np.sqrt(np.vecdot(i_x_b, i_x_b))),
            1e-9,
        ),
    ]


def _reduction_suite(run: _Run, variant=None) -> list:
    params = run.params
    return [
        _check(
            f"reduction-{v}",
            f"brackets of the reduced coordinates on the full space match the "
            f"rank-{params.rank} {v} reduced bracket entrywise",
            _max_abs(_reduction_gap(params, v, run.full_matrix(_full_form(v)), run.full)),
            1e-9,
        )
        for v in ((variant,) if variant else ("plain", "primed"))
    ]


def _measure_suite(run: _Run, variant=None) -> list:
    params, states = run.params, run.reduced
    checks = [
        _check(
            "measure-invariant",
            "the reduced flow preserves the smooth measure with density 1/(conformal factor)",
            _max_abs(divergence_defect(params, states, density="invariant")),
            1e-6,
        )
    ]
    if not poisson_variant(params.rank):
        checks.append(
            _check(
                "measure-wrong-density",
                "the uniform density is NOT preserved: its divergence stays away from zero",
                _max_abs(divergence_defect(params, states, density="uniform")),
                1e-3,
                comparison="gt",
            )
        )
    return checks


_SUITE_FNS = {
    "jacobi": _jacobi_suite,
    "conformal": _conformal_suite,
    "twisted": _twisted_suite,
    "gauge": _gauge_suite,
    "reduction": _reduction_suite,
    "measure": _measure_suite,
}


def _run_suites(names, params: BodyParams, trials: int, seed: int, tol_scale: float, variant) -> list[dict]:
    """Report dicts of the named suites, which share one draw of states."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # finite: the exact gauge-zero bound 0.0 would scale to nan at infinity
    if not 0.0 < tol_scale < math.inf:
        raise ValueError("tol-scale must be positive and finite")
    run = _Run(params, trials, seed)
    reports = []
    for name in names:
        checks = _SUITE_FNS[name](run, variant)
        for c in checks:
            r = c["max_residual"]
            if c["comparison"] == "le":
                c["tolerance"] = float(c["tolerance"] * tol_scale)
                c["passed"] = r <= c["tolerance"]
            else:
                c["passed"] = math.isfinite(r) and r > c["tolerance"]
        reports.append(
            {
                "suite": name,
                "rank": params.rank,
                "checks": checks,
                "passed": all(c["passed"] for c in checks),
            }
        )
    return reports


def run_suite(
    name: str,
    params: BodyParams,
    trials: int = 100,
    seed: int = 0,
    tol_scale: float = 1.0,
    variant: str | None = None,
) -> dict:
    """Run one named suite against randomized states; returns a report dict."""
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _run_suites((name,), params, trials, seed, tol_scale, variant)[0]


def run_all_suites(
    params: BodyParams,
    trials: int = 100,
    seed: int = 0,
    tol_scale: float = 1.0,
    variant: str | None = None,
) -> list[dict]:
    """Run every suite on one draw of states: the same reports as
    ``run_suite`` gives for each name with the same arguments."""
    return _run_suites(SUITE_NAMES, params, trials, seed, tol_scale, variant)
