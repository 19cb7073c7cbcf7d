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

A suite is called as ``suite(params, states, variant)`` with the stack of
sampled states of its chart (``_SUITE_FNS``).  It evaluates its brackets,
forms and fields on the whole stack in one call and takes the maximum over
the stack; a nan at any state makes that maximum nan.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .body import BodyParams, _memoized, _run_memo, conformal_factor
from .brackets import _flow, _cyclic_sum, gauge_matrix, scale_bivector
from .dynamics import divergence_defect
from .geometry import fd_exterior_derivative
from .rolling import (
    full_hamiltonian_field,
    gauge_form_on_M,
    hamiltonizable_variant,
    nh_bracket_full,
    poisson_variant,
    reduced_bracket,
    reduction_defect,
    sample_full_state,
    sample_reduced_state,
    twist_three_form,
)

__all__ = ["SUITE_NAMES", "run_all_suites", "run_suite"]


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


def _jacobi_residual(params: BodyParams, states: np.ndarray, variant: str) -> float:
    """Largest |Jacobiator| of the reduced ``variant`` bracket over the
    reduced states, evaluated once per run: the jacobi suite reads it, and
    so does the twisted suite at ranks 0 and 3."""
    def compute():
        return _max_abs(_cyclic_sum(reduced_bracket(params, variant), states))

    return _memoized(("jacobi", variant), params, (states,), compute)


def _jacobi_suite(params: BodyParams, states: np.ndarray, variant=None) -> list:
    """A forced variant must be Poisson; otherwise the Poisson variant of the
    rank (if any) must be, and every other variant is a positive control."""
    rank = params.rank
    poisson = variant or poisson_variant(rank)
    checks = []
    # the Poisson variant first
    for v in (variant,) if variant else sorted(("plain", "primed"), key=lambda v: v != poisson):
        worst = _jacobi_residual(params, states, v)
        if v == poisson:
            note = "" if variant else " (Poisson)"
            anchor = f"Jacobiator of the rank-{rank} {v} bracket vanishes identically{note}"
            checks.append(_check(f"jacobi-{v}", anchor, worst, 1e-9))
        else:
            note = "" if poisson else " (no Poisson structure before rescaling)"
            anchor = f"Jacobiator of the rank-{rank} {v} bracket stays away from zero{note}"
            checks.append(_check(f"jacobi-{v}-witness", anchor, worst, 1e-3, comparison="gt"))
    return checks


def _conformal_suite(params: BodyParams, states: np.ndarray, variant=None) -> list:
    v = variant or hamiltonizable_variant(params.rank)
    phi = conformal_factor(params)
    scaled = scale_bivector(reduced_bracket(params, v), phi)
    return [
        _check(
            "conformal-positive",
            "conformal factor is strictly positive on the sampled states",
            np.min(phi(states)),  # the one floor statistic: every other check bounds a maximum
            0.0,
            comparison="gt",
        ),
        _check(
            f"conformal-jacobi-{v}",
            f"Jacobiator of (conformal factor) x (rank-{params.rank} {v} bracket) vanishes",
            _max_abs(_cyclic_sum(scaled, states)),
            1e-9 if poisson_variant(params.rank) else 1e-7,
        ),
    ]


def _twisted_suite(params: BodyParams, states: np.ndarray, variant=None) -> list:
    """At ranks 0 and 3 the bracket is Poisson (``hamiltonizable_variant`` is
    ``poisson_variant`` there) and the twist 3-form vanishes."""
    v = variant or hamiltonizable_variant(params.rank)
    if poisson_variant(params.rank):
        return [
            _check(
                f"twisted-zero-form-{v}",
                f"twisted defect with vanishing 3-form reduces to the Jacobiator (rank {params.rank})",
                _jacobi_residual(params, states, v),
                1e-9,
            )
        ]
    phi = twist_three_form(params)
    return [
        _check(
            f"twisted-defect-{v}",
            f"rank-{params.rank} {v} bracket is twisted-Poisson against the derived 3-form",
            _max_abs(_cyclic_sum(reduced_bracket(params, v), states, phi)),
            1e-6,
        ),
        _check(
            "twisted-closed",
            "the twist 3-form is closed (it is an exterior derivative)",
            _max_abs(fd_exterior_derivative(phi, states)),
            1e-5,
        ),
    ]


def _gauge_suite(params: BodyParams, states: np.ndarray, variant=None) -> list:
    """P, B and the gauged bracket are evaluated once on the stack of full
    states; the gauges by B, B then -B, and 0 are ``gauge_matrix`` calls on
    those values.  B P squares to 0, so E + B P is invertible and each gauge
    is P - P B P; the dynamical check bounds the contraction alone."""
    p = nh_bracket_full(params, "plain").matrix(states)
    bm = gauge_form_on_M(params)(states)
    g = gauge_matrix(p, bm)
    x_h = _flow(p, full_hamiltonian_field(params).grad(states))
    i_x_b = (x_h[..., None, :] @ bm)[..., 0, :]
    return [
        _check(
            "gauge-match",
            "gauge transformation of the plain bracket by the semi-basic 2-form "
            "reproduces the gauged bracket",
            _max_abs(g - nh_bracket_full(params, "gauged").matrix(states)),
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
            _max_abs(gauge_matrix(p, np.zeros_like(p)) - p),
            0.0,
        ),
        _check(
            "gauge-dynamical",
            "the gauge 2-form annihilates the constrained flow (i_X B = 0) "
            "and E + B pi stays invertible",
            _max_abs(np.sqrt(np.vecdot(i_x_b, i_x_b))),
            1e-9,
        ),
    ]


def _reduction_suite(params: BodyParams, states: np.ndarray, variant=None) -> list:
    return [
        _check(
            f"reduction-{v}",
            f"brackets of the reduced coordinates on the full space match the "
            f"rank-{params.rank} {v} reduced bracket entrywise",
            _max_abs(reduction_defect(params, v, states)),
            1e-9,
        )
        for v in ((variant,) if variant else ("plain", "primed"))
    ]


def _measure_suite(params: BodyParams, states: np.ndarray, variant=None) -> list:
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


# each suite and the chart of the states it reads
_SUITE_FNS = {
    "jacobi": (_jacobi_suite, "reduced"),
    "conformal": (_conformal_suite, "reduced"),
    "twisted": (_twisted_suite, "reduced"),
    "gauge": (_gauge_suite, "full"),
    "reduction": (_reduction_suite, "full"),
    "measure": (_measure_suite, "reduced"),
}
SUITE_NAMES = tuple(_SUITE_FNS)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_options(trials, seed, tol_scale, variant):
    """Raise ValueError on an option that the suites cannot run with."""
    if not (_is_int(trials) and trials >= 1):
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    # finite: the exact gauge-zero bound 0.0 would scale to nan at infinity
    if not (isinstance(tol_scale, numbers.Real) and 0.0 < tol_scale < math.inf):
        raise ValueError(f"tol-scale must be positive and finite, got {tol_scale!r}")
    if variant not in (None, "plain", "primed"):
        raise ValueError(f"variant must be 'plain', 'primed' or None, got {variant!r}")


def _run_suites(names, params: BodyParams, trials: int, seed: int, tol_scale: float, variant) -> list[dict]:
    """Report dicts of the named suites.  Every argument is checked first.
    Then each chart's stack of states is drawn once, only if a named suite
    reads it, and the suites share their evaluations through
    ``body._memoized``: the context variable ``body._run_memo`` holds a
    store while they run and is reset when they end or raise, so nothing
    outlives the run."""
    _check_options(trials, seed, tol_scale, variant)
    # looked up per run, so that a sampler patched into this module is the one drawn
    samplers = {"reduced": sample_reduced_state, "full": sample_full_state}
    charts = {_SUITE_FNS[name][1] for name in names}
    states = {chart: samplers[chart](np.random.default_rng(seed), trials) for chart in charts}
    scope = _run_memo.set({})
    try:
        # a body at the edge of the float range gives inf or nan residuals, which fail their checks
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            suites = []
            for name in names:
                suite, chart = _SUITE_FNS[name]
                suites.append((name, suite(params, states[chart], variant)))
    finally:
        _run_memo.reset(scope)
    reports = []
    for name, checks in suites:
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
