"""Verification suites: batched residual checks of the bracket identities,
run over randomized states.

A suite returns one dict per check: its ``id``, an ``anchor`` describing
the identity being tested, the worst observed residual (``max_residual``),
its bound (``tolerance``) and a ``comparison``.  "le" checks bound the
residual from above; "gt" checks are positive controls (quantities that
must stay AWAY from zero, e.g. the Jacobiator of a genuinely non-Poisson
bracket) and the tolerance is a floor.  ``_run_suites`` alone applies the
pass rule: it multiplies every upper bound by ``tol_scale`` (never a
floor) and sets ``passed`` to residual <= bound, or residual > floor.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .brackets import gauge_matrix, jacobi_tensor, scale_bivector
from .dynamics import divergence_defect
from .geometry import fd_exterior_derivative, sample_reduced_state
from .rolling import (
    FULL_DIM,
    BodyParams,
    conformal_factor,
    full_hamiltonian_field,
    gauge_form_on_M,
    hamiltonizable_variant,
    nh_bracket_full,
    poisson_variant,
    reduced_bracket,
    reduction_defect,
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


def _sampler(trials: int, seed: int):
    """draw(sample) -> ``trials`` states from ``sample`` and a generator seeded
    with ``seed``, drawn on first use and then shared by the suites of a run."""

    @functools.cache
    def draw(sample) -> list:
        rng = np.random.default_rng(seed)
        return [sample(rng) for _ in range(trials)]

    return draw


def _max_jacobiator(pi, states, phi=None) -> float:
    """Largest |Jacobiator (+ phi term)| over all index triples and states."""
    return max(float(np.max(np.abs(jacobi_tensor(pi, s, phi)))) for s in states)


def _jacobi_suite(params: BodyParams, draw, variant=None) -> list:
    """A forced variant must be Poisson; otherwise the Poisson variant of the
    rank (if any) must be, and every other variant is a positive control."""
    states = draw(sample_reduced_state)
    rank = params.rank
    poisson = variant or poisson_variant(rank)
    checks = []
    # the Poisson variant first
    for v in (variant,) if variant else sorted(("plain", "primed"), key=lambda v: v != poisson):
        worst = _max_jacobiator(reduced_bracket(params, v), states)
        if v == poisson:
            note = "" if variant else " (Poisson)"
            anchor = f"Jacobiator of the rank-{rank} {v} bracket vanishes identically{note}"
            checks.append(_check(f"jacobi-{v}", anchor, worst, 1e-9))
        else:
            note = "" if poisson else " (no Poisson structure before rescaling)"
            anchor = f"Jacobiator of the rank-{rank} {v} bracket stays away from zero{note}"
            checks.append(_check(f"jacobi-{v}-witness", anchor, worst, 1e-3, comparison="gt"))
    return checks


def _conformal_suite(params: BodyParams, draw, variant=None) -> list:
    states = draw(sample_reduced_state)
    v = variant or hamiltonizable_variant(params.rank)
    pi = reduced_bracket(params, v)
    phi = conformal_factor(params)
    worst = _max_jacobiator(scale_bivector(pi, phi), states)
    return [
        _check(
            "conformal-positive",
            "conformal factor is strictly positive on the sampled states",
            min(phi(s) for s in states),
            0.0,
            comparison="gt",
        ),
        _check(
            f"conformal-jacobi-{v}",
            f"Jacobiator of (conformal factor) x (rank-{params.rank} {v} bracket) vanishes",
            worst,
            1e-9 if poisson_variant(params.rank) else 1e-7,
        ),
    ]


def _twisted_suite(params: BodyParams, draw, variant=None) -> list:
    """At ranks 0 and 3 the bracket is Poisson (``hamiltonizable_variant`` is
    ``poisson_variant`` there) and the twist 3-form vanishes."""
    states = draw(sample_reduced_state)
    v = variant or hamiltonizable_variant(params.rank)
    pi = reduced_bracket(params, v)
    if poisson_variant(params.rank):
        return [
            _check(
                f"twisted-zero-form-{v}",
                f"twisted defect with vanishing 3-form reduces to the Jacobiator (rank {params.rank})",
                _max_jacobiator(pi, states),
                1e-9,
            )
        ]
    phi = twist_three_form(params)
    return [
        _check(
            f"twisted-defect-{v}",
            f"rank-{params.rank} {v} bracket is twisted-Poisson against the derived 3-form",
            _max_jacobiator(pi, states, phi),
            1e-6,
        ),
        _check(
            "twisted-closed",
            "the twist 3-form is closed (it is an exterior derivative)",
            max(float(np.max(np.abs(fd_exterior_derivative(phi, s)))) for s in states[:5]),
            1e-5,
        ),
    ]


def _gauge_suite(params: BodyParams, draw, variant=None) -> list:
    """P, B and the gauged bracket are evaluated once per state; the gauges by
    B, B then -B, and 0 are solves on those values.  ``gauge_matrix`` raises
    SingularGauge where E + B P is not invertible, so the dynamical check
    bounds the contraction alone."""
    pi_plain = nh_bracket_full(params, "plain")
    pi_gauged = nh_bracket_full(params, "gauged")
    b_form = gauge_form_on_M(params)
    h_field = full_hamiltonian_field(params)
    zero_form = np.zeros((FULL_DIM, FULL_DIM))

    match = 0.0
    roundtrip = 0.0
    zero_defect = 0.0
    contraction = 0.0
    for s in draw(sample_full_state):
        p, bm = pi_plain.matrix(s), b_form(s)
        g = gauge_matrix(p, bm)
        match = max(match, float(np.max(np.abs(g - pi_gauged.matrix(s)))))
        roundtrip = max(roundtrip, float(np.max(np.abs(gauge_matrix(g, -bm) - p))))
        zero_defect = max(zero_defect, float(np.max(np.abs(gauge_matrix(p, zero_form) - p))))
        # -p @ grad h is the Hamiltonian vector field, as in dynamical_gauge_check
        contraction = max(contraction, float(np.linalg.norm(-p @ h_field.grad(s) @ bm)))
    return [
        _check(
            "gauge-match",
            "gauge transformation of the plain bracket by the semi-basic 2-form "
            "reproduces the gauged bracket",
            match,
            1e-9,
        ),
        _check(
            "gauge-roundtrip",
            "gauging by B then by -B returns the original bracket",
            roundtrip,
            1e-10,
        ),
        _check(
            "gauge-zero",
            "gauging by the zero form is the identity, exactly",
            zero_defect,
            0.0,
        ),
        _check(
            "gauge-dynamical",
            "the gauge 2-form annihilates the constrained flow (i_X B = 0) "
            "and E + B pi stays invertible",
            contraction,
            1e-9,
        ),
    ]


def _reduction_suite(params: BodyParams, draw, variant=None) -> list:
    states = draw(sample_full_state)
    return [
        _check(
            f"reduction-{v}",
            f"brackets of the reduced coordinates on the full space match the "
            f"rank-{params.rank} {v} reduced bracket entrywise",
            max(float(np.max(reduction_defect(params, v, s))) for s in states),
            1e-9,
        )
        for v in ((variant,) if variant else ("plain", "primed"))
    ]


def _measure_suite(params: BodyParams, draw, variant=None) -> list:
    states = draw(sample_reduced_state)
    worst = max(divergence_defect(params, s, density="invariant") for s in states)
    checks = [
        _check(
            "measure-invariant",
            "the reduced flow preserves the smooth measure with density 1/(conformal factor)",
            worst,
            1e-6,
        )
    ]
    if not poisson_variant(params.rank):
        wrong = max(divergence_defect(params, s, density="uniform") for s in states)
        checks.append(
            _check(
                "measure-wrong-density",
                "the uniform density is NOT preserved: its divergence stays away from zero",
                wrong,
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
    draw = _sampler(trials, seed)
    reports = []
    for name in names:
        checks = _SUITE_FNS[name](params, draw, variant)
        for c in checks:
            if c["comparison"] == "le":
                c["tolerance"] = float(c["tolerance"] * tol_scale)
                c["passed"] = c["max_residual"] <= c["tolerance"]
            else:
                c["passed"] = c["max_residual"] > c["tolerance"]
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
