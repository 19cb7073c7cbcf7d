"""Verification suites: batched residual checks of the bracket identities,
run over randomized states.

Each check yields a record with an ``anchor`` describing the identity being
tested, the worst observed residual, the tolerance, and a pass flag.  For
positive controls (quantities that must stay AWAY from zero, e.g. the
Jacobiator of a genuinely non-Poisson bracket) the comparison field is
"gt" and the tolerance acts as a floor; ``--tol-scale`` deliberately does
not touch those floors.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .brackets import gauge_matrix, gauge_record, jacobi_tensor, scale_bivector
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

__all__ = ["SUITE_NAMES", "CheckRecord", "run_all_suites", "run_suite"]

SUITE_NAMES = ("jacobi", "conformal", "twisted", "gauge", "reduction", "measure")


@dataclass
class CheckRecord:
    id: str
    anchor: str
    max_residual: float
    tolerance: float
    passed: bool
    comparison: str = "le"  # "le": residual must stay below tolerance; "gt": above

    def to_dict(self) -> dict:
        return asdict(self)


def _record(check_id: str, anchor: str, residual: float, tol: float, comparison: str = "le") -> CheckRecord:
    residual = float(residual)
    passed = residual <= tol if comparison == "le" else residual > tol
    return CheckRecord(
        id=check_id,
        anchor=anchor,
        max_residual=residual,
        tolerance=float(tol),
        passed=bool(passed),
        comparison=comparison,
    )


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


def _jacobi_suite(params: BodyParams, draw, tol_scale, variant=None) -> list:
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
            checks.append(_record(f"jacobi-{v}", anchor, worst, 1e-9 * tol_scale))
        else:
            note = "" if poisson else " (no Poisson structure before rescaling)"
            anchor = f"Jacobiator of the rank-{rank} {v} bracket stays away from zero{note}"
            checks.append(_record(f"jacobi-{v}-witness", anchor, worst, 1e-3, comparison="gt"))
    return checks


def _conformal_suite(params: BodyParams, draw, tol_scale, variant=None) -> list:
    states = draw(sample_reduced_state)
    v = variant or hamiltonizable_variant(params.rank)
    pi = reduced_bracket(params, v)
    phi = conformal_factor(params)
    tol = (1e-9 if poisson_variant(params.rank) else 1e-7) * tol_scale
    worst = _max_jacobiator(scale_bivector(pi, phi), states)
    return [
        _record(
            "conformal-positive",
            "conformal factor is strictly positive on the sampled states",
            min(phi(s) for s in states),
            0.0,
            comparison="gt",
        ),
        _record(
            f"conformal-jacobi-{v}",
            f"Jacobiator of (conformal factor) x (rank-{params.rank} {v} bracket) vanishes",
            worst,
            tol,
        ),
    ]


def _twisted_suite(params: BodyParams, draw, tol_scale, variant=None) -> list:
    states = draw(sample_reduced_state)
    checks = []
    poisson = poisson_variant(params.rank)
    if poisson:
        v = variant or poisson
        checks.append(
            _record(
                f"twisted-zero-form-{v}",
                f"twisted defect with vanishing 3-form reduces to the Jacobiator (rank {params.rank})",
                _max_jacobiator(reduced_bracket(params, v), states),
                1e-9 * tol_scale,
            )
        )
        return checks
    v = variant or hamiltonizable_variant(params.rank)
    pi = reduced_bracket(params, v)
    phi = twist_three_form(params)
    checks.append(
        _record(
            f"twisted-defect-{v}",
            f"rank-{params.rank} {v} bracket is twisted-Poisson against the derived 3-form",
            _max_jacobiator(pi, states, phi),
            1e-6 * tol_scale,
        )
    )
    closed = 0.0
    for s in states[: min(5, len(states))]:
        closed = max(closed, float(np.max(np.abs(fd_exterior_derivative(phi, s)))))
    checks.append(
        _record(
            "twisted-closed",
            "the twist 3-form is closed (it is an exterior derivative)",
            closed,
            1e-5 * tol_scale,
        )
    )
    return checks


def _gauge_suite(params: BodyParams, draw, tol_scale, variant=None) -> list:
    """P, B and the gauged bracket are evaluated once per state; the gauges by
    B, B then -B, and 0 are solves on those values, and the dynamical record
    reuses the conditioning of the first solve."""
    pi_plain = nh_bracket_full(params, "plain")
    pi_gauged = nh_bracket_full(params, "gauged")
    b_form = gauge_form_on_M(params)
    h_field = full_hamiltonian_field(params)
    zero_form = np.zeros((FULL_DIM, FULL_DIM))

    match = 0.0
    roundtrip = 0.0
    zero_defect = 0.0
    dyn = []
    for s in draw(sample_full_state):
        p, bm = pi_plain.matrix(s), b_form(s)
        g, smallest, condition = gauge_matrix(p, bm)
        match = max(match, float(np.max(np.abs(g - pi_gauged.matrix(s)))))
        roundtrip = max(roundtrip, float(np.max(np.abs(gauge_matrix(g, -bm)[0] - p))))
        zero_defect = max(zero_defect, float(np.max(np.abs(gauge_matrix(p, zero_form)[0] - p))))
        # -p @ grad h is the Hamiltonian vector field, as in dynamical_gauge_check
        dyn.append(gauge_record(-p @ h_field.grad(s), bm, smallest, condition))
    contraction = max(r["contraction"] for r in dyn)
    dyn_ok = all(r["passed"] for r in dyn)
    return [
        _record(
            "gauge-match",
            "gauge transformation of the plain bracket by the semi-basic 2-form "
            "reproduces the gauged bracket",
            match,
            1e-9 * tol_scale,
        ),
        _record(
            "gauge-roundtrip",
            "gauging by B then by -B returns the original bracket",
            roundtrip,
            1e-10 * tol_scale,
        ),
        _record(
            "gauge-zero",
            "gauging by the zero form is the identity, exactly",
            zero_defect,
            0.0,
        ),
        CheckRecord(
            id="gauge-dynamical",
            anchor="the gauge 2-form annihilates the constrained flow (i_X B = 0) "
            "and E + B pi stays invertible",
            max_residual=float(contraction),
            tolerance=1e-9 * tol_scale,
            passed=bool(dyn_ok and contraction <= 1e-9 * tol_scale),
        ),
    ]


def _reduction_suite(params: BodyParams, draw, tol_scale, variant=None) -> list:
    states = draw(sample_full_state)
    checks = []
    variants = (variant,) if variant else ("plain", "primed")
    for v in variants:
        checks.append(
            _record(
                f"reduction-{v}",
                f"brackets of the reduced coordinates on the full space match the "
                f"rank-{params.rank} {v} reduced bracket entrywise",
                max(float(np.max(reduction_defect(params, v, s))) for s in states),
                1e-9 * tol_scale,
            )
        )
    return checks


def _measure_suite(params: BodyParams, draw, tol_scale, variant=None) -> list:
    states = draw(sample_reduced_state)
    worst = max(divergence_defect(params, s, density="invariant") for s in states)
    checks = [
        _record(
            "measure-invariant",
            "the reduced flow preserves the smooth measure with density 1/(conformal factor)",
            worst,
            1e-6 * tol_scale,
        )
    ]
    if not poisson_variant(params.rank):
        wrong = max(divergence_defect(params, s, density="uniform") for s in states)
        checks.append(
            _record(
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
    if not tol_scale > 0.0:
        raise ValueError("tol-scale must be positive")
    draw = _sampler(trials, seed)
    reports = []
    for name in names:
        checks = _SUITE_FNS[name](params, draw, tol_scale, variant)
        reports.append(
            {
                "suite": name,
                "rank": params.rank,
                "checks": [c.to_dict() for c in checks],
                "passed": bool(all(c.passed for c in checks)),
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
