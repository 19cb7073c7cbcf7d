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

from dataclasses import asdict, dataclass

import numpy as np

from .brackets import dynamical_gauge_check, gauge_transform, jacobi_tensor, scale_bivector
from .dynamics import divergence_defect
from .geometry import FormPatch, fd_exterior_derivative, sample_reduced_state
from .rolling import (
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


def _reduced_states(trials: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [sample_reduced_state(rng) for _ in range(trials)]


def _full_states(trials: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [sample_full_state(rng) for _ in range(trials)]


def _max_jacobiator(pi, states, phi=None) -> float:
    """Largest |Jacobiator (+ phi term)| over all index triples and states."""
    return max(float(np.max(np.abs(jacobi_tensor(pi, s, phi)))) for s in states)


def _jacobi_suite(params: BodyParams, trials, seed, tol_scale, variant=None) -> list:
    states = _reduced_states(trials, seed)
    checks = []
    if variant is not None:
        pi = reduced_bracket(params, variant)
        checks.append(
            _record(
                f"jacobi-{variant}",
                f"Jacobiator of the rank-{params.rank} {variant} bracket vanishes identically",
                _max_jacobiator(pi, states),
                1e-9 * tol_scale,
            )
        )
        return checks
    pv = poisson_variant(params.rank)
    if pv is not None:
        other = "primed" if pv == "plain" else "plain"
        checks.append(
            _record(
                f"jacobi-{pv}",
                f"Jacobiator of the rank-{params.rank} {pv} bracket vanishes identically (Poisson)",
                _max_jacobiator(reduced_bracket(params, pv), states),
                1e-9 * tol_scale,
            )
        )
        checks.append(
            _record(
                f"jacobi-{other}-witness",
                f"Jacobiator of the rank-{params.rank} {other} bracket stays away from zero",
                _max_jacobiator(reduced_bracket(params, other), states),
                1e-3,
                comparison="gt",
            )
        )
    else:
        for v in ("plain", "primed"):
            checks.append(
                _record(
                    f"jacobi-{v}-witness",
                    f"Jacobiator of the rank-{params.rank} {v} bracket stays away from zero "
                    "(no Poisson structure before rescaling)",
                    _max_jacobiator(reduced_bracket(params, v), states),
                    1e-3,
                    comparison="gt",
                )
            )
    return checks


def _conformal_suite(params: BodyParams, trials, seed, tol_scale, variant=None) -> list:
    states = _reduced_states(trials, seed)
    v = variant or hamiltonizable_variant(params.rank)
    pi = reduced_bracket(params, v)
    phi = conformal_factor(params)
    tol = (1e-7 if params.rank in (1, 2) else 1e-9) * tol_scale
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


def _twisted_suite(params: BodyParams, trials, seed, tol_scale, variant=None) -> list:
    states = _reduced_states(trials, seed)
    checks = []
    if params.rank in (0, 3):
        v = variant or poisson_variant(params.rank)
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


def _gauge_suite(params: BodyParams, trials, seed, tol_scale, variant=None) -> list:
    states = _full_states(trials, seed)
    pi_plain = nh_bracket_full(params, "plain")
    pi_gauged = nh_bracket_full(params, "gauged")
    b_form = gauge_form_on_M(params)
    transformed = gauge_transform(pi_plain, b_form)

    def negated(s):
        return -b_form(s)

    minus_b = FormPatch(degree=2, dim=15, entries=negated, name="-B_full")
    back = gauge_transform(transformed, minus_b)

    match = 0.0
    roundtrip = 0.0
    zero_defect = 0.0
    for s in states:
        match = max(match, float(np.max(np.abs(transformed.matrix(s) - pi_gauged.matrix(s)))))
        roundtrip = max(roundtrip, float(np.max(np.abs(back.matrix(s) - pi_plain.matrix(s)))))
    zero_form = FormPatch(degree=2, dim=15, entries=lambda s: np.zeros((15, 15)), name="0")
    ident = gauge_transform(pi_plain, zero_form)
    for s in states[: min(5, len(states))]:
        zero_defect = max(zero_defect, float(np.max(np.abs(ident.matrix(s) - pi_plain.matrix(s)))))
    dyn = dynamical_gauge_check(pi_plain, b_form, full_hamiltonian_field(params), states)
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


def _reduction_suite(params: BodyParams, trials, seed, tol_scale, variant=None) -> list:
    states = _full_states(trials, seed)
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


def _measure_suite(params: BodyParams, trials, seed, tol_scale, variant=None) -> list:
    states = _reduced_states(trials, seed)
    worst = max(divergence_defect(params, s, density="invariant") for s in states)
    checks = [
        _record(
            "measure-invariant",
            "the reduced flow preserves the smooth measure with density 1/(conformal factor)",
            worst,
            1e-6 * tol_scale,
        )
    ]
    if params.rank in (1, 2):
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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not tol_scale > 0.0:
        raise ValueError("tol-scale must be positive")
    checks = _SUITE_FNS[name](params, trials, seed, tol_scale, variant)
    return {
        "suite": name,
        "rank": params.rank,
        "checks": [c.to_dict() for c in checks],
        "passed": bool(all(c.passed for c in checks)),
    }


def run_all_suites(
    params: BodyParams,
    trials: int = 100,
    seed: int = 0,
    tol_scale: float = 1.0,
    variant: str | None = None,
) -> list[dict]:
    return [run_suite(n, params, trials, seed, tol_scale, variant) for n in SUITE_NAMES]
