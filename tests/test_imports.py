"""What a fresh ``import chaplygin`` loads: the package resolves its public
names lazily, and the body side of the package (the body, its dynamics and
scenarios) imports none of the bracket machinery."""

import ast
from pathlib import Path

import pytest

import chaplygin

from conftest import fresh_modules

PACKAGE = Path(chaplygin.__file__).parent

# ``from chaplygin import *`` when __init__ star-imported its seven modules
EAGER_NAMES = frozenset("""
    AnnihilationViolated BivectorPatch BodyParams DegenerateDenominator FULL_DIM FormPatch IntegratorConfig
    K_from_omega MONITOR_NAMES NonFiniteState NonPositiveFactor REDUCED_DIM RHO_INDEX SUITE_NAMES ScalarField
    Scenario ScenarioError SingularGauge SymmetricInput Trajectory UnsupportedRank X_nh_full annihilator_one_form
    brackets casimir_defect casimir_gamma_norm casimir_kgamma conformal_factor conformal_jacobiator
    coordinate_field distribution_probe divergence_defect dynamical_gauge_check dynamics errors
    fd_exterior_derivative fd_gradient fd_partials full_hamiltonian_field gauge_form_on_M gauge_matrix
    gauge_transform geometry ham_vf hamiltonian hamiltonian_field hamiltonizable_variant hat hermite_sample
    horizontal_lift integrate invariant_density invariant_drift jacobi_tensor jacobiator leafwise_two_form
    lift_reduced_state load_scenario matrix_A monitor_series nh_bracket_full omega_from_K omega_jacobians
    pack_full poisson_variant project_rho random_rotation reduced_bracket reduced_vf reduction_consistency
    reduction_defect reparametrized_integrate rk4_step rolling run_all_suites run_suite sample_full_state
    sample_reduced_state scale_bivector scenario scenario_from_dict series_drift split_full split_reduced
    twist_three_form twist_two_form twisted_defect unhat verify wedge_1_2
""".split())


def test_load_and_integrate_import_only_the_body_side(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"inertia": [1.0, 2.0, 3.0], "mass": 1.0, "radius": 1.0, "rank": 2, '
                    '"initial": {"gamma": [0.0, 0.0, 1.0], "K": [0.3, -0.1, 0.2]}, '
                    '"integrator": {"dt": 1e-3, "T": 0.01}}')
    code = ("import chaplygin\n"
            "scenario = chaplygin.load_scenario(sys.argv[1])\n"
            "chaplygin.integrate(scenario.params, scenario.initial, scenario.config)\n")
    assert fresh_modules(code, str(path)) == [
        "chaplygin", "chaplygin.body", "chaplygin.dynamics", "chaplygin.errors", "chaplygin.geometry",
        "chaplygin.scenario",
    ]


def test_star_import_binds_every_public_name():
    """The union of the modules' __all__ and the module names: the eager
    package's names, and the body module."""
    bound = {}
    exec("from chaplygin import *", bound)
    assert set(bound) - {"__builtins__"} == EAGER_NAMES | {"body"}
    for name in ("ScalarField", "reduced_vf", "nh_bracket_full", "run_suite", "rolling"):
        assert bound[name] is getattr(chaplygin, name)
    assert chaplygin.reduced_vf is chaplygin.rolling.reduced_vf is chaplygin.body.reduced_vf
    with pytest.raises(AttributeError, match="no attribute 'reduced_field'"):
        chaplygin.reduced_field


def test_every_public_name_has_one_home():
    """No name is in the __all__ of two modules, so each resolves where it is defined."""
    homes = {}
    for m in chaplygin._MODULES:
        for name in chaplygin._module(m).__all__:
            homes.setdefault(name, []).append(m)
    assert {name: ms for name, ms in homes.items() if len(ms) > 1} == {}


BODY_SIDE = ("body", "dynamics", "scenario", "geometry", "errors")
STRUCTURE_SIDE = {"brackets", "rolling", "verify", "cli"}


def test_the_body_side_imports_no_bracket_machinery():
    """At module level, no module of the body side imports from a module of
    the structure side, so a simulate never loads the brackets."""
    found = []
    for name in BODY_SIDE:
        for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("chaplygin.").removeprefix("chaplygin")
                imported = {module} if module else {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                imported = {a.name.removeprefix("chaplygin.") for a in node.names}
            else:
                continue
            found += [f"{name}: {m}" for m in sorted(imported & STRUCTURE_SIDE)]
    assert found == []
