"""Scenario JSON parsing and validation."""

import json

import numpy as np
import pytest

from chaplygin import ScenarioError, load_scenario, scenario_from_dict


def reduced_scenario() -> dict:
    return {
        "inertia": [1.0, 2.0, 3.0],
        "mass": 1.0,
        "radius": 1.0,
        "rank": 2,
        "initial": {"gamma": [0.0, 0.0, 1.0], "K": [0.3, -0.1, 0.2]},
        "integrator": {"dt": 1e-3, "T": 10.0},
        "seed": 0,
    }


def full_scenario() -> dict:
    data = reduced_scenario()
    data["initial"] = {
        "g": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        "x": [0.0, 0.0, 0.0],
        "K": [0.3, -0.1, 0.2],
    }
    return data


def test_reduced_round_trip():
    sc = scenario_from_dict(reduced_scenario())
    assert not sc.is_full
    assert sc.params.rank == 2
    assert sc.config.dt == 1e-3 and sc.config.t_final == 10.0
    assert np.array_equal(sc.initial, [0.0, 0.0, 1.0, 0.3, -0.1, 0.2])


def test_full_round_trip_row_major_g():
    sc = scenario_from_dict(full_scenario())
    assert sc.is_full
    assert np.array_equal(sc.initial[:9].reshape(3, 3), np.eye(3))
    assert np.array_equal(sc.initial[9:12], np.zeros(3))


def test_full_round_trip_nested_g():
    data = full_scenario()
    data["initial"]["g"] = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    sc = scenario_from_dict(data)
    assert sc.is_full
    assert np.array_equal(sc.initial[:9], [0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0])


def test_optional_fields_defaults():
    data = reduced_scenario()
    del data["seed"]
    sc = scenario_from_dict(data)
    assert sc.seed == 0
    assert sc.config.renormalize_gamma is False


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.pop("inertia"), "inertia"),
        (lambda d: d.update(inertia=[1.0, 2.0]), "inertia"),
        (lambda d: d.update(inertia=[1.0, -2.0, 3.0]), "inertia"),
        (lambda d: d.update(mass=0.0), "mass"),
        (lambda d: d.update(mass="heavy"), "mass"),
        (lambda d: d.update(radius=-1.0), "radius"),
        (lambda d: d.update(rank=7), "rank"),
        (lambda d: d.update(rank="two"), "rank"),
        (lambda d: d.pop("initial"), "initial"),
        (lambda d: d["initial"].pop("K"), "initial.K"),
        (lambda d: d["initial"].update(gamma=[0.0, 0.0, 2.0]), "initial.gamma"),
        (lambda d: d["integrator"].update(dt=0.0), "integrator.dt"),
        (lambda d: d["integrator"].update(dt=20.0), "integrator"),
        (lambda d: d["integrator"].pop("T"), "integrator.T"),
        (lambda d: d["integrator"].update(method="euler"), "integrator.method"),
        (lambda d: d["integrator"].update(renormalize_g=False), "integrator.renormalize_g"),
        (lambda d: d.update(seed=1.5), "seed"),
    ],
)
def test_invalid_reduced_scenarios_name_the_field(mutate, field):
    data = reduced_scenario()
    mutate(data)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.field.startswith(field)
    assert field in str(err.value)


def test_explicit_rk4_method_accepted():
    data = reduced_scenario()
    data["integrator"]["method"] = "rk4"
    assert scenario_from_dict(data).config == scenario_from_dict(reduced_scenario()).config


def test_both_initial_forms_rejected():
    data = full_scenario()
    data["initial"]["gamma"] = [0.0, 0.0, 1.0]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.field == "initial"


def test_nonrotation_g_rejected():
    data = full_scenario()
    data["initial"]["g"] = [2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.field == "initial.g"


def test_full_form_requires_contact_point():
    data = full_scenario()
    del data["initial"]["x"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.field == "initial.x"


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "absent.json")


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(reduced_scenario()))
    sc = load_scenario(path)
    assert sc.params.rank == 2
