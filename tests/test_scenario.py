"""Scenario JSON parsing and validation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaplygin import ScenarioError, load_scenario, random_rotation, scenario_from_dict


def reduced_scenario() -> dict:
    return {
        "inertia": [1.0, 2.0, 3.0],
        "mass": 1.0,
        "radius": 1.0,
        "rank": 2,
        "initial": {"gamma": [0.0, 0.0, 1.0], "K": [0.3, -0.1, 0.2]},
        "integrator": {"dt": 1e-3, "T": 10.0},
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
    sc = scenario_from_dict(data)
    assert sc.config.renormalize_gamma is False
    # an unknown key such as "seed" (verify takes --seed) is ignored
    data["seed"] = 1.5
    ignored = scenario_from_dict(data)
    assert ignored.params == sc.params and ignored.config == sc.config
    assert np.array_equal(ignored.initial, sc.initial)


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


# ------------------------------------------------------- corrupting one field

_MISSING = object()


def _positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_scenarios(draw) -> dict:
    data = {
        "inertia": [draw(_positive(0.1, 10.0)) for _ in range(3)],
        "mass": draw(_positive(0.1, 10.0)),
        "radius": draw(_positive(0.1, 2.0)),
        "rank": draw(st.integers(0, 3)),
    }
    if draw(st.booleans()):
        data["so2_angle"] = draw(st.floats(-math.pi, math.pi))
    k = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    rotation = random_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        data["initial"] = {"gamma": (rotation[2] / np.linalg.norm(rotation[2])).tolist(), "K": k}
    else:
        g = rotation.tolist() if draw(st.booleans()) else rotation.reshape(9).tolist()
        data["initial"] = {"g": g, "x": [draw(st.floats(-1.0, 1.0)) for _ in range(3)], "K": k}
    dt = draw(_positive(1e-4, 0.1))
    data["integrator"] = {"dt": dt, "T": dt * draw(_positive(1.0, 100.0))}
    for key, value in (("method", "rk4"), ("renormalize_g", True), ("renormalize_gamma", False)):
        if draw(st.booleans()):
            data["integrator"][key] = value
    return data


_NOT_A_NUMBER = ["heavy", True, None, math.inf, math.nan]
_NOT_A_VECTOR = [_MISSING, "x", [1.0, 2.0], [1.0, "y", 3.0], [1.0, math.nan, 3.0]]
# field -> values that must be rejected there (_MISSING deletes the key);
# each applies to both initial forms unless the field belongs to one form
_CORRUPTIONS = {
    "inertia": _NOT_A_VECTOR + [[1.0, -2.0, 3.0], [0.0, 1.0, 1.0]],
    "mass": [_MISSING, 0.0, -1.0] + _NOT_A_NUMBER,
    "radius": [_MISSING, 0.0, -1.0] + _NOT_A_NUMBER,
    "rank": [_MISSING, -1, 4, 1.5, True, "two"],
    "so2_angle": _NOT_A_NUMBER,
    "initial": [_MISSING, "x", [0.0]],
    "initial.K": _NOT_A_VECTOR,
    "initial.gamma": _NOT_A_VECTOR[1:] + [[0.0, 0.0, 2.0]],
    "initial.g": ["x", [1.0] * 4, [2.0, 0, 0, 0, 1, 0, 0, 0, 1], [1.0, 0, 0, 0, 1, 0, 0, 0, -1]],
    "initial.x": _NOT_A_VECTOR,
    "integrator": [_MISSING, "x"],
    "integrator.dt": [_MISSING, 0.0, -1.0, 1e9] + _NOT_A_NUMBER,
    "integrator.T": [_MISSING, 0.0, -1.0] + _NOT_A_NUMBER,
    "integrator.method": ["euler", 3],
    "integrator.renormalize_g": [False, 1, "yes"],
    "integrator.renormalize_gamma": [1, "yes", None],
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=valid_scenarios(), field=st.sampled_from(sorted(_CORRUPTIONS)), pick=st.integers(0, 2**16))
def test_corrupting_one_field_names_it(data, field, pick):
    scenario_from_dict(json.loads(json.dumps(data)))  # valid as drawn
    *parents, key = field.split(".")
    target = data
    for parent in parents:
        target = target[parent]
    if field in ("initial.gamma", "initial.g", "initial.x") and key not in target:
        return  # the field belongs to the other initial form
    bad = _CORRUPTIONS[field][pick % len(_CORRUPTIONS[field])]
    if bad is _MISSING:
        del target[key]
    else:
        target[key] = bad
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.field == field
    assert f"'{field}'" in str(err.value)
