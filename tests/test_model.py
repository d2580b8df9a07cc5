import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_sharing import generate, instances
from delayed_sharing.errors import DomainError, ParseError, SchemaError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import delta_length, private_sizes
from delayed_sharing.model import (load_problem, normalize_problem,
                                   serialize_problem, validate_problem)


IO_FILE = Path(instances.__file__).parent / "io.json"


def make_degenerate_text():
    data = {
        "K": 1, "T": 1, "n": 1, "x_size": 1,
        "y_size": [1], "u_size": [1],
        "x0_dist": [1.0],
        "trans": [[[[1.0]]]],
        "obs": [[[[1.0]]]],
        "cost": [[[5.0]]],
    }
    return json.dumps(data)


def test_load_degenerate_instance():
    spec = load_problem(make_degenerate_text())
    assert spec.K == 1 and spec.T == 1 and spec.n == 1
    assert spec.x_size == 1 and spec.action_count == 1
    assert spec.cost[0, 0, 0] == 5.0
    assert validate_problem(spec) == []


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        load_problem("{not json")


def test_missing_field_is_schema_error():
    data = json.loads(make_degenerate_text())
    del data["trans"]
    with pytest.raises(SchemaError, match="trans"):
        load_problem(json.dumps(data))


def test_wrong_extent_is_schema_error():
    data = json.loads(make_degenerate_text())
    data["x0_dist"] = [0.5, 0.5]
    with pytest.raises(SchemaError, match="x0_dist"):
        load_problem(json.dumps(data))


def test_bad_row_sum_named_in_report():
    data = json.loads(make_degenerate_text())
    data["trans"] = [[[[0.999]]]]
    spec = load_problem(json.dumps(data))
    report = validate_problem(spec)
    assert len(report) == 1
    assert report[0].path == "trans[0][0][0]"


def test_x0_sum_violation():
    data = json.loads(make_degenerate_text())
    data["x_size"] = 2
    data["x0_dist"] = [0.5, 0.6]
    data["trans"] = [[[[0.5, 0.5]], [[0.5, 0.5]]]]
    data["obs"] = [[[[1.0], [1.0]]]]
    data["cost"] = [[[0.0], [0.0]]]
    spec = load_problem(json.dumps(data))
    report = validate_problem(spec)
    assert [v.path for v in report] == ["x0_dist"]
    assert report[0].value == pytest.approx(1.1)


def test_negative_probability_names_entry():
    data = json.loads(make_degenerate_text())
    data["y_size"] = [2]
    data["obs"] = [[[[-0.1, 1.1]]]]
    spec = load_problem(json.dumps(data))
    report = validate_problem(spec)
    assert any(v.path == "obs[0][0][0][0]" for v in report)


@pytest.mark.parametrize("path", ["K", "T", "n", "x_size",
                                  "y_size.0", "u_size.0"])
def test_boolean_sizes_are_schema_errors(path):
    # JSON true loads as a Python bool, which is an int subclass
    data = json.loads(IO_FILE.read_text())
    name, _, idx = path.partition(".")
    if idx:
        data[name][int(idx)] = True
    else:
        data[name] = True
    with pytest.raises(SchemaError, match=f"^{name} "):
        load_problem(json.dumps(data))


@pytest.mark.parametrize("name", instances.NAMES)
def test_shipped_instance_regenerates_byte_for_byte(name):
    """scripts/make_instances.py rebuilds every shipped file from its fixed
    seed: the generator's serialized instance is the file's text."""
    shipped = (IO_FILE.parent / f"{name}.json").read_text("utf-8")
    assert serialize_problem(generate.CANONICAL[name]()) == shipped


def test_round_trip_is_field_identical():
    text = instances.load_raw("i1")
    again = load_problem(serialize_problem(text))
    assert again.K == text.K and again.T == text.T and again.n == text.n
    assert np.array_equal(again.x0_dist, text.x0_dist)
    assert np.array_equal(again.trans, text.trans)
    assert np.array_equal(again.cost, text.cost)
    for a, b in zip(again.obs, text.obs):
        assert np.array_equal(a, b)


def test_normalize_rejects_invalid():
    data = json.loads(make_degenerate_text())
    data["trans"] = [[[[0.9]]]]
    spec = load_problem(json.dumps(data))
    from delayed_sharing.errors import InvalidProblemError
    with pytest.raises(InvalidProblemError):
        normalize_problem(spec)


def test_normalize_is_idempotent():
    spec = normalize_problem(random_instance(2, 2, 1, 2, (2, 2), (2, 2), seed=3))
    assert normalize_problem(spec) is spec


# -- windows ---------------------------------------------------------------

def test_window_clipped_at_start():
    spec = random_instance(2, 4, 2, 2, (2, 2), (2, 2), seed=1)
    assert private_sizes(spec, 0, 1) == (1, 0)
    assert delta_length(spec, 1) == 0


def test_window_delay_one():
    spec = random_instance(2, 4, 1, 2, (2, 2), (2, 2), seed=1)
    assert private_sizes(spec, 0, 3) == (1, 0)
    assert delta_length(spec, 3) == 2


def test_window_full():
    spec = random_instance(2, 4, 2, 2, (2, 2), (2, 2), seed=1)
    assert private_sizes(spec, 0, 4) == (2, 1)
    assert delta_length(spec, 4) == 2


def test_window_domain_error():
    spec = random_instance(2, 2, 1, 2, (2, 2), (2, 2), seed=1)
    with pytest.raises(DomainError):
        private_sizes(spec, 0, 0)
    with pytest.raises(DomainError):
        private_sizes(spec, 0, 3)


@settings(max_examples=100, deadline=None)
@given(T=st.integers(1, 8), n=st.integers(1, 8), t=st.integers(1, 8))
def test_window_invariants(T, n, t):
    if t > T:
        return
    spec = random_instance(1, T, n, 1, (1,), (1,), seed=0)
    ny, nu = private_sizes(spec, 0, t)
    assert ny <= n
    assert nu <= n - 1
    if t > n:
        assert (ny, nu) == (n, n - 1)
    if t < T:
        diff = delta_length(spec, t + 1) - delta_length(spec, t)
        assert diff in (0, 1)
        assert (diff == 1) == (t >= n)
