"""Serialization: deterministic reports and problem round-trips."""

import json
import math

import numpy as np
import pytest

from sqlab import VERIFIABLE, biclique, line_problem
from sqlab.io import (
    dumps_report,
    load_problem,
    normalize_id,
    problem_from_dict,
    problem_to_dict,
    to_jsonable,
)


def test_to_jsonable_handles_numpy_and_inf():
    out = to_jsonable(
        {
            "arr": np.array([1.0, 2.0]),
            "int": np.int64(3),
            "float": np.float64(0.5),
            "inf": math.inf,
            "neg": -math.inf,
            "nested": [np.array([0.25]), (1, 2)],
        }
    )
    # everything must survive a strict JSON round-trip
    text = json.dumps(out)
    back = json.loads(text)
    assert back["arr"] == [1.0, 2.0]
    assert back["int"] == 3
    assert back["inf"] == "inf"
    assert back["neg"] == "-inf"
    assert back["nested"][0] == [0.25]


def test_dumps_report_is_deterministic():
    payload = {"b": 2, "a": {"z": [3, 1], "y": np.float64(0.125)}}
    one = dumps_report(payload)
    two = dumps_report({"a": {"y": np.float64(0.125), "z": [3, 1]}, "b": 2})
    assert one == two
    assert one.endswith("\n")
    # keys come out sorted so the byte stream is reproducible
    assert one.index('"a"') < one.index('"b"')


def test_normalize_id():
    assert normalize_id((1, 2)) == normalize_id([1, 2])
    assert normalize_id("abc") == "abc"


@pytest.mark.parametrize("problem", [
    biclique(4, 2, kind="search"),
    biclique(4, 1, kind="decision"),
    biclique(4, 2, kind="verifiable"),
    line_problem(3, kind="search"),
])
def test_problem_round_trip(problem, tmp_path):
    data = problem_to_dict(problem)
    # the dict must be pure JSON
    json.dumps(data)
    back = problem_from_dict(data)
    assert back.kind == problem.kind
    assert back.domain.elements == problem.domain.elements
    assert back.n_dists == problem.n_dists
    assert back.solutions == problem.solutions
    assert np.array_equal(back.validity, problem.validity)
    for d_old, d_new in zip(problem.dists, back.dists):
        assert np.allclose(d_old.weights, d_new.weights, atol=1e-15)
    if problem.reference is not None:
        assert np.allclose(back.reference.weights, problem.reference.weights)
    if problem.kind == VERIFIABLE:
        assert back.threshold == pytest.approx(problem.threshold)
        for f in problem.solutions:
            assert np.allclose(back.verify[f].values, problem.verify[f].values)

    # the instance file ``sqlab gen`` writes
    path = tmp_path / "instance.json"
    path.write_text(dumps_report(problem_to_dict(problem)))
    loaded = load_problem(str(path))
    assert loaded.domain.elements == problem.domain.elements
    assert np.array_equal(loaded.validity, problem.validity)
    # file write is byte-stable, also after a load
    first = path.read_text()
    path.write_text(dumps_report(problem_to_dict(loaded)))
    assert path.read_text() == first
