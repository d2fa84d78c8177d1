"""JSON serialization for problem instances and reports.

The on-disk problem schema is a single JSON object:

    {
      "kind": "search",               # or "decision" / "verifiable"
      "domain": [id, ...],            # element ids, in order
      "dists": [[w, ...], ...],       # one weight row per distribution
      "reference": [w, ...] | null,
      "solutions": [id, ...],
      "validity": [[bool, ...], ...], # rows = solutions, cols = dists
      "verify": {id-as-json: [v, ...]} | null,
      "threshold": float | null,
      "eps": float | null             # set by no generator
    }

``dumps_report(problem_to_dict(spec))`` writes it (as ``sqlab gen`` does)
and ``load_problem`` reads it back.

Element and solution ids are arbitrary JSON values; on load, lists are
normalized back to tuples recursively so round-tripping preserves identity
for tuple-shaped ids like labeled points (z1, z2, b). Verify-query keys are
JSON-encoded id strings (JSON object keys must be strings).

Floats rely on Python's shortest-repr float formatting, which round-trips
doubles bit-for-bit. Infinities in report payloads are serialized as the
strings "inf" / "-inf" (JSON has no infinity literal).
"""

from __future__ import annotations

import json
import math
from typing import IO, Any

import numpy as np

from .core import FiniteDistribution, FiniteDomain, ProblemSpec, QueryFn, UNIT

__all__ = [
    "normalize_id",
    "to_jsonable",
    "dumps_report",
    "problem_to_dict",
    "problem_from_dict",
    "load_problem",
]


def normalize_id(value):
    """Recursively turn JSON lists into tuples so ids regain their identity."""
    if isinstance(value, list):
        return tuple(normalize_id(v) for v in value)
    return value


def to_jsonable(obj: Any) -> Any:
    """Convert numpy scalars/arrays, tuples and infinities to JSON-safe values."""
    if isinstance(obj, dict):
        return {_key_str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    return obj


def _key_str(key) -> str:
    if isinstance(key, str):
        return key
    return json.dumps(to_jsonable(key))


def dumps_report(payload: dict) -> str:
    """Deterministic report serialization (sorted keys, no timestamps)."""
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"


def problem_to_dict(spec: ProblemSpec) -> dict:
    verify = None
    if spec.verify is not None:
        verify = {
            json.dumps(to_jsonable(f)): [float(v) for v in spec.verify[f].values]
            for f in spec.solutions
        }
    return {
        "kind": spec.kind,
        "domain": [to_jsonable(el) for el in spec.domain.elements],
        "dists": [[float(w) for w in d.weights] for d in spec.dists],
        "reference": None if spec.reference is None else [float(w) for w in spec.reference.weights],
        "solutions": [to_jsonable(f) for f in spec.solutions],
        "validity": [[bool(b) for b in row] for row in spec.validity],
        "verify": verify,
        "threshold": spec.threshold,
        "eps": spec.eps,
    }


def problem_from_dict(data: dict) -> ProblemSpec:
    domain = FiniteDomain(tuple(normalize_id(el) for el in data["domain"]))
    dists = tuple(FiniteDistribution(domain, np.array(row, dtype=float)) for row in data["dists"])
    reference = None
    if data.get("reference") is not None:
        reference = FiniteDistribution(domain, np.array(data["reference"], dtype=float))
    solutions = tuple(normalize_id(f) for f in data["solutions"])
    verify = None
    if data.get("verify") is not None:
        verify = {
            normalize_id(json.loads(key)): QueryFn(domain, np.array(vals, dtype=float), UNIT)
            for key, vals in data["verify"].items()
        }
    return ProblemSpec(
        kind=data["kind"],
        domain=domain,
        dists=dists,
        solutions=solutions,
        validity=np.array(data["validity"], dtype=bool),
        reference=reference,
        verify=verify,
        threshold=data.get("threshold"),
        eps=data.get("eps"),
    )


def load_problem(fp: IO[str] | str) -> ProblemSpec:
    if isinstance(fp, str):
        with open(fp) as handle:
            data = json.load(handle)
    else:
        data = json.load(fp)
    return problem_from_dict(data)
