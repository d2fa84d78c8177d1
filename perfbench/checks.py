"""Output checks, run after the timed loop and built apart from sqlab.

``dims`` reports are recomputed with ``scipy.optimize.linprog`` (HiGHS): the
achievable family from HiGHS max-margin LPs, ``rsd_decision`` from a HiGHS
cover LP, ``sd_decision`` by enumerating subfamilies of that family, and
``crsd`` from a HiGHS game LP over the sign queries. The solver workloads are
checked against the guarantees they promise. Every check returns a list of
``(record index, message)`` problems for operations that broke a guarantee,
plus a list of run-level problems.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from workloads import DELTA, DIMS_REPORTS, TAU

_AGREE = 1e-6
_STRICT_EPS = 1e-9  # sqlab.games.STRICT_EPS: achievable means margin >= tau + 1e-9
_CRSD_DOMAIN_GUARD = 16


def _instance(flags):
    from sqlab import biclique, line_problem

    args = dict(zip(flags[::2], flags[1::2]))
    if args["--gen"] == "biclique":
        return biclique(int(args["--n"]), int(args["--k"]), kind="decision")
    return line_problem(int(args["--p"]), kind="decision")


def _highs(c, **kwargs):
    from scipy.optimize import linprog

    res = linprog(c, method="highs", **kwargs)
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return res


def _highs_margin(g: np.ndarray) -> float:
    """max t over phi in [-1,1]^n subject to <phi, g_i> >= t for every row."""
    k, n = g.shape
    c = np.zeros(n + 1)
    c[n] = -1.0
    a_ub = np.hstack([-g, np.ones((k, 1))])
    bounds = [(-1.0, 1.0)] * n + [(None, None)]
    return -_highs(c, A_ub=a_ub, b_ub=np.zeros(k), bounds=bounds).fun


def _highs_family(diff: np.ndarray, tau: float) -> list[frozenset]:
    """Maximal subsets some single query separates from the center by > tau."""
    m = diff.shape[0]
    threshold = tau + _STRICT_EPS
    frontier = [((i, 1),) for i in range(m) if _highs_margin(diff[[i]]) >= threshold]
    achievable = set()
    while frontier:
        achievable.update(frozenset(i for i, _ in signed) for signed in frontier)
        grown = []
        for signed in frontier:
            for j in range(signed[-1][0] + 1, m):
                for sign in (1, -1):
                    cand = signed + ((j, sign),)
                    g = np.array([s * diff[i] for i, s in cand])
                    if _highs_margin(g) >= threshold:
                        grown.append(cand)
        frontier = grown
    return [s for s in achievable if not any(s < other for other in achievable)]


def _reference_dims(flags, tau: float) -> dict:
    problem = _instance(flags)
    d0 = problem.reference.weights
    diff = np.array([d.weights - d0 for d in problem.dists])
    m, n = diff.shape
    family = _highs_family(diff, tau)
    covered = set().union(*family) if family else set()
    if len(covered) < m:
        rsd = sd = math.inf
    else:
        incidence = np.array([[1.0 if i in s else 0.0 for s in family] for i in range(m)])
        rsd = _highs(np.ones(len(family)), A_ub=-incidence, b_ub=-np.ones(m)).fun
        sd = max(
            len(t) / max(len(s & set(t)) for s in family)
            for r in range(1, m + 1)
            for t in itertools.combinations(range(m), r)
        )
    out = {"rsd_decision": rsd, "sd_decision": sd, "crsd": None}
    if n <= _CRSD_DOMAIN_GUARD:
        sigmas = np.array([(*signs, 1.0) for signs in itertools.product((1.0, -1.0), repeat=n - 1)])
        payoff = np.abs(sigmas @ diff.T)  # rows: sign queries, columns: members
        rows = payoff.shape[0]
        # max v s.t. payoff^T x >= v, sum x = 1, x >= 0
        c = np.zeros(rows + 1)
        c[rows] = -1.0
        a_ub = np.hstack([-payoff.T, np.ones((m, 1))])
        a_eq = np.zeros((1, rows + 1))
        a_eq[0, :rows] = 1.0
        bounds = [(0.0, None)] * rows + [(None, None)]
        value = -_highs(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=[1.0], bounds=bounds).fun
        out["crsd"] = 1.0 / value
    return out


def _agrees(reported, expected) -> bool:
    if reported == "inf":
        return math.isinf(expected)
    if not isinstance(reported, (int, float)) or math.isinf(expected):
        return False
    return abs(reported - expected) <= _AGREE * max(1.0, abs(expected))


def check_dims(records: list[dict]) -> tuple[list, list]:
    references: dict[int, dict] = {}
    verdicts: dict[tuple, list[str]] = {}
    bad = []
    for idx, rec in enumerate(records):
        key = (rec["op"], rec["exit"], rec["report"])
        if key not in verdicts:
            verdicts[key] = _dims_problems(rec, references)
        bad.extend((idx, msg) for msg in verdicts[key])
    return bad, []


def _dims_problems(rec: dict, references: dict) -> list[str]:
    flags, tau = DIMS_REPORTS[rec["op"]]
    if rec["exit"] != 0:
        return [f"exit code {rec['exit']}"]
    report = json.loads(rec["report"])
    if rec["op"] not in references:
        references[rec["op"]] = _reference_dims(flags, tau)
    ref = references[rec["op"]]
    problems = []
    for name in ("rsd_decision", "sd_decision", "crsd"):
        entry = report.get(name, {})
        if ref[name] is None:
            if "skipped" not in entry:
                problems.append(f"{name} should be skipped by the domain guard")
        elif not _agrees(entry.get("value"), ref[name]):
            problems.append(f"{name} = {entry.get('value')!r}, HiGHS gives {ref[name]!r}")
    rsd, sd = (report.get(name, {}).get("value") for name in ("rsd_decision", "sd_decision"))
    if problems or rsd is None or sd is None:
        return problems
    as_float = lambda v: math.inf if v == "inf" else v  # noqa: E731
    if as_float(sd) > as_float(rsd) + _AGREE:
        problems.append(f"sd_decision {sd} exceeds rsd_decision {rsd}")
    return problems


def _success_share(records: list[dict]) -> list[str]:
    share = sum(r["correct"] for r in records) / len(records)
    if share < 1.0 - DELTA:
        return [f"share of correct trials {share:.3f} is below 1 - delta = {1.0 - DELTA}"]
    return []


def _search_problems(rec: dict, budget: int, must_be_correct: bool) -> list[str]:
    problems = []
    if rec["theorem_violation"]:
        problems.append("theorem violation flagged")
    if rec["valid_answer_fraction"] != 1.0:
        problems.append(f"valid answer fraction {rec['valid_answer_fraction']}")
    if rec["updates"] > budget:
        problems.append(f"{rec['updates']} updates exceed the budget {budget}")
    if rec["outcome"] != "solved":
        problems.append(f"outcome {rec['outcome']}")
    if must_be_correct and not rec["correct"]:
        problems.append("planted solution not returned")
    return problems


def _update_budget(q: int) -> int:
    return math.ceil(36.0 * math.log(q) / TAU**2)


def check_search_det(records: list[dict], q: int) -> tuple[list, list]:
    budget = _update_budget(q)
    return [(i, m) for i, r in enumerate(records) for m in _search_problems(r, budget, True)], []


def check_search_rand(records: list[dict], q: int) -> tuple[list, list]:
    budget = _update_budget(q)
    bad = [(i, m) for i, r in enumerate(records) for m in _search_problems(r, budget, False)]
    return bad, _success_share(records)


def check_stream(records: list[dict], q: int) -> tuple[list, list]:
    index_bits = math.ceil(math.log2(q))
    bad = []
    for idx, rec in enumerate(records):
        led = rec["ledger"]
        problems = []
        if led["samples"] != led["estimates"] * led["n_est"]:
            problems.append(f"{led['samples']} samples != {led['estimates']} estimates x {led['n_est']}")
        if led["persistent_bits"] != rec["updates"] * (index_bits + 1) + math.ceil(math.log2(led["n_est"] + 1)):
            problems.append(f"persistent bits {led['persistent_bits']} do not match the history")
        if not (led["within_bound"] and led["persistent_bits"] <= led["persistent_bound"]
                and led["samples"] <= led["samples_bound"]):
            problems.append("ledger outside its bounds")
        if rec["outcome"] not in ("solved", "budget_exceeded"):
            problems.append(f"outcome {rec['outcome']}")
        bad.extend((idx, m) for m in problems)
    return bad, _success_share(records)


def check(workload, records: list[dict]) -> tuple[list, list]:
    """Return (per-operation problems, run-level problems) for a run."""
    if workload.name == "dims":
        return check_dims(records)
    q = workload.problem.n_dists
    return {
        "search_det": check_search_det,
        "search_rand": check_search_rand,
        "stream": check_stream,
    }[workload.name](records, q)
