"""The four benchmark workloads.

Each workload is a closed loop: one caller runs one operation at a time. A
*round* is a fixed list of operations whose order (and, for the solver
workloads, the trial RNG) comes from ``--seed``; a run repeats whole rounds,
so every round of a run does exactly the same work. The constructor is the
set-up a user pays once per process: instance generation and per-instance
precomputation.

``run_op`` returns a small record of the operation's output; the checks in
``checks.py`` read these records after the timed loop has ended.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

TAU = 0.2
DELTA = 0.1

#: ``sqlab dims --kind decision`` reports: (generator flags, tau). Each report
#: takes 15-250 ms on a 2-core x86 VM; ``biclique(4,2)`` (about 1.5 s) and
#: ``biclique(5,2)`` (7 s to 140 s) are left out. The count is odd and the
#: two ``line_problem(2)`` reports sit in the middle of the latency order, so
#: the median latency of a run falls inside one cluster of similar reports
#: rather than in the gap between two unlike ones.
DIMS_REPORTS = [
    (("--gen", "biclique", "--n", "3", "--k", "1"), 0.2),
    (("--gen", "biclique", "--n", "3", "--k", "2"), 0.2),
    (("--gen", "biclique", "--n", "4", "--k", "1"), 0.1),
    (("--gen", "biclique", "--n", "4", "--k", "1"), 0.2),
    (("--gen", "biclique", "--n", "4", "--k", "3"), 0.2),
    (("--gen", "biclique", "--n", "5", "--k", "1"), 0.1),
    (("--gen", "biclique", "--n", "5", "--k", "4"), 0.2),
    (("--gen", "line", "--p", "2"), 0.1),
    (("--gen", "line", "--p", "2"), 0.2),
]


class Dims:
    """One in-process ``sqlab dims --kind decision`` report per operation."""

    name = "dims"
    trace_rounds = 4

    def __init__(self, seed: int):
        from sqlab import cli

        self._main = cli.main
        order = np.random.default_rng(seed).permutation(len(DIMS_REPORTS))
        self.round = [int(i) for i in order]

    def run_op(self, op: int):
        flags, tau = DIMS_REPORTS[op]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self._main(["dims", *flags, "--kind", "decision", "--tau", repr(tau)])
        return {"op": op, "exit": code, "report": out.getvalue()}


class _Search:
    """Seeded ``solve_search_universal`` trials, one per planted member
    (every ``stride``-th member)."""

    mode = "det"
    stride = 1

    def __init__(self, seed: int):
        from sqlab import solve_search_universal
        from sqlab.oracles import OracleSession, exact_answers, stat

        self._solve = solve_search_universal
        self._session = lambda dist, rng: OracleSession(stat(TAU / 3.0), exact_answers(), dist, rng)
        self.problem = self.build()
        self.seed = seed
        members = np.arange(0, self.problem.n_dists, self.stride)
        self.round = [int(i) for i in np.random.default_rng(seed).permutation(members)]

    def run_op(self, ti: int):
        rng = np.random.default_rng([self.seed, ti])
        session = self._session(self.problem.dists[ti], rng)
        if self.mode == "rand":
            rep = self._solve(self.problem, TAU, session, mode="rand", delta=DELTA, rng=rng)
        else:
            rep = self._solve(self.problem, TAU, session)
        return {
            "op": ti,
            "outcome": rep.outcome,
            "correct": rep.solution == self.problem.solutions[ti],
            "updates": rep.updates,
            "queries": rep.queries,
            "valid_answer_fraction": rep.valid_answer_fraction,
            "theorem_violation": rep.theorem_violation,
        }


class SearchDet(_Search):
    """Deterministic search on ``line_problem(11)`` at tau = 0.2.

    A round takes every fourth of the 121 lines (31 trials, 7-160 ms each,
    about 3 s), so a run repeats each trial several times.
    """

    name = "search_det"
    stride = 4
    trace_rounds = 2

    @staticmethod
    def build():
        from sqlab import line_problem

        return line_problem(11)


class SearchRand(_Search):
    """Randomized search (delta = 0.1) on ``biclique(4,2)`` at tau = 0.2."""

    name = "search_rand"
    mode = "rand"
    trace_rounds = 2

    @staticmethod
    def build():
        from sqlab import biclique

        return biclique(4, 2)


class Stream:
    """Seeded ``stream_solve`` trials on ``biclique(8,2)``, tau 0.2, delta 0.1."""

    name = "stream"
    trace_rounds = 8

    def __init__(self, seed: int):
        from sqlab import biclique
        from sqlab.streaming import SampleStream, stream_solve

        self._stream, self._solve = SampleStream, stream_solve
        self.problem = biclique(8, 2)
        self.seed = seed
        order = np.random.default_rng(seed).permutation(self.problem.n_dists)
        self.round = [int(i) for i in order]

    def run_op(self, ti: int):
        rng = np.random.default_rng([self.seed, ti])
        rep = self._solve(self.problem, TAU, DELTA, self._stream(self.problem.dists[ti], rng))
        return {
            "op": ti,
            "outcome": rep["outcome"],
            "correct": rep["solution"] == self.problem.solutions[ti],
            "updates": rep["updates"],
            "ledger": rep["ledger"],
        }


WORKLOADS = {w.name: w for w in (Dims, SearchDet, SearchRand, Stream)}
