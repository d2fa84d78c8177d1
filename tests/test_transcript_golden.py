"""Seeded oracle transcripts must not move.

Each golden file holds the ``Transcript.to_jsonl`` output of one seeded
search trial: deterministic K1 search on ``line_problem(5)`` at tau = 0.2
under exact, sampled, reference and edge answers (a different planted
member each), and square-root-scale (KV) search on ``biclique(4,2)`` at
tau = 0.15 with sampled VROOT answers, some of them invalid. The true
values, which ``to_jsonl`` leaves out, are pinned in
``transcript_true_values.json``.

To rewrite the files after an intended and logged change of transcripts:

    PYTHONPATH=src python -m tests.test_transcript_golden
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from sqlab import K1, KV, biclique, line_problem, solve_search_universal
from sqlab.oracles import (
    OracleSession,
    edge_answers,
    exact_answers,
    reference_answers,
    sampled_answers,
    stat,
    vroot,
)

_GOLDEN = Path(__file__).parent / "golden"
_TRUE_VALUES = _GOLDEN / "transcript_true_values.json"
#: strategy name -> the planted member of line_problem(5) it answers for
LINE_TRIALS = {"exact": 0, "sampled": 7, "reference": 12, "edge-up": 18, "edge-down": 24}


def _line_strategy(name, problem, ti):
    if name == "exact":
        return exact_answers()
    if name == "sampled":
        return sampled_answers(400)
    if name == "reference":
        # answers from the next member: valid until a query separates the two
        return reference_answers(problem.dists[(ti + 1) % problem.n_dists])
    return edge_answers(+1 if name == "edge-up" else -1)


def _line_case(name):
    problem, ti = line_problem(5), LINE_TRIALS[name]
    rng = np.random.default_rng([5, ti])
    session = OracleSession(stat(0.2 / 3.0), _line_strategy(name, problem, ti), problem.dists[ti], rng)
    solve_search_universal(problem, 0.2, session, kappa=K1)
    return session


def _kv_case():
    problem = biclique(4, 2)
    rng = np.random.default_rng(4)
    session = OracleSession(vroot(0.15 / 3.0), sampled_answers(300), problem.dists[3], rng)
    solve_search_universal(problem, 0.15, session, kappa=KV)
    return session


CASES = {
    **{f"transcript_line_5_{name}.jsonl": (lambda name=name: _line_case(name))
       for name in LINE_TRIALS},
    "transcript_biclique_4_2_kv_sampled.jsonl": _kv_case,
}


def _run(case):
    """The golden text of a case and its transcript's true values."""
    out, transcript = io.StringIO(), CASES[case]().transcript
    transcript.to_jsonl(out)
    return out.getvalue(), [e.true_value for e in transcript]


@pytest.mark.parametrize("case", sorted(CASES))
def test_transcripts_are_byte_identical_to_golden(case):
    text, true_values = _run(case)
    assert text == (_GOLDEN / case).read_text()
    assert true_values == json.loads(_TRUE_VALUES.read_text())[case]


if __name__ == "__main__":
    pinned = {}
    for case in sorted(CASES):
        text, pinned[case] = _run(case)
        (_GOLDEN / case).write_text(text)
    _TRUE_VALUES.write_text(json.dumps(pinned, indent=0) + "\n")
