"""Sample-driven streaming search: budget arithmetic, the capped stream,
bit-for-bit history replay, and the memory/sample ledger."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqlab import (
    FiniteDistribution,
    SampleStream,
    biclique,
    line_problem,
    replay_weights,
    stream_requirements,
    stream_solve,
)
from sqlab.errors import StreamExhaustedError
from sqlab.streaming import _sum_scan


def test_stream_requirements_frozen_biclique():
    prob = biclique(8, 2)
    req = stream_requirements(prob, tau=0.2, delta=0.1)
    assert req["q"] == 28
    assert req["t_budget"] == 2999
    assert req["delta_prime"] == pytest.approx(1.19e-6, rel=3e-3)
    # Hoeffding for the range-2 witness values: ceil(18 / tau^2 * ln(2 / delta'))
    assert req["n_est"] == 6451
    assert req["index_bits"] == 5
    assert req["counter_width"] == 13
    assert req["persistent_bound"] == 2999 * 6 + 13 == 18007
    # a run makes at most t_budget + 1 cover steps of at most q estimates
    assert req["samples_bound"] == 3000 * 28 * 6451 == 541884000


def test_stream_requirements_singleton_family():
    prob = biclique(4, 2)
    sub = type(prob)(
        kind=prob.kind,
        domain=prob.domain,
        dists=prob.dists[:1],
        solutions=prob.solutions[:1],
        validity=prob.validity[:1, :1],
        reference=prob.reference,
    )
    req = stream_requirements(sub, tau=0.2, delta=0.1)
    assert req["q"] == 1 and req["index_bits"] == 0 and req["r_kl"] == 1.0


def test_sample_stream_cap():
    dist = FiniteDistribution.uniform(biclique(4, 2).domain)
    stream = SampleStream(dist, np.random.default_rng(0), limit=100)
    block = stream.draw_block(60)
    assert block.shape == (60,)
    assert stream.drawn == 60
    stream.draw_block(40)
    with pytest.raises(StreamExhaustedError):
        stream.draw_block(1)


def test_sample_stream_count_path_cap():
    """The count path shares the block path's cap: a refused request draws
    nothing, so ``drawn`` and the rng stay as they were."""
    dist = FiniteDistribution.uniform(biclique(4, 2).domain)
    rng = np.random.default_rng(0)
    stream = SampleStream(dist, rng, limit=100)
    assert stream.draw_counts(60).sum() == 60 and stream.drawn == 60
    state = rng.bit_generator.state
    with pytest.raises(StreamExhaustedError):
        stream.draw_counts(41)
    assert stream.drawn == 60 and rng.bit_generator.state == state
    assert stream.draw_counts(40).sum() == 40 and stream.drawn == 100


@pytest.mark.parametrize(
    "build,args,buckets",
    [(biclique, (8, 2), 1024), (biclique, (4, 2), 32), (biclique, (6, 2), None), (line_problem, (5,), None)],
    ids=["biclique-8-2", "biclique-4-2", "biclique-6-2", "line-5"],
)
def test_sample_stream_counts_on_the_coarsest_dyadic_grid(build, args, buckets):
    """biclique(8,2) and biclique(4,2) members are multiples of 2^-10 and
    2^-5, so their streams sum rows from a bucket histogram; biclique(6,2)
    and line members lie on no grid of at most 2^10 buckets and sort their
    uniforms."""
    for dist in build(*args).dists:
        edges = SampleStream(dist, np.random.default_rng(0))._edges
        assert (None if edges is None else edges[-1]) == buckets


@pytest.mark.parametrize("n", [1, 7, 1613, 6451])
def test_stream_estimate_from_counts_is_bit_equal_to_the_block_mean(n):
    """For +-1 rows every partial sum is an exact integer, so the mean from
    the counts, and from the bucket histogram, has the bits of the mean
    over the block's samples."""
    prob = biclique(8, 2)
    rows = np.where(np.random.default_rng(n).random((5, len(prob.domain))) < 0.5, -1.0, 1.0)
    for dist in prob.dists[:4]:
        by_block = SampleStream(dist, np.random.default_rng([n, 1]))
        by_counts = SampleStream(dist, np.random.default_rng([n, 1]))
        by_sum = SampleStream(dist, np.random.default_rng([n, 1]))
        for phi in rows:
            mean = np.mean(phi[by_block.draw_block(n)])
            from_counts = by_counts.draw_counts(n) @ phi / n
            from_sum = by_sum.draw_sum(n, phi) / n
            assert np.float64(from_counts).tobytes() == np.float64(mean).tobytes()
            assert np.float64(from_sum).tobytes() == np.float64(mean).tobytes()
        assert by_sum.drawn == by_counts.drawn == by_block.drawn == 5 * n


_SUM_FAMILIES = {
    "biclique-8-2": (biclique(8, 2), 1024),
    "biclique-4-2": (biclique(4, 2), 32),
    "biclique-6-2": (biclique(6, 2), None),
    "line-5": (line_problem(5), None),
}


@pytest.mark.parametrize("family", list(_SUM_FAMILIES))
@pytest.mark.parametrize("n", [1, 7, 6451])
@given(member=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1), row_seed=st.integers(0, 2**32 - 1))
def test_draw_sum_is_the_counts_dot_the_row(family, n, member, seed, row_seed):
    """``draw_sum`` on a grid (biclique(8,2), 1024 buckets; biclique(4,2),
    32) sums the bucket histogram, off one (biclique(6,2), line(5)) the
    counts; either way it is ``draw_counts(n) @ phi`` bit for bit, from the
    same uniforms, and leaves the rng and ``drawn`` where counting does."""
    prob, buckets = _SUM_FAMILIES[family]
    dist = prob.dists[member % prob.n_dists]
    rows = np.where(np.random.default_rng(row_seed).random((3, len(prob.domain))) < 0.5, -1.0, 1.0)
    by_sum = SampleStream(dist, np.random.default_rng(seed))
    by_counts = SampleStream(dist, np.random.default_rng(seed))
    assert (None if by_sum._owner is None else by_sum._owner.size) == buckets
    for phi in rows:
        got = by_sum.draw_sum(n, phi)
        want = by_counts.draw_counts(n) @ phi
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert by_sum.drawn == by_counts.drawn == 3 * n
    assert by_sum.rng.bit_generator.state == by_counts.rng.bit_generator.state


@pytest.mark.parametrize("family", ["biclique-4-2", "line-5"])
def test_draw_sum_refused_by_the_cap_draws_nothing(family):
    """On and off a grid, a request past the cap raises before drawing:
    ``drawn`` and the rng stay as they were."""
    prob, _ = _SUM_FAMILIES[family]
    phi = np.ones(len(prob.domain))
    rng = np.random.default_rng(0)
    stream = SampleStream(prob.dists[1], rng, limit=100)
    assert stream.draw_sum(60, phi) == 60.0 and stream.drawn == 60
    state = rng.bit_generator.state
    with pytest.raises(StreamExhaustedError):
        stream.draw_sum(41, phi)
    assert stream.drawn == 60 and rng.bit_generator.state == state
    assert stream.draw_sum(40, -phi) == -40.0 and stream.drawn == 100


@pytest.mark.parametrize("bad", [0.0, 0.5, -2.0, np.nan])
def test_stream_scan_refuses_a_row_that_is_not_plus_minus_one(bad):
    """The histogram sum is the block mean only for integer rows, so the
    stream's scan takes +-1 rows alone, and refuses others before drawing."""
    prob = biclique(8, 2)
    rng = np.random.default_rng(0)
    stream = SampleStream(prob.dists[0], rng)
    block = np.ones((3, len(prob.domain)))
    block[1, 7] = bad
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"\+-1 witness rows"):
        _sum_scan(stream, 10)(block, lambda j, answer: False)
    assert stream.drawn == 0 and rng.bit_generator.state == state
    block[1, 7] = -1.0
    j, answers = _sum_scan(stream, 10)(block, lambda j, answer: False)
    assert j is None and answers.shape == (3,) and stream.drawn == 30


def test_sample_stream_values_and_determinism():
    dom = biclique(4, 2).domain
    dist = FiniteDistribution.uniform(dom)
    a = SampleStream(dist, np.random.default_rng(3)).draw_block(500)
    b = SampleStream(dist, np.random.default_rng(3)).draw_block(500)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < len(dom)


def test_stream_solve_biclique_run():
    prob = biclique(8, 2)
    true = prob.dists[4]
    stream = SampleStream(true, np.random.default_rng(0))
    rep = stream_solve(prob, tau=0.2, delta=0.1, stream=stream)
    assert rep["outcome"] == "solved"
    assert rep["solution"] == prob.solutions[4]
    ledger = rep["ledger"]
    assert ledger["within_bound"]
    assert ledger["persistent_bits"] <= ledger["persistent_bound"]
    assert ledger["samples"] == ledger["estimates"] * ledger["n_est"]
    assert ledger["samples"] <= ledger["samples_bound"]
    assert ledger["peak_bits"] > ledger["persistent_bits"]


def test_stream_solve_history_replays_bitwise():
    """The mixture must be a pure function of the persistent history —
    that is what lets the ledger charge it to scratch memory."""
    prob = biclique(8, 2)
    true = prob.dists[10]
    stream = SampleStream(true, np.random.default_rng(7))
    rep = stream_solve(prob, tau=0.2, delta=0.1, stream=stream)
    assert rep["outcome"] == "solved"
    assert rep["updates"] == len(rep["history"])
    replayed = replay_weights(prob, 0.2, rep["history"])
    # rerun the same stream to capture the final internal mixture
    stream2 = SampleStream(true, np.random.default_rng(7))
    rep2 = stream_solve(prob, tau=0.2, delta=0.1, stream=stream2)
    assert rep2["history"] == rep["history"]
    # the replay must reconstruct a mixture under which the solved member
    # is within tau of every recorded witness direction; more simply, a
    # second replay is bitwise identical
    again = replay_weights(prob, 0.2, rep["history"])
    assert np.array_equal(replayed, again)
    assert replayed.sum() == pytest.approx(1.0, abs=1e-12)


def test_stream_solve_history_is_plain_json():
    """The history holds Python ints, the cover step's targets and the
    trigger signs, so a report writes it as JSON."""
    prob = biclique(8, 2)
    rep = stream_solve(prob, tau=0.2, delta=0.1, stream=SampleStream(prob.dists[3], np.random.default_rng(2)))
    assert rep["updates"] > 0
    assert json.loads(json.dumps(rep["history"])) == [list(h) for h in rep["history"]]
    assert all(type(i) is int and type(s) is int for i, s in rep["history"])


def test_stream_solve_deterministic_under_seed():
    prob = biclique(8, 2)
    true = prob.dists[0]
    reps = []
    for _ in range(2):
        stream = SampleStream(true, np.random.default_rng(11))
        reps.append(stream_solve(prob, tau=0.2, delta=0.1, stream=stream))
    assert reps[0]["solution"] == reps[1]["solution"]
    assert reps[0]["history"] == reps[1]["history"]
    assert reps[0]["ledger"] == reps[1]["ledger"]


def test_stream_solve_exhaustion_propagates():
    prob = biclique(8, 2)
    stream = SampleStream(prob.dists[0], np.random.default_rng(0), limit=10)
    with pytest.raises(StreamExhaustedError):
        stream_solve(prob, tau=0.2, delta=0.1, stream=stream)


def test_replay_weights_matches_manual_updates():
    prob = biclique(4, 2)
    history = [(0, 1), (3, -1), (0, 1)]
    w = replay_weights(prob, 0.3, history)
    gamma = 0.1
    from sqlab import mixture

    manual = mixture(list(prob.dists)).weights.copy()
    for target, sign in history:
        diff = prob.dists[target].weights - manual
        phi = np.where(diff >= 0, 1.0, -1.0)
        manual = manual * (1.0 - gamma * sign * phi)
        manual = manual / manual.sum()
    assert np.array_equal(w, manual)


@pytest.mark.parametrize("budget,outcome", [(3, "solved"), (2, "budget_exceeded")])
def test_stream_solve_budget_rule(budget, outcome):
    """The stream follows the search rule: this run needs exactly 3 updates,
    so with t_budget = 3 the confirming step runs and solves it (its 4 cover
    steps draw more than t_budget * q * n_est samples, which the
    (t_budget + 1) * q * n_est bound counts); with t_budget = 2 the third
    trigger ends the run and is neither applied nor recorded."""
    prob = biclique(4, 2)
    tau = 0.2
    kl_bound = (budget - 0.5) * tau**2 / 36.0
    req = stream_requirements(prob, tau, 0.1, kl_bound)
    assert req["t_budget"] == budget
    stream = SampleStream(prob.dists[0], np.random.default_rng(1))
    rep = stream_solve(prob, tau, 0.1, stream, kl_bound=kl_bound)
    assert (rep["outcome"], rep["updates"]) == (outcome, budget)
    assert len(rep["history"]) == budget
    ledger = rep["ledger"]
    assert ledger["within_bound"]
    assert ledger["samples"] == ledger["estimates"] * req["n_est"]
    if outcome == "solved":
        assert rep["solution"] == prob.solutions[0]
        assert ledger["samples"] > budget * req["q"] * req["n_est"]
    else:
        assert rep["solution"] is None and rep["budget"] == budget
