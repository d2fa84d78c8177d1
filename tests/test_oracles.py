"""Oracle answer/validity semantics, transcripts, and the tolerance bridge."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqlab import (
    FiniteDistribution,
    OracleSession,
    QueryFn,
    bridge_pair,
    bridge_value,
    edge_answers,
    biclique,
    exact_answers,
    line_problem,
    one_stat_spec,
    reference_answers,
    sampled_answers,
    stat,
    vroot,
    vstat,
)
from sqlab.core import draw_indices, dyadic_edges
from sqlab.errors import SqlabError
from sqlab.oracles import tolerance, valid_answers, validate

from tests.util import small_domain


def _dist(weights):
    w = np.asarray(weights, dtype=float)
    return FiniteDistribution(small_domain(len(w)), w)


# ---------------------------------------------------------------------------
# spec validation and tolerances
# ---------------------------------------------------------------------------


def test_spec_parameter_validation():
    with pytest.raises(ValueError):
        stat(0.0)
    with pytest.raises(ValueError):
        stat(2.5)
    with pytest.raises(ValueError):
        vstat(0.5)
    with pytest.raises(ValueError):
        vroot(1.5)
    with pytest.raises(ValueError):
        one_stat_spec(0)


def test_tolerance_values():
    assert tolerance(stat(0.3), 0.9) == pytest.approx(0.3)
    # weak per-value guarantee: max{1/n, sqrt(p/n)}
    assert tolerance(vstat(100), 0.01) == pytest.approx(0.01)
    assert tolerance(vstat(100), 0.25) == pytest.approx(0.05)
    assert tolerance(vstat(100), 0.0) == pytest.approx(0.01)
    # strict variant uses the variance p(1-p)
    assert tolerance(vstat(100, strict=True), 0.5) == pytest.approx(0.05)
    assert tolerance(vstat(100, strict=True), 0.99) == pytest.approx(0.01)
    assert tolerance(vstat(100, strict=True), 0.99) < tolerance(vstat(100), 0.99)


def test_validate_frozen_examples():
    # sqrt-scale: |sqrt(0.25) - sqrt(0.3)| = 0.0477... <= 0.1
    assert validate(vroot(0.1), 0.3, 0.25)
    assert not validate(vroot(0.04), 0.3, 0.25)
    # negative answers are never valid on the sqrt scale
    assert not validate(vroot(0.5), 0.01, -1e-6)
    assert validate(vstat(100), 0.01, 0.02)
    assert not validate(vstat(100), 0.01, 0.0201)
    assert validate(stat(0.1), 0.5, 0.6)
    assert not validate(stat(0.1), 0.5, 0.61)


def _scalar_rule(spec, p, v):
    """The validity rule written out per answer with ``math``."""
    if spec.kind == "vroot":
        return v >= 0 and abs(math.sqrt(v) - math.sqrt(max(p, 0.0))) <= spec.tau + 1e-12
    if spec.kind == "vstat":
        spread = p * (1.0 - p) if spec.vstat_strict else p
        tol = max(1.0 / spec.n, math.sqrt(max(spread, 0.0) / spec.n))
    else:
        tol = spec.tau
    return abs(v - p) <= tol + 1e-12


@pytest.mark.parametrize(
    "spec", [stat(0.1), vstat(100), vstat(1e6), vstat(100, strict=True), vroot(0.05), vroot(0.5)],
    ids=lambda s: f"{s.kind}{'-strict' if s.vstat_strict else ''}-{s.param:g}",
)
def test_valid_answers_match_the_scalar_rule_at_the_boundary(spec):
    """Answers a few ulps either side of the tolerance boundary and of the
    boundary plus the 1e-12 slack, at small and large true values (VSTAT's
    tolerance turns at p = 1/n), with negative answers on the square-root
    scale."""
    p = np.array([0.0, 1e-9, 1e-6, 1e-4, 0.003, 0.01, 0.25, 0.5, 0.97, 1.0])
    edges = []
    for slack in (0.0, 1e-12):
        for d in (-1, 1):
            if spec.kind == "vroot":
                edges.append(np.maximum(np.sqrt(p) + d * (spec.tau + slack), 0.0) ** 2)
            else:
                edges.append(p + d * (np.array([tolerance(spec, x) for x in p]) + slack))
    if spec.kind == "vroot":
        edges.append(np.full_like(p, -1e-300))
    pp, vv = [], []
    for edge in edges:
        for ulps in range(-3, 4):
            shifted = edge.copy()
            for _ in range(abs(ulps)):
                shifted = np.nextafter(shifted, np.inf if ulps > 0 else -np.inf)
            pp.append(p)
            vv.append(shifted)
    pp, vv = np.concatenate(pp), np.concatenate(vv)
    got = valid_answers(spec, pp, vv)
    want = [_scalar_rule(spec, float(a), float(b)) for a, b in zip(pp, vv)]
    assert got.tolist() == want
    assert [validate(spec, float(a), float(b)) for a, b in zip(pp, vv)] == want
    assert any(want) and not all(want)


# ---------------------------------------------------------------------------
# answer strategies
# ---------------------------------------------------------------------------


def test_exact_answers_return_expectations():
    d = _dist([0.2, 0.3, 0.5])
    phi = QueryFn.indicator(d.domain, [(0,), (2,)])
    session = OracleSession(stat(0.1), exact_answers(), d)
    assert session.query(phi) == pytest.approx(0.7)
    assert session.query_count == 1
    assert session.transcript.valid_fraction == 1.0


def test_edge_answers_sit_on_the_boundary_and_stay_valid():
    d = _dist([0.01, 0.99])
    phi = QueryFn.indicator(d.domain, [(0,)])  # true value 0.01
    up = OracleSession(vstat(100), edge_answers(+1), d)
    assert up.query(phi) == pytest.approx(0.02)
    down = OracleSession(vstat(100), edge_answers(-1), d)
    assert down.query(phi) == pytest.approx(0.0)
    for session in (up, down):
        assert session.transcript.valid_fraction == 1.0


@pytest.mark.parametrize("spec", [stat(0.17), vstat(50), vstat(50, strict=True), vroot(0.2)])
@pytest.mark.parametrize("direction", [+1, -1])
def test_edge_answers_valid_for_every_spec(spec, direction):
    for p in [0.0, 0.003, 0.1, 0.5, 0.97, 1.0]:
        d = _dist([p, 1.0 - p])
        phi = QueryFn.indicator(d.domain, [(0,)])
        session = OracleSession(spec, edge_answers(direction), d)
        session.query(phi)
        assert session.transcript.entries[0].valid, (spec.kind, direction, p)


@pytest.mark.parametrize("spec", [stat(0.17), vstat(50), vstat(50, strict=True), vroot(0.2)])
@pytest.mark.parametrize("direction", [+1, -1])
def test_edge_answers_are_the_scalar_boundary_formula(spec, direction):
    """Edge answers for a whole block equal the per-answer formula in
    Python floats, bit for bit (on the square-root scale Python's power
    and numpy's square differ in the last bit on some inputs)."""
    d = _dist([0.3, 0.7])
    block = np.random.default_rng(12).random((5000, 2))
    session = OracleSession(spec, edge_answers(direction), d)
    _, got = session.scan(block)
    want = []
    for p in [e.true_value for e in session.transcript]:
        if spec.kind == "vroot":
            want.append(max(math.sqrt(max(p, 0.0)) + direction * spec.tau, 0.0) ** 2)
        else:
            want.append(p + direction * tolerance(spec, p))
    assert got.tolist() == want


def test_sampled_answers_are_empirical_means_and_deterministic():
    d = _dist([0.25, 0.75])
    phi = QueryFn.indicator(d.domain, [(1,)])
    s1 = OracleSession(stat(0.2), sampled_answers(400), d, np.random.default_rng(5))
    s2 = OracleSession(stat(0.2), sampled_answers(400), d, np.random.default_rng(5))
    v1, v2 = s1.query(phi), s2.query(phi)
    assert v1 == v2
    assert v1 * 400 == pytest.approx(round(v1 * 400))  # a mean of 0/1 draws
    assert s1.samples_used == 400
    # validity is recomputed against the true value
    entry = s1.transcript.entries[0]
    assert entry.valid == (abs(v1 - 0.75) <= 0.2 + 1e-9)


@pytest.mark.parametrize("family", ["biclique-8-2", "line-5"])
@pytest.mark.parametrize("rows", ["signed", "unit", "real"])
def test_sampled_answers_are_the_means_of_a_twin_draw(family, rows):
    """A sampled answer is the row's mean over the samples ``draw_indices``
    draws from a twin rng: bit for bit on +-1 and 0/1 rows, where every
    partial sum is exact, on a dyadic grid (biclique(8,2)) and off one
    (line(5)); within rounding on real-valued rows. The rng and the sample
    count end where the twin's do."""
    prob = biclique(8, 2) if family == "biclique-8-2" else line_problem(5)
    dist = prob.dists[1]
    assert (dyadic_edges(np.cumsum(dist.weights)) is None) == (family == "line-5")
    u = np.random.default_rng(3).random((4, len(prob.domain)))
    block = {"signed": np.where(u < 0.5, -1.0, 1.0), "unit": (u < 0.5) * 1.0, "real": 2 * u - 1}[rows]
    spec = vstat(40) if rows == "unit" else stat(0.1)
    session = OracleSession(spec, sampled_answers(6451), dist, np.random.default_rng(8))
    twin = np.random.default_rng(8)
    _, got = session.scan(block)
    want = np.array([row[draw_indices(dist.weights, twin, 6451)].mean() for row in block])
    if rows == "real":
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert got.tobytes() == want.tobytes()
    assert session.rng.bit_generator.state == twin.bit_generator.state
    assert session.samples_used == 4 * 6451


def test_sampled_session_without_an_rng_refuses_to_scan():
    d = _dist([0.25, 0.75])
    session = OracleSession(stat(0.2), sampled_answers(10), d)
    with pytest.raises(ValueError, match="sampled answers need an rng"):
        session.scan(np.array([[1.0, -1.0]]))
    assert session.query_count == 0
    assert session.samples_used == 0


def test_reference_answers_ignore_the_true_distribution():
    d = _dist([0.9, 0.1])
    d0 = _dist([0.5, 0.5])
    phi = QueryFn.indicator(d.domain, [(0,)])
    session = OracleSession(stat(0.1), reference_answers(d0), d)
    assert session.query(phi) == pytest.approx(0.5)
    # 0.5 is 0.4 away from the true 0.9: recorded as invalid
    assert not session.transcript.entries[0].valid
    assert session.transcript.valid_fraction == 0.0


def test_range_checks():
    d = _dist([0.5, 0.5])
    signed = QueryFn(d.domain, np.array([-1.0, 1.0]), "signed")
    session = OracleSession(vstat(10), exact_answers(), d)
    with pytest.raises(ValueError):
        session.query(signed)
    too_big = np.array([1.5, 0.0])
    with pytest.raises(ValueError):
        OracleSession(stat(0.1), exact_answers(), d).query(too_big)


@pytest.mark.parametrize("spec", [stat(0.1), vroot(0.1)], ids=lambda s: s.kind)
def test_nan_queries_are_refused_not_recorded(spec):
    """NaN is outside every range; the range check refuses it as it refuses
    1.5, for a value vector and for a row of a 2-D block."""
    d = _dist([0.5, 0.5])
    session = OracleSession(spec, exact_answers(), d)
    with pytest.raises(ValueError):
        session.query(np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        session.scan(np.array([[0.5, 0.5], [np.nan, 0.5]]))
    assert session.query_count == 0


# ---------------------------------------------------------------------------
# block answers
# ---------------------------------------------------------------------------

_BLOCK_DIST = [0.05, 0.15, 0.3, 0.2, 0.1, 0.2]
_BLOCK_REF = [0.2, 0.1, 0.1, 0.3, 0.2, 0.1]


def _block(kind, rows=7):
    """A mixed block for ``kind``: value vectors and QueryFns in range."""
    d = _dist(_BLOCK_DIST)
    values = np.random.default_rng(11).random((rows, len(_BLOCK_DIST)))
    if kind == "stat":
        values = 2.0 * values - 1.0
    tag = "signed" if kind == "stat" else "unit"
    return [QueryFn(d.domain, v, tag) if i % 2 else v for i, v in enumerate(values)]


def _strategies():
    return [
        exact_answers(),
        sampled_answers(50),
        reference_answers(_dist(_BLOCK_REF)),
        edge_answers(+1),
        edge_answers(-1),
    ]


@pytest.mark.parametrize("spec", [stat(0.1), vstat(40), vroot(0.1)], ids=lambda s: s.kind)
@pytest.mark.parametrize("strategy", _strategies(), ids=lambda s: f"{s.mode}{s.direction:+d}")
@pytest.mark.parametrize("as_array", [False, True], ids=["rows", "array"])
def test_block_answers_match_per_row_queries(spec, strategy, as_array):
    d = _dist(_BLOCK_DIST)
    block = _block(spec.kind)
    if as_array:
        block = np.array([q.values if isinstance(q, QueryFn) else q for q in block])
    one = OracleSession(spec, strategy, d, np.random.default_rng(4))
    twin = OracleSession(spec, strategy, d, np.random.default_rng(4))
    j, got = one.scan(block)
    want = [twin.query(q) for q in block]
    assert j is None
    assert got.tolist() == want
    assert one.transcript.entries == twin.transcript.entries
    assert one.samples_used == twin.samples_used
    assert one.rng.random() == twin.rng.random()


@pytest.mark.parametrize("stop", [0, 1, 4])
def test_block_answers_record_only_consumed_rows(stop):
    d = _dist(_BLOCK_DIST)
    block = _block("stat")
    one = OracleSession(stat(0.1), sampled_answers(30), d, np.random.default_rng(9))
    twin = OracleSession(stat(0.1), sampled_answers(30), d, np.random.default_rng(9))
    j, got = one.scan(block, lambda rows, answers: np.asarray(rows) == stop)
    want = [twin.query(q) for q in block[: stop + 1]]
    assert j == stop
    assert got.tolist() == want
    assert one.query_count == stop + 1
    assert one.transcript.entries == twin.transcript.entries
    assert one.samples_used == twin.samples_used == 30 * (stop + 1)
    assert one.rng.random() == twin.rng.random()


def test_bad_blocks_raise_before_any_answer():
    d = _dist(_BLOCK_DIST)
    good = _block("vstat")
    signed = QueryFn(d.domain, np.array([-1.0, 1.0, 0.0, 0.0, 0.0, 0.0]), "signed")
    other = QueryFn(small_domain(5), np.full(5, 0.5), "unit")
    bad_blocks = [
        (good + [np.full(6, 1.5)], ValueError),  # out of range after the first rows
        (good + [signed], ValueError),  # a SIGNED QueryFn for VSTAT
        (good + [np.full(5, 0.5)], SqlabError),  # a row of the wrong length
        (good + [other], SqlabError),  # a query over another domain
        (np.full((3, 5), 0.5), SqlabError),  # a 2-D block of the wrong width
        (np.full(6, 0.5), SqlabError),  # one vector is not a block
    ]
    for block, error in bad_blocks:
        session = OracleSession(vstat(40), sampled_answers(20), d, np.random.default_rng(2))
        with pytest.raises(error):
            session.scan(block)
        assert session.query_count == 0
        assert session.samples_used == 0
        assert session.rng.random() == np.random.default_rng(2).random()


def test_empty_block_answers_nothing():
    d = _dist(_BLOCK_DIST)
    session = OracleSession(stat(0.1), exact_answers(), d)
    for block in ([], np.zeros((0, 6))):
        j, answers = session.scan(block, lambda rows, a: np.ones(len(rows), dtype=bool))
        assert j is None and answers.size == 0
    assert session.query_count == 0


@pytest.mark.parametrize("spec", [stat(0.1), vstat(40), vroot(0.1)], ids=lambda s: s.kind)
@pytest.mark.parametrize("strategy", _strategies(), ids=lambda s: f"{s.mode}{s.direction:+d}")
@pytest.mark.parametrize("stop_at", [0, 1, 4, None], ids=["row0", "row1", "row4", "never"])
def test_scan_matches_per_row_answers(spec, strategy, stop_at):
    """``scan`` records, draws and answers exactly what asking the rows
    one ``query`` at a time up to the same stop does."""
    d = _dist(_BLOCK_DIST)
    block = _block(spec.kind)
    one = OracleSession(spec, strategy, d, np.random.default_rng(6))
    twin = OracleSession(spec, strategy, d, np.random.default_rng(6))

    def stop(rows, answers):
        return (np.asarray(rows) == stop_at) & (np.asarray(answers) > -np.inf)

    j, got = one.scan(block, stop)
    want = []
    for i, q in enumerate(block):
        want.append(twin.query(q))
        if i == stop_at:
            break
    assert j == stop_at
    assert got.tolist() == want
    assert one.query_count == len(want) == (len(block) if stop_at is None else stop_at + 1)
    assert one.transcript.entries == twin.transcript.entries
    assert one.samples_used == twin.samples_used
    assert one.rng.random() == twin.rng.random()


def test_scan_stops_on_the_answers():
    """The predicate sees the answers: the first exact answer above 0.5."""
    d = _dist(_BLOCK_DIST)
    block = np.array([q.values if isinstance(q, QueryFn) else q for q in _block("vstat")])
    true_values = block @ d.weights
    session = OracleSession(vstat(40), exact_answers(), d)
    j, answers = session.scan(block, lambda rows, a: a > 0.5)
    first = int(np.flatnonzero(true_values > 0.5)[0])
    assert j == first
    assert answers.tolist() == [e.true_value for e in session.transcript]
    assert session.query_count == first + 1


def test_scan_of_a_bad_block_records_nothing():
    d = _dist(_BLOCK_DIST)
    bad = _block("vstat") + [np.full(6, 1.5)]
    for strategy in _strategies():
        session = OracleSession(vstat(40), strategy, d, np.random.default_rng(2))
        with pytest.raises(ValueError):
            session.scan(bad, lambda rows, answers: answers > 2.0)
        assert session.query_count == 0
        assert session.samples_used == 0
        assert session.rng.random() == np.random.default_rng(2).random()


# ---------------------------------------------------------------------------
# single-sample oracle
# ---------------------------------------------------------------------------


def test_one_sample_oracle():
    d = _dist([0.25, 0.25, 0.5])
    session = OracleSession(one_stat_spec(2), exact_answers(), d, np.random.default_rng(3))
    values = np.array([0, 1, 3])
    outs = [session.one_sample(values) for _ in range(50)]
    assert set(outs) <= {0, 1, 3}
    assert session.samples_used == 50
    assert session.query_count == 50
    for i, entry in enumerate(session.transcript):
        assert (entry.index, entry.kind, entry.param, entry.value, entry.valid) == (
            i, "onestat", 2.0, float(outs[i]), True
        )
        assert type(entry.value) is float and math.isnan(entry.true_value)
    with pytest.raises(ValueError):
        session.one_sample(np.array([0, 1, 4]))  # 4 >= 2^2
    with pytest.raises(ValueError):
        session.one_sample(np.array([0.5, 0.5, 0.5]))  # not integers


def test_one_sample_needs_one_stat_spec():
    d = _dist([0.5, 0.5])
    session = OracleSession(stat(0.1), exact_answers(), d, np.random.default_rng(0))
    with pytest.raises(ValueError):
        session.one_sample(np.array([0, 1]))


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------


def test_transcript_jsonl_round_trip(tmp_path):
    d = _dist([0.2, 0.8])
    phi = QueryFn.indicator(d.domain, [(1,)])
    session = OracleSession(vstat(64), exact_answers(), d)
    for _ in range(3):
        session.query(phi)
    path = tmp_path / "transcript.jsonl"
    session.transcript.to_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        entry = json.loads(line)
        assert set(entry) == {"index", "kind", "param", "value", "valid"}
        assert entry["index"] == i
        assert entry["kind"] == "vstat"
        assert entry["param"] == 64
        assert entry["valid"] is True


def test_transcript_block_appends_read_back_as_entries():
    from sqlab.oracles import Transcript, TranscriptEntry

    t = Transcript()
    assert t.valid_fraction == 1.0
    t.extend("stat", 0.1, np.array([0.5, 0.25]), np.array([True, False]), np.array([0.5, 0.5]))
    t.extend("stat", 0.1, [0.75], [True], [0.7])
    assert len(t) == 3
    assert t.entries == [
        TranscriptEntry(0, "stat", 0.1, 0.5, True, 0.5),
        TranscriptEntry(1, "stat", 0.1, 0.25, False, 0.5),
        TranscriptEntry(2, "stat", 0.1, 0.75, True, 0.7),
    ]
    assert all(type(e.value) is float and type(e.valid) is bool for e in t)
    assert t.valid_fraction == 2 / 3
    with pytest.raises(ValueError):
        t.extend("stat", 0.1, [0.5], [True, True], [0.5])


# ---------------------------------------------------------------------------
# the tolerance bridge
# ---------------------------------------------------------------------------


def test_bridge_pair_parameters():
    back = bridge_pair(vroot(0.1))
    assert back.kind == "vstat" and back.n == pytest.approx(100.0)
    back = bridge_pair(vstat(100))
    assert back.kind == "vroot" and back.tau == pytest.approx(1.0 / 30.0)
    with pytest.raises(ValueError):
        bridge_pair(stat(0.1))


def test_bridge_value_checks_pairing_and_clips():
    q = vroot(0.1)
    with pytest.raises(ValueError):
        bridge_value(q, vstat(50), 0.3)  # wrong backend parameter
    with pytest.raises(ValueError):
        bridge_value(q, vroot(0.1), 0.3)  # wrong backend kind
    assert bridge_value(q, vstat(100), -0.004) == 0.0
    assert bridge_value(q, vstat(100), 0.3) == pytest.approx(0.3)
    assert bridge_value(vstat(100), vroot(1.0 / 30.0), 0.25) == pytest.approx(0.25)


@given(
    p=st.floats(0.0, 1.0),
    tau=st.floats(0.01, 0.5),
    u=st.floats(-1.0, 1.0),
)
def test_bridge_vstat_backend_serves_vroot_queries(p, tau, u):
    """Any VSTAT(1/tau^2)-valid answer converts to a VROOT(tau)-valid one."""
    q = vroot(tau)
    back = bridge_pair(q)
    v = p + u * tolerance(back, p)
    assert validate(back, p, v)
    assert validate(q, p, bridge_value(q, back, v))


@given(
    p=st.floats(0.0, 1.0),
    n=st.floats(4.0, 10000.0),
    u=st.floats(-1.0, 1.0),
)
def test_bridge_vroot_backend_serves_vstat_queries(p, n, u):
    """Any VROOT(1/(3 sqrt n))-valid answer is VSTAT(n)-valid unchanged."""
    q = vstat(n)
    back = bridge_pair(q)
    root = max(math.sqrt(p) + u * back.tau, 0.0)
    v = root**2
    assert validate(back, p, v)
    assert validate(q, p, bridge_value(q, back, v))
