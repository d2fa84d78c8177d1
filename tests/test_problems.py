"""Built-in problem families: planted-subcube (biclique) and mod-p lines —
closed forms checked against exact Fraction enumeration."""

from fractions import Fraction

import numpy as np
import pytest

from sqlab import (
    bayes_error,
    biclique,
    biclique_conj_value,
    biclique_parity_value,
    conj_query,
    line_audit,
    line_closed_forms,
    line_labels,
    line_marginal,
    line_problem,
    parity_query,
)
from sqlab.core import DECISION, SEARCH, VERIFIABLE
from sqlab.errors import GuardExceededError
from sqlab.problems import biclique_dist, biclique_domain, line_domain

from tests.util import fraction_biclique_answers, fraction_line_gram


# ---------------------------------------------------------------------------
# planted-subcube family
# ---------------------------------------------------------------------------


def test_biclique_domain_and_queries():
    dom = biclique_domain(3)
    assert dom.elements == ("000", "001", "010", "011", "100", "101", "110", "111")
    conj = conj_query(dom, (1, 2))  # bits 1 and 2 set
    assert conj.values[dom.index_of("110")] == 1.0
    assert conj.values[dom.index_of("111")] == 1.0
    assert conj.values[dom.index_of("101")] == 0.0
    par = parity_query(dom, (1, 3))
    assert par.values[dom.index_of("000")] == 1.0
    assert par.values[dom.index_of("100")] == -1.0
    assert par.values[dom.index_of("101")] == 1.0


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 2)])
def test_biclique_closed_forms_match_fraction_enumeration(n, k):
    s = tuple(range(1, k + 1))
    conj_exact, parity_exact = fraction_biclique_answers(n, k)
    assert biclique_conj_value(n, k, s, s) == pytest.approx(float(conj_exact), abs=1e-15)
    assert biclique_parity_value(n, k, s, s) == pytest.approx(float(parity_exact), abs=1e-15)
    # the distribution itself reproduces both
    d = biclique_dist(n, k, s)
    assert d.expectation(conj_query(d.domain, s)) == pytest.approx(float(conj_exact), abs=1e-12)
    assert d.expectation(parity_query(d.domain, s)) == pytest.approx(float(parity_exact), abs=1e-12)


def test_biclique_frozen_values_n8_k2():
    s = (1, 2)
    assert biclique_conj_value(8, 2, s, s) == pytest.approx(0.4375, abs=1e-15)
    assert biclique_parity_value(8, 2, s, s) == pytest.approx(0.25, abs=1e-15)
    conj_exact, parity_exact = fraction_biclique_answers(8, 2)
    assert conj_exact == Fraction(7, 16)
    assert parity_exact == Fraction(1, 4)


def test_biclique_parity_table():
    """chi_T correlates with D_S only when T is contained in S, with sign
    (-1)^|T|; checked against direct expectations for every T on n=4."""
    n, k = 4, 2
    s = (1, 3)
    d = biclique_dist(n, k, s)
    dom = d.domain
    import itertools
    for r in range(1, n + 1):
        for t in itertools.combinations(range(1, n + 1), r):
            measured = d.expectation(parity_query(dom, t))
            assert measured == pytest.approx(biclique_parity_value(n, k, s, t), abs=1e-12)
    # empty parity is the constant 1
    assert biclique_parity_value(n, k, s, ()) == 1.0


def test_biclique_conj_partial_overlap():
    n, k = 6, 3
    s = (1, 2, 3)
    for t in [(1, 2), (1, 4), (4, 5), (1, 2, 3, 4)]:
        d = biclique_dist(n, k, s)
        measured = d.expectation(conj_query(d.domain, t))
        assert measured == pytest.approx(biclique_conj_value(n, k, s, t), abs=1e-12)


def test_biclique_problem_kinds():
    srch = biclique(4, 2, kind=SEARCH)
    assert srch.kind == SEARCH
    assert srch.n_dists == 6 and len(srch.solutions) == 6
    assert np.array_equal(srch.validity, np.eye(6, dtype=bool))
    dec = biclique(4, 2, kind=DECISION)
    assert dec.solutions == ("not-reference",)
    assert dec.reference is not None
    assert np.allclose(dec.reference.weights, 1.0 / 16.0)
    with pytest.raises(ValueError):
        biclique(4, 2, kind="nope")
    with pytest.raises(ValueError):
        biclique(4, 0)


def test_biclique_verifiable_threshold_semantics():
    """theta = k/n: subsets disjoint from the plant measure exactly 2^-k
    under D_S... the planted set itself measures strictly more, so the
    validity matrix marks exactly the non-intersecting subsets."""
    prob = biclique(4, 2, kind=VERIFIABLE)
    theta = 2 / 4
    for f, sol in enumerate(prob.solutions):
        for d_idx, plant in enumerate(prob.solutions):
            val = biclique_conj_value(4, 2, plant, sol)
            assert prob.validity[f, d_idx] == (val <= theta + 1e-12)
    # the plant is never a theta-valid answer for its own distribution
    for i in range(prob.n_dists):
        assert not prob.validity[i, i]


def test_biclique_verifiable_boundary_at_n8():
    """At (n, k) = (8, 2) a disjoint conjunction measures exactly 2^-2 =
    0.25 = k/n: right on the threshold, so it must count as valid."""
    prob = biclique(8, 2, kind=VERIFIABLE)
    s_idx = prob.solutions.index((1, 2))
    t_idx = prob.solutions.index((3, 4))
    assert biclique_conj_value(8, 2, (1, 2), (3, 4)) == pytest.approx(0.25, abs=1e-15)
    assert prob.validity[t_idx, s_idx]
    assert not prob.validity[s_idx, s_idx]  # 0.4375 > 0.25


def test_biclique_guard():
    with pytest.raises(GuardExceededError):
        biclique(13, 2)


# ---------------------------------------------------------------------------
# mod-p line family
# ---------------------------------------------------------------------------


def test_line_labels_and_marginals():
    p = 5
    labels = line_labels(p, (1, 0))  # z2 = z1
    dom = line_domain(p)
    for z1 in range(p):
        assert labels[dom.index_of((z1, z1))] == 1.0
    assert labels.sum() == pytest.approx(p - (p * p - p))  # p on, p^2-p off
    skew = line_marginal(p, (1, 0), kind="skewed")
    on = 1.0 / (2 * p) + 1.0 / (2 * p * p)
    off = 1.0 / (2 * p * p)
    assert skew.weights[dom.index_of((2, 2))] == pytest.approx(on, abs=1e-15)
    assert skew.weights[dom.index_of((2, 3))] == pytest.approx(off, abs=1e-15)
    # total on-line mass: 1/2 + 1/(2p) = 0.6 at p=5
    assert float(skew.weights[labels > 0].sum()) == pytest.approx(0.6, abs=1e-12)
    uni = line_marginal(p)
    assert np.allclose(uni.weights, 1.0 / (p * p))
    with pytest.raises(ValueError):
        line_marginal(p, kind="weird")
    with pytest.raises(ValueError):
        line_marginal(p, kind="skewed")  # needs the favored line


@pytest.mark.parametrize("p", [3, 5])
def test_line_closed_forms_match_fraction_gram(p):
    exact = fraction_line_gram(p)
    forms = line_closed_forms(p)
    assert forms["same"] == pytest.approx(float(exact["same"]), abs=1e-14)
    assert forms["parallel"] == pytest.approx(float(exact["parallel"]), abs=1e-14)
    assert forms["crossing"] == pytest.approx(float(exact["crossing"]), abs=1e-14)
    # rho averages |same| once, |parallel| (p-1)/p^2 of the time, |crossing| else
    m = p * p
    rho = (m * forms["same"] + m * (p - 1) * abs(forms["parallel"])
           + m * (m - p) * forms["crossing"]) / (m * m)
    assert forms["rho"] == pytest.approx(rho, abs=1e-14)


def test_line_problem_structure():
    prob = line_problem(3, kind=SEARCH)
    assert prob.n_dists == 9
    assert prob.solutions == tuple((a1, a2) for a1 in range(3) for a2 in range(3))
    # every member is a realizable labeled joint
    for d in prob.dists:
        assert bayes_error(d) == pytest.approx(0.0, abs=1e-12)
    assert bayes_error(prob.reference) == pytest.approx(0.5, abs=1e-12)
    dec = line_problem(3, kind=DECISION)
    assert dec.solutions == ("not-reference",)
    with pytest.raises(ValueError):
        line_problem(3, kind="nope")


def test_line_min_pairwise_distance():
    """Crossing lines are the closest pair: L1 distance
    (p-1)(p+2)/p^2 = 54/49 at p=7, which keeps the family identifiable
    at radius 0.2 (need L1 > 2 tau)."""
    prob = line_problem(7, kind=SEARCH)
    weights = np.array([d.weights for d in prob.dists])
    best = np.inf
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            best = min(best, float(np.abs(weights[i] - weights[j]).sum()))
    assert best == pytest.approx(54.0 / 49.0, abs=1e-12)
    assert best == pytest.approx(1.102041, abs=1e-6)
    assert best > 2 * 0.2


@pytest.mark.parametrize("p", [3, 5])
def test_line_audit_small_primes(p):
    report = line_audit(p)
    assert report["p"] == p and report["dists"] == p * p
    assert report["worst_table_error"] <= 1e-10
    assert report["rho"] == pytest.approx(line_closed_forms(p)["rho"], abs=1e-12)
    assert report["rho"] <= report["rho_upper"] + 1e-12
    assert report["kbar2_spectral"] <= np.sqrt(report["rho"]) + 1e-9


def test_line_guard():
    with pytest.raises(GuardExceededError):
        line_problem(37)
