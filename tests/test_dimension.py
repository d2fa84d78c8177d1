"""Dimension quantities: covers, games, their provable relations, and the
randomized-to-deterministic conversion."""

import math
import tracemalloc

import numpy as np
import pytest

from sqlab import (
    KV,
    FiniteDistribution,
    FiniteDomain,
    GuardExceededError,
    Measure,
    NumericalError,
    ProblemSpec,
    SEARCH,
    TheoremViolationError,
    achievable_subsets,
    biclique,
    combined_relation_audit,
    crsd,
    det_cover,
    kbarv,
    rand_to_det,
    rsd_decision,
    rsd_optimizing,
    rsd_search,
    rsd_verifiable,
    sd_decision,
    simple_lower_bound,
    verify_cover_family,
)
from sqlab.dimension import (
    EXACT,
    LOWER_BOUND,
    UPPER_BOUND,
    _candidate_centers,
    _solution_measures,
    _subfamily_dimension,
)
from sqlab.games import CoverFamily, family_of, shared_families

from tests.util import random_dists, small_domain, tamper_lp_solve


def _three_dist_instance():
    dom = FiniteDomain(((0,), (1,), (2,)))
    dists = [
        FiniteDistribution(dom, np.array(w))
        for w in [(0.7, 0.2, 0.1), (0.1, 0.2, 0.7), (0.1, 0.8, 0.1)]
    ]
    return dists, FiniteDistribution.uniform(dom)


# ---------------------------------------------------------------------------
# decision dimension
# ---------------------------------------------------------------------------


def test_rsd_decision_concrete():
    dists, d0 = _three_dist_instance()
    rep = rsd_decision(dists, d0, tau=0.2)
    assert rep.exactness == EXACT
    # one signed query separates all three members at this radius
    assert rep.value == pytest.approx(1.0)
    assert rep.certificate["dual_value"] == pytest.approx(rep.value, abs=1e-6)


@pytest.mark.parametrize("seed", range(6))
def test_rsd_decision_primal_dual_agree_on_randoms(seed):
    rng = np.random.default_rng(300 + seed)
    dists, d0 = random_dists(rng, n_points=int(rng.integers(2, 6)), n_dists=int(rng.integers(2, 6)))
    rep = rsd_decision(dists, d0, tau=0.1)
    if math.isinf(rep.value):
        assert rep.certificate["indistinguishable"]
        return
    assert rep.certificate["dual_value"] == pytest.approx(rep.value, abs=1e-6)
    assert rep.value >= 1.0 - 1e-9


def test_rsd_decision_uncoverable_reports_inf():
    dom = small_domain(2)
    d0 = FiniteDistribution.uniform(dom)
    near = FiniteDistribution(dom, np.array([0.52, 0.48]))
    rep = rsd_decision([near], d0, tau=0.5)
    assert math.isinf(rep.value)
    assert rep.certificate["indistinguishable"] == [0]


@pytest.mark.parametrize("dimension", [rsd_decision, sd_decision])
@pytest.mark.parametrize("n_dists", [0, 2])
def test_decision_dimensions_reject_an_unknown_kappa(dimension, n_dists):
    """An unknown kappa tag raises whatever the family size: the empty
    family reads its exactness from the tag too."""
    dists, d0 = _three_dist_instance()
    with pytest.raises(ValueError, match="unknown kappa tag"):
        dimension(dists[:n_dists], d0, 0.2, kappa="bogus")


def _spy_lp_solve(monkeypatch) -> list:
    """Route ``games.lp_solve`` through a spy; returns its call list."""
    import sqlab.games as games

    calls = []
    solve = games.lp_solve
    monkeypatch.setattr(games, "lp_solve", lambda *args, **rows: calls.append(1) or solve(*args, **rows))
    return calls


def test_rsd_decision_solves_one_lp_per_cover_value(monkeypatch):
    """The cover LP's own duals give the hardest measure: a covered family
    costs one LP, an uncovered one none. Each family is enumerated first,
    so its walk's max_margin LPs are not counted."""
    prob = biclique(4, 2)
    dom = small_domain(2)
    d0 = FiniteDistribution.uniform(dom)
    near = [FiniteDistribution(dom, np.array([0.52, 0.48]))]
    with shared_families():
        family_of(list(prob.dists), prob.reference, 0.2)
        family_of(near, d0, 0.5)
        calls = _spy_lp_solve(monkeypatch)
        assert rsd_decision(list(prob.dists), prob.reference, 0.2).value == pytest.approx(1.0)
        assert len(calls) == 1
        assert math.isinf(rsd_decision(near, d0, 0.5).value)
        assert len(calls) == 1


def test_rsd_search_solves_one_lp_per_distinct_inner_problem(monkeypatch):
    """A second rsd_search in the same shared_families block reads both
    centers' families from the store, so every LP it solves is a cover LP:
    one for each of the 14 distinct inner problems of biclique(4,2) at tau
    0.2 (see test_rsd_search_solves_each_distinct_inner_problem_once)."""
    prob = biclique(4, 2)
    with shared_families():
        first = rsd_search(prob, tau=0.2)
        calls = _spy_lp_solve(monkeypatch)
        assert rsd_search(prob, tau=0.2).value == first.value
    assert len(calls) == 14


@pytest.mark.parametrize("field", ["x", "y_ub"])
def test_rsd_decision_raises_on_a_tampered_cover_lp(monkeypatch, field):
    """biclique(4,1) at tau 0.1 has cover value 4/3 and a unique dual, the
    uniform weights 1/3. A short primal (y x 0.9) or a dual with its first
    weight cut by 10% fails fractional_cover's re-evaluation."""
    prob = biclique(4, 1)
    dists = list(prob.dists)
    with shared_families():
        family_of(dists, prob.reference, 0.1)
        assert rsd_decision(dists, prob.reference, 0.1).value == pytest.approx(4 / 3)
        tamper_lp_solve(monkeypatch, field, 0.9 if field == "x" else np.array([0.9, 1.0, 1.0, 1.0]))
        with pytest.raises(NumericalError):
            rsd_decision(dists, prob.reference, 0.1)


def test_sd_decision_concrete_and_bounded_by_rsd():
    dists, d0 = _three_dist_instance()
    sd = sd_decision(dists, d0, tau=0.2)
    rsd = rsd_decision(dists, d0, tau=0.2)
    assert sd.value == pytest.approx(1.0)
    assert sd.value <= rsd.value + 1e-9
    assert sd.certificate["subfamily"]


@pytest.mark.parametrize("seed", range(4))
def test_sd_at_most_rsd_on_randoms(seed):
    rng = np.random.default_rng(400 + seed)
    dists, d0 = random_dists(rng, n_points=4, n_dists=4)
    sd = sd_decision(dists, d0, tau=0.15)
    rsd = rsd_decision(dists, d0, tau=0.15)
    if math.isinf(rsd.value):
        assert math.isinf(sd.value)
        return
    # a uniform measure on the witness subfamily packs into the cover LP
    assert sd.value <= rsd.value + 1e-9
    assert sd.value >= 1.0


def _sd_decision_reference(m, sets):
    """max over subfamilies t of |t| / max overlap, scanning t in order and
    keeping a ratio only when it beats the best by 1e-15: the Python loop
    the vectorized ``sd_decision`` replaced, kept to pin its value and
    subfamily."""
    masks = [sum(1 << i for i in s) for s in sets]
    best_val, best_t = 0.0, 0
    for t in range(1, 1 << m):
        val = t.bit_count() / max((mask & t).bit_count() for mask in masks)
        if val > best_val + 1e-15:
            best_val, best_t = val, t
    return best_val, [i for i in range(m) if (best_t >> i) & 1]


@pytest.mark.parametrize("seed", range(4))
def test_sd_decision_repeats_the_subfamily_loop(seed):
    """The same value, to the bit, and the same subfamily as the loop, on
    400 seeded families of 1-10 members that cover every member."""
    rng = np.random.default_rng(4100 + seed)
    for _ in range(100):
        m = int(rng.integers(1, 11))
        sets = {frozenset(np.flatnonzero(rng.random(m) < rng.uniform(0.1, 0.9)).tolist())
                for _ in range(int(rng.integers(1, 12)))} - {frozenset()}
        sets |= {frozenset({i}) for i in range(m) if not any(i in s for s in sets)}
        family = CoverFamily(ground_size=m, sets=tuple(sets), witnesses=(None,) * len(sets), tau=0.1)
        rep = _subfamily_dimension(family)
        value, subfamily = _sd_decision_reference(m, family.sets)
        assert rep.value == value and rep.certificate["subfamily"] == subfamily


def test_sd_decision_kv_is_an_upper_bound():
    # The KV vertex family pairs the members up ({0,1}, {0,2}, {1,2}), so
    # sd_decision reads 3/2. The interior query (1, 0, 1/4) clears tau for
    # all three members at once, so the true KV value is 1: the vertex
    # family can only overstate it.
    dom = FiniteDomain(((0,), (1,), (2,)))
    dists = [
        FiniteDistribution(dom, np.array(w, dtype=float) / sum(w))
        for w in [(3, 8, 2), (2, 8, 5), (8, 4, 3)]
    ]
    d0 = FiniteDistribution.uniform(dom)
    rep = sd_decision(dists, d0, tau=0.1, kappa=KV)
    assert rep.exactness == UPPER_BOUND
    assert rep.value == pytest.approx(1.5)
    richer = CoverFamily(
        ground_size=3,
        sets=(frozenset({0, 1, 2}),),
        witnesses=(np.array([1.0, 0.0, 0.25]),),
        tau=0.1,
        kappa=KV,
    )
    verify_cover_family(dists, d0, richer)
    assert _subfamily_dimension(richer).value == pytest.approx(1.0)
    assert rep.value <= rsd_decision(dists, d0, tau=0.1, kappa=KV).value + 1e-9
    assert sd_decision([], d0, tau=0.1, kappa=KV).exactness == UPPER_BOUND


def test_decision_dimensions_share_one_family(monkeypatch):
    from sqlab import games

    dists, d0 = _three_dist_instance()
    built = []
    enumerate_family = games.achievable_subsets

    def counting(*args, **kwargs):
        built.append(args[2])
        return enumerate_family(*args, **kwargs)

    monkeypatch.setattr(games, "achievable_subsets", counting)
    with shared_families():
        rsd_decision(dists, d0, tau=0.2)
        sd = sd_decision(dists, d0, tau=0.2)
    assert built == [0.2]
    assert sd.value == sd_decision(dists, d0, tau=0.2).value
    assert built == [0.2, 0.2]


def test_sd_decision_guard():
    dom = small_domain(2)
    d0 = FiniteDistribution.uniform(dom)
    dists = [FiniteDistribution(dom, np.array([0.9, 0.1]))] * 17
    with pytest.raises(GuardExceededError):
        sd_decision(dists, d0, tau=0.1)


def test_det_cover_modes():
    dists, d0 = _three_dist_instance()
    exact = det_cover(dists, d0, tau=0.2, mode="exact")
    greedy = det_cover(dists, d0, tau=0.2, mode="greedy")
    assert exact.value <= greedy.value
    assert exact.value == pytest.approx(1.0)
    with pytest.raises(ValueError):
        det_cover(dists, d0, tau=0.2, mode="bogus")


# ---------------------------------------------------------------------------
# the game dimension
# ---------------------------------------------------------------------------


def test_crsd_golden_value():
    dists, d0 = _three_dist_instance()
    rep = crsd(dists, d0)
    assert rep.exactness == EXACT
    assert rep.value == pytest.approx(90.0 / 49.0, abs=1e-9)
    # the hardest measure (7/24, 7/24, 5/12) certifies the game value
    assert np.allclose(rep.certificate["hardest_measure"], [7 / 24, 7 / 24, 5 / 12], atol=1e-6)
    assert rep.certificate["game_value"] == pytest.approx(49.0 / 90.0, abs=1e-9)


def test_crsd_rejects_center_in_family():
    dists, d0 = _three_dist_instance()
    with pytest.raises(ValueError):
        crsd(dists + [d0], d0)


def test_crsd_kv_is_a_lower_bound():
    dists, d0 = _three_dist_instance()
    kv = crsd(dists, d0, kappa="kv")
    k1 = crsd(dists, d0)
    assert kv.exactness == LOWER_BOUND
    assert 0.0 < kv.value <= k1.value + 1e-9
    assert kv.certificate["kbar2_at_measure"] > 0


# The three 2^|X| binary-vertex scans on biclique(4,2) (16 points, 6
# members), each with its traced peak memory limit: the (2^16, 6) gap table
# is 3 MiB, and a 2^16 x 16 float vertex table beside it would be 8 MiB more.
_VERTEX_SCANS = [
    ("kbarv", lambda dists, d0: kbarv(Measure.uniform(len(dists)), dists, d0), 8),
    ("kv_family", lambda dists, d0: achievable_subsets(dists, d0, 0.2, KV), 8),
    ("kv_crsd", lambda dists, d0: crsd(dists, d0, KV), 10),
]


@pytest.mark.parametrize(
    "scan,limit_mib", [s[1:] for s in _VERTEX_SCANS], ids=[s[0] for s in _VERTEX_SCANS]
)
def test_vertex_scans_stay_under_their_peak_memory(scan, limit_mib):
    problem = biclique(4, 2, kind="decision")
    dists, d0 = list(problem.dists), problem.reference
    tracemalloc.start()
    try:
        scan(dists, d0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_combined_relation_audit_concrete():
    dists, d0 = _three_dist_instance()
    audit = combined_relation_audit(dists, d0)
    assert audit["pass"] is True
    assert audit["crsd"] == pytest.approx(90.0 / 49.0, abs=1e-9)
    assert len(audit["checks"]) == 3
    relations = [c["relation"] for c in audit["checks"]]
    assert relations == ["<=", ">", ">"]
    for check in audit["checks"]:
        assert check["ok"]


@pytest.mark.parametrize("seed", range(3))
def test_combined_relation_audit_randoms(seed):
    rng = np.random.default_rng(500 + seed)
    dists, d0 = random_dists(rng, n_points=4, n_dists=3)
    audit = combined_relation_audit(dists, d0)
    assert audit["pass"] is True


# ---------------------------------------------------------------------------
# search / verifiable / optimizing dimensions
# ---------------------------------------------------------------------------


def test_rsd_search_golden_ladder():
    prob = biclique(4, 1)
    assert rsd_search(prob, tau=0.05).value == pytest.approx(1.0)
    assert rsd_search(prob, tau=0.1).value == pytest.approx(1.5)
    rep = rsd_search(prob, tau=0.15)
    assert rep.value == pytest.approx(3.0)
    assert rep.exactness == LOWER_BOUND
    assert rep.certificate["center"] == "uniform-domain"
    # at this radius the uniform mixture sits within tau of every member
    assert math.isinf(rsd_search(prob, tau=0.2).value)


def _count_rsd_search_work(monkeypatch, prob, tau):
    """rsd_search's report with its enumerations (the member count of each
    ``achievable_subsets`` call), its inner problems (one (enumerations so
    far, keep) pair per ``CoverFamily.restrict`` call, which tells the
    centers apart) and its cover LPs."""
    import sqlab.dimension as dimension
    import sqlab.games as games

    walks, cuts, covers = [], [], []
    enumerate_family, cut, cover = (
        games.achievable_subsets, CoverFamily.restrict, dimension.fractional_cover
    )

    def walk_spy(dists, *args, **kwargs):
        walks.append(len(dists))
        return enumerate_family(dists, *args, **kwargs)

    def cut_spy(family, keep):
        cuts.append((len(walks), tuple(keep)))
        return cut(family, keep)

    def cover_spy(family):
        covers.append(family)
        return cover(family)

    monkeypatch.setattr(games, "achievable_subsets", walk_spy)
    monkeypatch.setattr(CoverFamily, "restrict", cut_spy)
    monkeypatch.setattr(dimension, "fractional_cover", cover_spy)
    return dimension.rsd_search(prob, tau=tau), walks, cuts, covers


def test_rsd_search_solves_each_distinct_inner_problem_once(monkeypatch):
    """One enumeration per candidate center; solution measures that serve
    the same members pose the same inner problem, which is that center's
    family cut to the kept members and solved by one cover LP."""
    prob = biclique(4, 2)
    rep, walks, cuts, covers = _count_rsd_search_work(monkeypatch, prob, 0.2)
    assert walks == [prob.n_dists, prob.n_dists]
    assert len(cuts) == len(set(cuts)) == len(covers) == 14
    assert {center for center, _ in cuts} == {1, 2}
    assert rep.value == pytest.approx(1.0)


def test_rsd_search_never_enumerates_a_member_every_measure_serves(monkeypatch):
    """Member 0 is valid for every solution, so every solution measure
    serves it: the centers' families leave it out, and the value is that
    of the inner problems solved one by one."""
    import dataclasses

    base = biclique(4, 2)
    validity = base.validity.copy()
    validity[:, 0] = True
    prob = dataclasses.replace(base, validity=validity)
    rep, walks, cuts, _ = _count_rsd_search_work(monkeypatch, prob, 0.2)
    monkeypatch.undo()
    assert walks == [prob.n_dists - 1, prob.n_dists - 1]
    assert len(cuts) == len(set(cuts))
    best = -1.0
    for _, center in _candidate_centers(prob):
        worst = math.inf
        for _, p in _solution_measures(prob):
            kept = [d for i, d in enumerate(prob.dists)
                    if p.mass(prob.valid_solution_indices(i)) < 1.0 - 1e-12]
            worst = min(worst, rsd_decision(kept, center, 0.2).value if kept else 0.0)
        best = max(best, worst)
    assert rep.value == best


def test_candidate_centers_read_the_cached_family_mixture():
    """The family-mixture center is the problem's cached uniform mixture,
    the same bits as a mixture built afresh, and no call rebuilds it."""
    from sqlab import mixture

    prob = biclique(4, 2)
    (_, _), (tag, center) = _candidate_centers(prob)
    assert tag == "uniform-mixture" and center is prob.uniform_mixture
    assert _candidate_centers(prob)[1][1] is center
    assert center.weights.tobytes() == mixture(list(prob.dists)).weights.tobytes()


def test_rsd_search_enumerates_nothing_when_a_measure_serves_every_member(monkeypatch):
    """The last solution is valid for every member, so its point mass
    leaves nothing to decide: the value is 0 at every center, the first
    center keeps it, and no family is enumerated."""
    import dataclasses

    base = biclique(4, 2)
    validity = base.validity.copy()
    validity[-1, :] = True
    prob = dataclasses.replace(base, validity=validity)
    rep, walks, cuts, covers = _count_rsd_search_work(monkeypatch, prob, 0.2)
    assert walks == cuts == covers == []
    assert rep.value == 0.0
    assert rep.exactness == LOWER_BOUND
    assert rep.certificate == {
        "center": "uniform-domain",
        "solution_measure": f"point:{prob.solutions[-1]!r}",
        "removed": list(range(prob.n_dists)),
        "inner": None,
    }


def test_rsd_search_alpha_validation():
    prob = biclique(4, 1)
    with pytest.raises(ValueError):
        rsd_search(prob, tau=0.1, alpha=0.0)


def test_rsd_verifiable_golden():
    vprob = biclique(4, 2, kind="verifiable")
    rep = rsd_verifiable(vprob, theta=0.2, tau=0.1)
    assert rep.value == pytest.approx(1.0)
    assert rep.certificate["center"] == "uniform-domain"
    # no default center keeps all verify values above 0.5
    empty = rsd_verifiable(vprob, theta=0.5, tau=0.1)
    assert empty.value == 0.0
    assert "note" in empty.certificate


def test_rsd_optimizing_golden():
    vprob = biclique(4, 2, kind="verifiable")
    rep = rsd_optimizing(vprob, eps=0.1, tau=0.1)
    assert rep.value == pytest.approx(1.0)
    assert rep.certificate["theta"] == pytest.approx(0.25)
    assert rep.certificate["kept"] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "n,k,eps,value,theta",
    [(3, 1, 0.0, 3.0, 0.5), (4, 2, 0.0, 1.0, 0.25), (4, 2, 0.05, 1.0, 0.25), (5, 2, 0.0, 2.5, 0.25)],
)
def test_rsd_optimizing_enumerates_each_distinct_pair_once(monkeypatch, n, k, eps, value, theta):
    """Thetas that keep the same members pose the same inner problem at a
    center: its family is enumerated once, and the first theta that reaches
    the best value keeps the certificate."""
    import sqlab.games as games

    pairs = []
    enumerate_family = games.achievable_subsets

    def walk_spy(dists, d0, *args, **kwargs):
        pairs.append((tuple(d.weights.tobytes() for d in dists), d0.weights.tobytes()))
        return enumerate_family(dists, d0, *args, **kwargs)

    monkeypatch.setattr(games, "achievable_subsets", walk_spy)
    vprob = biclique(n, k, kind="verifiable")
    rep = rsd_optimizing(vprob, eps=eps, tau=0.2)
    assert len(pairs) == len(set(pairs)) == 1
    assert rep.value == pytest.approx(value)
    assert rep.certificate["theta"] == pytest.approx(theta)
    assert rep.certificate["center"] == "uniform-mixture"
    assert rep.certificate["kept"] == list(range(vprob.n_dists))


def test_rsd_verifiable_requires_verify_queries():
    prob = biclique(4, 1, kind="search")
    with pytest.raises(ValueError):
        rsd_verifiable(prob, theta=0.2, tau=0.1)
    with pytest.raises(ValueError):
        rsd_optimizing(prob, eps=0.1, tau=0.1)


def test_search_type_dimensions_refuse_kv():
    """Under KV the inner rsd_decision values are upper bounds, so a
    max-min over them is certified in no direction: all three refuse."""
    prob = biclique(3, 1)
    vprob = biclique(4, 2, kind="verifiable")
    with pytest.raises(ValueError, match="rsd_search"):
        rsd_search(prob, tau=0.1, kappa=KV)
    with pytest.raises(ValueError, match="rsd_verifiable"):
        rsd_verifiable(vprob, theta=0.2, tau=0.1, kappa=KV)
    with pytest.raises(ValueError, match="rsd_optimizing"):
        rsd_optimizing(vprob, eps=0.1, tau=0.1, kappa=KV)


# ---------------------------------------------------------------------------
# randomized -> deterministic witness sampling
# ---------------------------------------------------------------------------


def _pairwise_family():
    sets = (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
    return CoverFamily(
        ground_size=3, sets=sets, witnesses=tuple(np.zeros(1) for _ in sets), tau=0.1
    )


def test_rand_to_det_samples_a_full_cover():
    family = _pairwise_family()
    q = np.full(3, 1 / 3)
    out = rand_to_det(family, q, d=1.5, mu=Measure.uniform(3), delta=1 / 3,
                      rng=np.random.default_rng(0))
    # s = ceil(1.5 ln 3) = 2 draws; success means uncovered mass < 1/3,
    # which on a uniform 3-element ground forces an actual full cover
    assert out["samples"] == 2
    assert out["uncovered"] == []
    covered = set()
    for j in out["witness_sets"]:
        covered |= family.sets[j]
    assert covered == {0, 1, 2}
    # bit-for-bit reproducible under the same seed
    again = rand_to_det(family, q, d=1.5, mu=Measure.uniform(3), delta=1 / 3,
                        rng=np.random.default_rng(0))
    assert again == out


def test_rand_to_det_output_is_pinned():
    """A seeded case whose first attempt falls short: s = ceil(1.2 ln 4) = 2
    draws from a skewed Q per attempt, accepted on the second attempt with
    element 2 (mass 0.2 < delta) left uncovered; the rng ends where the two
    attempts leave it."""
    rng = np.random.default_rng(5)
    out = rand_to_det(_pairwise_family(), np.array([0.6, 0.3, 0.1]), d=1.2,
                      mu=Measure.from_weights([0.5, 0.3, 0.2]), delta=0.25, rng=rng)
    assert out == {
        "witness_sets": [0],
        "samples": 2,
        "attempts": 2,
        "uncovered": [2],
        "uncovered_mass": 0.2,
    }
    assert rng.random() == 0.053930702381656426


def test_rand_to_det_flags_a_broken_cover_measure():
    family = _pairwise_family()
    bad_q = np.array([1.0, 0.0, 0.0])  # never samples a set containing 2
    with pytest.raises(TheoremViolationError):
        rand_to_det(family, bad_q, d=1.5, mu=Measure.uniform(3), delta=0.05,
                    rng=np.random.default_rng(1))


def test_rand_to_det_parameter_validation():
    family = _pairwise_family()
    q = np.full(3, 1 / 3)
    with pytest.raises(ValueError):
        rand_to_det(family, q, d=1.5, mu=Measure.uniform(3), delta=1.5,
                    rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        rand_to_det(family, q, d=1.5, mu=Measure.uniform(2), delta=0.1,
                    rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the simple query lower bound
# ---------------------------------------------------------------------------


def _two_dist_problem(weights_a, weights_b):
    dom = small_domain(2)
    dists = (
        FiniteDistribution(dom, np.asarray(weights_a, dtype=float)),
        FiniteDistribution(dom, np.asarray(weights_b, dtype=float)),
    )
    return ProblemSpec(
        kind=SEARCH,
        domain=dom,
        dists=dists,
        solutions=("a", "b"),
        validity=np.eye(2, dtype=bool),
    )


def test_simple_lower_bound_finite_case():
    prob = _two_dist_problem([0.9, 0.1], [0.1, 0.9])
    d0 = FiniteDistribution.uniform(prob.domain)
    rep = simple_lower_bound(prob, Measure.uniform(2), d0, tau=0.1, beta=0.9)
    # best single answer serves mass 1/2; both members are separable, so
    # kappa1_frac = 1 and the bound is (0.9 - 0.5) / 1
    assert rep.value == pytest.approx(0.4)
    assert rep.certificate["best_solution_mass"] == pytest.approx(0.5)
    assert rep.certificate["kappa1_frac"] == pytest.approx(1.0)


def test_simple_lower_bound_edges():
    prob = _two_dist_problem([0.9, 0.1], [0.1, 0.9])
    d0 = FiniteDistribution.uniform(prob.domain)
    # beta below the best answer's mass: the bound is vacuous
    assert simple_lower_bound(prob, Measure.uniform(2), d0, tau=0.1, beta=0.4).value == 0.0
    # indistinguishable family with a demanding beta: infinitely many queries
    flat = _two_dist_problem([0.5, 0.5], [0.5, 0.5])
    rep = simple_lower_bound(flat, Measure.uniform(2), d0, tau=0.1, beta=0.9)
    assert math.isinf(rep.value)
    with pytest.raises(ValueError):
        simple_lower_bound(prob, Measure.uniform(3), d0, tau=0.1, beta=0.9)
