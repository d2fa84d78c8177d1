"""Discrimination norms: exact values, the norm ladder, and certificates."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqlab import (
    DECISION,
    FiniteDistribution,
    GuardExceededError,
    Measure,
    SupportError,
    biclique,
    kappa1_frac,
    kbar1,
    kbar2,
    kbar2_spectral,
    kbarv,
    line_problem,
    rho,
)
from sqlab import core, norms
from sqlab.norms import EXACT, LOWER_BOUND, _k1_scan

from tests.util import fraction_kbar1, random_dists, small_domain, vertex_sums


def _dist(weights):
    w = np.asarray(weights, dtype=float)
    return FiniteDistribution(small_domain(len(w)), w)


def _chi2(d, d0):
    return float(((d.weights - d0.weights) ** 2 / d0.weights).sum())


# ---------------------------------------------------------------------------
# kbar1 against exact rational arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed,n_points,n_dists", [(0, 3, 3), (1, 4, 2), (2, 3, 4), (3, 2, 5)])
def test_kbar1_matches_fraction_brute_force(seed, n_points, n_dists):
    rng = np.random.default_rng(seed)
    dists, d0 = random_dists(rng, n_points=n_points, n_dists=n_dists)
    mu = Measure.from_weights(rng.dirichlet(np.ones(n_dists)))
    report = kbar1(mu, dists, d0)
    exact = fraction_kbar1(mu.weights, [d.weights for d in dists], d0.weights)
    assert report.exactness == EXACT
    assert report.value == pytest.approx(float(exact), abs=1e-12)
    # the certificate query is a sign vector achieving the value
    phi = report.certificate["query"]
    assert set(np.unique(phi)) <= {-1.0, 1.0}
    achieved = sum(
        mu.weights[i] * abs(float((d.weights - d0.weights) @ phi))
        for i, d in enumerate(dists)
    )
    assert achieved == pytest.approx(report.value, abs=1e-9)


def test_kbar1_point_mass_is_l1():
    d = _dist([0.7, 0.2, 0.1])
    d0 = _dist([1 / 3, 1 / 3, 1 / 3])
    report = kbar1(Measure.point_mass(1, 0), [d], d0)
    assert report.value == pytest.approx(float(np.abs(d.weights - d0.weights).sum()))


def test_kbar1_guard():
    dom = small_domain(21)
    dists = [FiniteDistribution.uniform(dom) for _ in range(21)]
    with pytest.raises(GuardExceededError, match=r"^kbar1: 2\^21 sign patterns exceed the guard$"):
        kbar1(Measure.uniform(21), dists, FiniteDistribution.uniform(dom))


def test_measure_size_mismatch():
    d0 = _dist([0.5, 0.5])
    with pytest.raises(ValueError):
        kbar1(Measure.uniform(3), [d0], d0)


def _scan_cases():
    """(rows g_i = D_i - D0, measure) pairs on both axes of the kbar1 scan:
    generator instances (m <= |X|, member patterns) at the uniform and seeded
    Dirichlet measures, and random families with more members than points
    (domain sign rows)."""
    for generator, params in [(biclique, (3, 1)), (biclique, (3, 2)), (biclique, (4, 2)),
                              (biclique, (4, 3)), (line_problem, (2,)), (line_problem, (3,))]:
        problem = generator(*params, kind="decision")
        g = np.array([d.weights - problem.reference.weights for d in problem.dists])
        m = len(g)
        yield g, np.full(m, 1.0 / m)
        for seed in range(2):
            yield g, np.random.default_rng(2000 + seed).dirichlet(np.ones(m))
    for seed in range(12):
        rng = np.random.default_rng(2100 + seed)
        n = int(rng.integers(2, 7))
        dists, d0 = random_dists(rng, n, int(rng.integers(n + 1, 13)))
        g = np.array([d.weights - d0.weights for d in dists])
        yield g, rng.dirichlet(np.ones(len(g)))


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("tol", [0.0, 1e-12])
def test_kbar1_scan_does_not_depend_on_its_block_size(block, tol, monkeypatch):
    """Blocks of 1 and 3 rows against the default 4096: the same value bit
    for bit and the same tied queries in the same order, on both axes."""
    assert norms._SCAN_BLOCK == 4096
    scans = [(g, mu, *_k1_scan(g, mu, tol)) for g, mu in _scan_cases()]
    monkeypatch.setattr(norms, "_SCAN_BLOCK", block)
    axes = set()
    for g, mu, value, queries in scans:
        got_value, got_queries = _k1_scan(g, mu, tol)
        assert got_value == value
        assert np.array_equal(got_queries, queries)
        assert np.array_equal(queries[:, -1], np.ones(len(queries)))
        axes.add(len(g) <= g.shape[1])
    assert axes == {True, False}


# ---------------------------------------------------------------------------
# kbar2 and its spectral relaxation
# ---------------------------------------------------------------------------


def test_kbar2_single_dist_is_sqrt_chi2():
    d = _dist([0.75, 0.25])
    d0 = _dist([0.5, 0.5])
    report = kbar2(Measure.point_mass(1, 0), [d], d0)
    assert report.value == pytest.approx(math.sqrt(_chi2(d, d0)))
    # certificate test function has unit D0-norm
    t = report.certificate["test_fn"]
    assert float((t**2) @ d0.weights) == pytest.approx(1.0)


# Five random families at a random measure, and the generator families at
# the uniform measure: on the line families the uniform vector is an
# eigenvector of the correlation table (every row sums to 1) outside the top
# eigenspace, so a power iteration started there stops at the wrong value.
_SVD_CASES = [*range(5), ("biclique", 3, 1), ("biclique", 4, 2), ("biclique", 6, 2),
              ("line", 2), ("line", 3), ("line", 5)]


def _svd_instance(case):
    if isinstance(case, int):
        rng = np.random.default_rng(case)
        dists, d0 = random_dists(rng, n_points=5, n_dists=4)
        return Measure.from_weights(rng.dirichlet(np.ones(4))), dists, d0
    gen, *args = case
    problem = biclique(*args, kind=DECISION) if gen == "biclique" else line_problem(*args)
    return Measure.uniform(problem.n_dists), list(problem.dists), problem.reference


@pytest.mark.parametrize(
    "case", _SVD_CASES, ids=[str(c) if isinstance(c, int) else "-".join(map(str, c)) for c in _SVD_CASES]
)
def test_kbar2_spectral_matches_numpy_svd(case):
    """The value is the top singular value of the weighted ratio matrix,
    and kbar2 (wherever its sign scan is inside the guard) stays below it."""
    mu, dists, d0 = _svd_instance(case)
    report = kbar2_spectral(mu, dists, d0)
    m = np.array(
        [
            math.sqrt(mu.weights[i]) * (d.weights - d0.weights) / np.sqrt(d0.weights)
            for i, d in enumerate(dists)
        ]
    )
    sigma = float(np.linalg.svd(m, compute_uv=False)[0])
    assert report.exactness == EXACT
    assert report.value == pytest.approx(sigma, rel=1e-12)
    if len(dists) <= norms._SIGN_GUARD:
        assert kbar2(mu, dists, d0).value <= report.value + 1e-12


def test_kbar2_spectral_refuses_mass_off_the_center_support():
    """A member of mu's support with mass where D0 has none raises
    SupportError, as kbar2 and rho do; a member outside mu's support is
    not read."""
    d0 = _dist([0.5, 0.5, 0.0])
    inside, outside = _dist([0.25, 0.75, 0.0]), _dist([0.25, 0.25, 0.5])
    for norm in (kbar2, kbar2_spectral):
        with pytest.raises(SupportError):
            norm(Measure.uniform(2), [inside, outside], d0)
        assert norm(Measure.point_mass(2, 0), [inside, outside], d0).value == pytest.approx(0.5)
    with pytest.raises(SupportError):
        rho([inside, outside], d0)


@pytest.mark.parametrize("seed", range(5))
def test_kbar2_at_most_spectral(seed):
    rng = np.random.default_rng(100 + seed)
    dists, d0 = random_dists(rng, n_points=4, n_dists=5)
    mu = Measure.uniform(5)
    assert kbar2(mu, dists, d0).value <= kbar2_spectral(mu, dists, d0).value + 1e-9


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------


def test_rho_hand_values():
    d0 = _dist([0.5, 0.5])
    d = _dist([0.75, 0.25])
    mirror = _dist([0.25, 0.75])
    assert rho([d], d0).value == pytest.approx(_chi2(d, d0))
    # the mirror's centered ratio is the negation: all |correlations| equal chi^2
    assert rho([d, mirror], d0).value == pytest.approx(_chi2(d, d0))
    corr = rho([d, mirror], d0).certificate["correlations"]
    assert corr[0, 1] == pytest.approx(-_chi2(d, d0))


# ---------------------------------------------------------------------------
# kbarv and the ladder
# ---------------------------------------------------------------------------


def test_kbarv_reports_lower_bound_with_unit_query():
    rng = np.random.default_rng(11)
    dists, d0 = random_dists(rng, n_points=4, n_dists=3)
    mu = Measure.uniform(3)
    report = kbarv(mu, dists, d0)
    assert report.exactness == LOWER_BOUND
    phi = report.certificate["query"]
    assert np.all(phi >= 0.0) and np.all(phi <= 1.0)
    achieved = sum(
        mu.weights[i]
        * abs(math.sqrt(max(d.expectation(phi), 0)) - math.sqrt(max(d0.expectation(phi), 0)))
        for i, d in enumerate(dists)
    )
    assert achieved == pytest.approx(report.value, abs=1e-9)


def test_kbarv_guard():
    dom = small_domain(21)
    d0 = FiniteDistribution.uniform(dom)
    with pytest.raises(GuardExceededError):
        kbarv(Measure.uniform(1), [d0], d0)


def _kbarv_reference(mu, dists, d0):
    """kbarv scoring one ascent candidate at a time, rebuilding the member
    matrix per call: the loop the blocked ascent must repeat. Each vertex's
    sums are added one vertex at a time (``vertex_sums``)."""
    idx = list(mu.support)
    sub, w = [dists[i] for i in idx], mu.weights[idx]
    n = len(d0.domain)

    def gaps(phis):
        d_mat = np.array([d.weights for d in sub])
        dv = np.sqrt(np.clip(phis @ d_mat.T, 0.0, None))
        zv = np.sqrt(np.clip(phis @ d0.weights, 0.0, None))
        return np.abs(dv - zv[:, None])

    sums = vertex_sums(np.array([d.weights for d in sub + [d0]]))
    dv = np.sqrt(np.clip(sums[:, :-1], 0.0, None))
    zv = np.sqrt(np.clip(sums[:, -1], 0.0, None))
    vals = np.abs(dv - zv[:, None]) @ w
    j = int(np.argmax(vals))
    best_phi, best_val = ((j >> np.arange(n)) & 1).astype(float), float(vals[j])
    for x in range(n):
        current = best_phi[x]
        for v in np.linspace(0.0, 1.0, 17):
            if v == current:
                continue
            cand = best_phi.copy()
            cand[x] = v
            val = float(gaps(cand[None, :])[0] @ w)
            if val > best_val + 1e-15:
                best_val, best_phi = val, cand
    return best_val, best_phi


def _assert_kbarv_matches_reference(mu, dists, d0, block_bits=(core._BLOCK_BITS,)):
    """kbarv, with each vertex block size in ``block_bits``, is bitwise the reference."""
    value, query = _kbarv_reference(mu, dists, d0)
    for bits in block_bits:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_BLOCK_BITS", bits)
            report = kbarv(mu, dists, d0)
        assert report.value == value
        assert np.array_equal(report.certificate["query"], query)


# The instances of the nine ``sqlab dims`` benchmark reports (kbarv does not
# depend on tau); biclique(5, k) has 32 domain points, past the 2^20 vertex
# guard.
_DIMS_INSTANCES = [
    (biclique, (3, 1)), (biclique, (3, 2)), (biclique, (4, 1)), (biclique, (4, 3)),
    (biclique, (5, 1)), (biclique, (5, 4)), (line_problem, (2,)),
]


@pytest.mark.parametrize(
    "generator,params",
    _DIMS_INSTANCES,
    ids=[f"{g.__name__}{params}".replace(" ", "") for g, params in _DIMS_INSTANCES],
)
def test_blocked_kbarv_ascent_repeats_the_one_candidate_loop(generator, params):
    problem = generator(*params, kind="decision")
    dists, d0 = list(problem.dists), problem.reference
    mu = Measure.uniform(problem.n_dists)
    if len(d0.domain) > norms._VERTEX_GUARD:
        with pytest.raises(GuardExceededError):
            kbarv(mu, dists, d0)
        return
    # blocks of 2, 4 and 8 vertices, most built from their parent block and
    # met out of vertex order; line(2)'s best score ties exactly at vertices
    # 6, 9, 96 and 144, so the first maximum must be kept across blocks
    _assert_kbarv_matches_reference(mu, dists, d0, (core._BLOCK_BITS, 1, 2, 3))


def test_kbarv_on_line_3_scans_its_2_18_vertices():
    """line(3) has 18 domain points, past the former 16-point guard: the
    blocked scan reports the reference's value and query bit for bit, and
    the ladder kbar1 <= 4 kbarv holds on it."""
    problem = line_problem(3, kind=DECISION)
    dists, d0 = list(problem.dists), problem.reference
    mu = Measure.uniform(problem.n_dists)
    _assert_kbarv_matches_reference(mu, dists, d0)
    assert kbar1(mu, dists, d0).value <= 4.0 * kbarv(mu, dists, d0).value


def test_kbarv_holds_one_block_of_vertices_at_a_time():
    """On biclique(4,1) (2^16 vertices, 4 members) kbarv's transient memory
    peaks under 1.5 MB (the whole gap table and its sums took 4.7 MB), and
    with the cycle collector off the traced memory returns to within 64 KB
    of where it was: no reference cycle keeps a block alive."""
    problem = biclique(4, 1, kind=DECISION)
    dists, d0 = list(problem.dists), problem.reference
    mu = Measure.uniform(problem.n_dists)
    kbarv(mu, dists, d0)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = kbarv(mu, dists, d0)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert report.exactness == LOWER_BOUND
    assert peak - before <= 1_500_000
    assert after - before <= 64 * 1024


# Families whose best query is not a vertex, so the ascent accepts
# candidates, several in one coordinate where the answer lies far from
# the vertex it started at: (member counts, center counts, mu counts). On
# the last three, scoring the 16 candidates as one matrix product moves
# the reported value by an ulp.
_ASCENT_FAMILIES = [
    ([[9, 10, 8, 7, 3, 3], [6, 2, 3, 8, 6, 4], [10, 6, 7, 10, 7, 3], [6, 9, 1, 4, 4, 4],
      [5, 9, 4, 2, 9, 10]], [5, 4, 5, 9, 3, 7], [1, 4, 2, 1, 1]),
    ([[8, 1, 9, 1, 1, 10, 4], [0, 3, 8, 3, 8, 5, 7], [6, 0, 3, 10, 6, 2, 9],
      [9, 9, 5, 0, 3, 8, 1]], [10, 0, 1, 2, 8, 1, 10], [0, 4, 3, 3]),
    ([[0, 1, 2, 0, 3], [6, 10, 6, 3, 0], [4, 9, 8, 6, 6]], [1, 2, 10, 4, 2], [2, 5, 5]),
    ([[0, 7, 1, 7, 5], [6, 6, 5, 3, 0]], [1, 8, 5, 2, 10], [3, 1]),
    ([[2, 0, 6, 6, 9, 2], [1, 8, 10, 2, 2, 8], [6, 3, 6, 7, 0, 7], [6, 9, 2, 9, 7, 4],
      [0, 7, 10, 2, 1, 1]], [2, 7, 2, 9, 9, 8], [0, 3, 1, 3, 3]),
    ([[8, 0, 7, 0, 2, 10, 1, 8], [4, 4, 3, 6, 10, 6, 3, 2], [9, 1, 1, 0, 2, 6, 8, 1],
      [4, 1, 8, 9, 1, 0, 4, 8]], [5, 0, 1, 1, 8, 2, 8, 8], [1, 3, 1, 4]),
    ([[8, 10, 4, 4, 5, 7, 10, 3], [4, 6, 1, 10, 7, 9, 8, 7], [8, 0, 8, 8, 4, 9, 4, 10]],
     [10, 1, 1, 8, 8, 2, 5, 8], [0, 5, 1]),
]


@pytest.mark.parametrize("members,center,mu_counts", _ASCENT_FAMILIES)
def test_blocked_kbarv_ascent_repeats_the_one_candidate_loop_off_the_vertices(
    members, center, mu_counts
):
    dists = [_dist(np.array(c) / sum(c)) for c in members]
    mu = Measure(len(members), np.array(mu_counts) / sum(mu_counts))
    d0 = _dist(np.array(center) / sum(center))
    query = kbarv(mu, dists, d0).certificate["query"]
    assert np.any((query > 0.0) & (query < 1.0))
    _assert_kbarv_matches_reference(mu, dists, d0)


@given(data=st.data())
def test_blocked_kbarv_ascent_repeats_the_one_candidate_loop_on_random_families(data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 5))
    weights = st.lists(st.integers(0, 10), min_size=n, max_size=n).filter(any)
    dists = [_dist(np.array(c) / sum(c)) for c in (data.draw(weights) for _ in range(m + 1))]
    d0 = dists.pop()
    mu_counts = data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m).filter(any))
    mu = Measure(m, np.array(mu_counts) / sum(mu_counts))
    _assert_kbarv_matches_reference(mu, dists, d0)


@pytest.mark.parametrize("seed", range(8))
def test_norm_ladder(seed):
    """kbarv <= kbar2 <= kbar2_spectral, kbar1 <= 4 kbarv, rho >= kbar2(unif)^2."""
    rng = np.random.default_rng(200 + seed)
    n_dists = int(rng.integers(2, 6))
    n_points = int(rng.integers(2, 7))
    dists, d0 = random_dists(rng, n_points=n_points, n_dists=n_dists)
    mu = Measure.uniform(n_dists)
    v = kbarv(mu, dists, d0).value
    two = kbar2(mu, dists, d0).value
    spec = kbar2_spectral(mu, dists, d0).value
    one = kbar1(mu, dists, d0).value
    r = rho(dists, d0).value
    assert v <= two + 1e-9
    assert two <= spec + 1e-9
    assert one <= 4.0 * v + 1e-9
    assert r >= two**2 - 1e-9


# ---------------------------------------------------------------------------
# distinguishable fractions
# ---------------------------------------------------------------------------


def test_kappa1_frac_concrete():
    d0 = _dist([0.5, 0.5])
    far_up = _dist([0.9, 0.1])
    far_down = _dist([0.1, 0.9])
    near = _dist([0.55, 0.45])
    mu = Measure.uniform(3)
    # at tau = 0.3 only the two far members are separable (margins 0.8 vs 0.1),
    # and one sign query takes them simultaneously
    report = kappa1_frac(mu, [far_up, far_down, near], d0, tau=0.3)
    assert report.exactness == EXACT
    assert report.value == pytest.approx(2 / 3)
    assert report.certificate["subset"] == [0, 1]
    # at tiny tau everything is distinct from the center
    assert kappa1_frac(mu, [far_up, far_down, near], d0, tau=1e-6).value == pytest.approx(1.0)
    # weighted masses follow the measure
    skew = Measure.from_weights([0.6, 0.2, 0.2])
    assert kappa1_frac(skew, [far_up, far_down, near], d0, tau=0.3).value == pytest.approx(0.8)
