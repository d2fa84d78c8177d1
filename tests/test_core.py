"""Domain, distribution, query, measure, and problem-spec invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqlab import (
    DECISION,
    SEARCH,
    SIGNED,
    UNIT,
    DomainMismatchError,
    FiniteDistribution,
    FiniteDomain,
    Measure,
    ProblemSpec,
    QueryFn,
    SupportError,
    bayes_error,
    biclique,
    kl_divergence,
    likelihood_hat,
    line_problem,
    mixture,
    pac_lift,
)
from sqlab import core
from sqlab.core import (
    _GRID_BITS,
    draw_counts,
    draw_indices,
    dyadic_edges,
    likelihood_hats,
    sqrt_gap,
    vertex_gap_blocks,
    vertex_gaps,
)

from tests.util import small_domain, vertex_sums


def weight_vectors(n, min_size=None):
    size = n if isinstance(n, int) else None
    return (
        st.lists(st.floats(0.01, 1.0), min_size=size or min_size, max_size=size or 8)
        .map(lambda ws: np.array(ws) / np.sum(ws))
    )


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def test_domain_orders_and_indexes():
    dom = FiniteDomain(("a", "b", "c"))
    assert len(dom) == 3
    assert list(dom) == ["a", "b", "c"]
    assert dom.index_of("b") == 1
    assert "c" in dom and "z" not in dom
    with pytest.raises(DomainMismatchError):
        dom.index_of("z")


def test_domain_rejects_duplicates_and_empty():
    with pytest.raises(DomainMismatchError):
        FiniteDomain(("a", "a"))
    with pytest.raises(DomainMismatchError):
        FiniteDomain(())


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def test_distribution_validates_weights():
    dom = small_domain(2)
    with pytest.raises(ValueError):
        FiniteDistribution(dom, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        FiniteDistribution(dom, np.array([1.5, -0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_distribution_rejects_non_finite_weights(bad):
    """NaN passes the sign and the sum test, so it is refused on its own."""
    with pytest.raises(ValueError, match="finite"):
        FiniteDistribution(small_domain(2), np.array([bad, 0.5]))


def test_distribution_expectation_and_weight_of():
    dom = small_domain(3)
    d = FiniteDistribution(dom, np.array([0.2, 0.3, 0.5]))
    assert d.weight_of((2,)) == pytest.approx(0.5)
    phi = QueryFn(dom, np.array([1.0, -1.0, 0.0]), SIGNED)
    assert d.expectation(phi) == pytest.approx(0.2 - 0.3)
    # raw arrays work too
    assert d.expectation(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.5)


def test_distribution_sampling_matches_weights():
    dom = small_domain(3)
    d = FiniteDistribution(dom, np.array([0.2, 0.3, 0.5]))
    rng = np.random.default_rng(0)
    idx = d.sample_indices(rng, 20000)
    freqs = np.bincount(idx, minlength=3) / 20000
    assert np.allclose(freqs, d.weights, atol=0.02)
    # determinism under a fixed seed
    idx2 = FiniteDistribution(dom, d.weights).sample_indices(np.random.default_rng(0), 20000)
    assert np.array_equal(idx, idx2)


@given(
    weights=st.lists(st.sampled_from([0.0, 1e-9, 0.1, 0.3, 1.0]), min_size=1, max_size=8),
    total=st.sampled_from([1.0, 1.0 - 2.0**-52, 0.999, 0.5]),
    size=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
@example(weights=[1.0], total=1.0, size=50, seed=0)  # a single point
@example(weights=[0.0, 1.0, 0.0], total=1.0, size=50, seed=1)  # zero weights at both ends
@example(weights=[0.3, 0.3, 0.0], total=0.5, size=200, seed=2)  # the clamp lands on a zero weight
def test_draw_counts_is_the_bincount_of_draw_indices(weights, total, size, seed):
    """Counting the sorted uniforms gives the counts of the unsorted draw,
    including the clamp of a cdf whose total rounds below 1, and consumes the
    same uniforms."""
    w = np.array(weights)
    if w.sum() == 0.0:
        w[-1] = 1.0
    w = w / w.sum() * total
    rng_idx, rng_cnt = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = np.bincount(draw_indices(w, rng_idx, size), minlength=len(w))
    counts = draw_counts(w, rng_cnt, size)
    assert np.array_equal(counts, expected)
    assert counts.shape == (len(w),) and counts.sum() == size
    assert rng_cnt.bit_generator.state == rng_idx.bit_generator.state


class _FixedUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, u):
        self.u = np.array(u, dtype=float)

    def random(self, size):
        return self.u[:size].copy()


def test_draw_counts_sends_a_uniform_on_a_cdf_value_to_the_next_index():
    """A uniform equal to cdf[i] is drawn as index i + 1 by draw_indices
    (side="right"), so the counts must not keep it in cell i."""
    w = np.array([0.25, 0.25, 0.5])
    u = [0.0, 0.25, 0.5, 0.5, 0.75, 0.25]
    expected = np.bincount(draw_indices(w, _FixedUniforms(u), len(u)), minlength=3)
    assert expected.tolist() == [1, 2, 3]
    assert np.array_equal(draw_counts(w, _FixedUniforms(u), len(u)), expected)


@st.composite
def dyadic_weights(draw):
    """(k, weights): multiples of 2^-k summing to 1, from sorted cut points
    in [0, 2^k], so a repeated cut, a cut at 0 or one at 2^k gives a zero
    weight in the middle or at an end."""
    k = draw(st.integers(0, 12))
    cuts = sorted(draw(st.lists(st.integers(0, 2**k), max_size=9)))
    return k, np.diff([0, *cuts, 2**k]) / 2.0**k


@given(
    kw=dyadic_weights(),
    total=st.sampled_from([1.0, 1.0 - 2.0**-52]),
    size=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
@example(kw=(2, np.array([0.0, 0.25, 0.0, 0.75, 0.0])), total=1.0, size=300, seed=3)
@example(kw=(10, np.array([3, 4, 1017]) / 1024), total=1.0 - 2.0**-52, size=400, seed=4)
def test_draw_counts_on_a_dyadic_grid_is_the_bincount_of_draw_indices(kw, total, size, seed):
    """Dyadic weights put the cdf on a grid, where uniforms often fall on a
    cdf value or a bucket edge: the sorted-uniform counts and the rng state
    are those of the unsorted draw. A total of 1 - 2^-52 is taken from the
    last positive weight, so the cdf leaves the grid unless that weight is
    the last one."""
    k, w = kw
    if total != 1.0:
        w[np.flatnonzero(w)[-1]] -= 2.0**-52
    if k <= _GRID_BITS and (total == 1.0 or w[-1] > 0):
        assert dyadic_edges(np.cumsum(w)) is not None
    rng_idx, rng_cnt = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = np.bincount(draw_indices(w, rng_idx, size), minlength=len(w))
    assert np.array_equal(draw_counts(w, rng_cnt, size), expected)
    assert rng_cnt.bit_generator.state == rng_idx.bit_generator.state


@pytest.mark.parametrize(
    "weights,u,grid",
    [
        # cdf 1/8, 1/2, 1 on 8 buckets: 1/4, 3/8, 5/8 and 3/4 start buckets
        # but are no cdf value
        ([0.125, 0.375, 0.5], [0.25, 0.375, 0.625, 0.75, 0.0, 0.999], 8),
        # uniforms exactly on cdf values 3/1024 and 7/1024, and an ulp below
        ([3 / 1024, 4 / 1024, 1017 / 1024],
         [3 / 1024, 7 / 1024, np.nextafter(3 / 1024, 0), np.nextafter(7 / 1024, 0)], 1024),
        # a cdf that ends an ulp above 1, and a uniform an ulp below 1
        ([0.25, 0.25, 0.5 + 2.0**-52, 0.0], [0.5, 1 - 2.0**-53, 0.25, 0.75], 4),
    ],
    ids=["bucket-edge-not-a-cdf-value", "on-a-cdf-value", "cdf-ends-an-ulp-above-1"],
)
def test_draw_counts_on_a_grid_matches_draw_indices_at_the_edges(weights, u, grid):
    """Stub uniforms on bucket edges are counted as draw_indices draws them:
    one on a cdf value goes to the next index, one on any other edge stays
    in its cell, and the last index takes the rest."""
    w = np.array(weights)
    edges = dyadic_edges(np.cumsum(w))
    assert edges is not None and edges[-1] == grid
    expected = np.bincount(draw_indices(w, _FixedUniforms(u), len(u)), minlength=len(w))
    assert np.array_equal(draw_counts(w, _FixedUniforms(u), len(u)), expected)


def test_uniform_and_close_to():
    dom = small_domain(4)
    u = FiniteDistribution.uniform(dom)
    assert np.allclose(u.weights, 0.25)
    v = FiniteDistribution(dom, np.array([0.25, 0.25, 0.25, 0.25]))
    assert u.close_to(v)
    w = FiniteDistribution(dom, np.array([0.3, 0.2, 0.25, 0.25]))
    assert not u.close_to(w)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def test_query_range_validation():
    dom = small_domain(2)
    with pytest.raises(ValueError):
        QueryFn(dom, np.array([2.0, 0.0]), SIGNED)
    with pytest.raises(ValueError):
        QueryFn(dom, np.array([-0.1, 0.5]), UNIT)


@pytest.mark.parametrize("tag", [SIGNED, UNIT])
def test_query_rejects_non_finite_values(tag):
    with pytest.raises(ValueError, match="finite"):
        QueryFn(small_domain(2), np.array([math.nan, 0.5]), tag)


def test_indicator_and_negate():
    dom = small_domain(3)
    q = QueryFn.indicator(dom, [(1,), (2,)])
    assert q.range_tag == UNIT
    assert np.array_equal(q.values, [0.0, 1.0, 1.0])
    nq = q.negate()
    assert nq.range_tag == UNIT
    assert np.array_equal(nq.values, [1.0, 0.0, 0.0])
    s = QueryFn(dom, np.array([0.5, -1.0, 1.0]), SIGNED)
    assert np.array_equal(s.negate().values, [-0.5, 1.0, -1.0])


def test_from_callable():
    dom = small_domain(4)
    q = QueryFn.from_callable(dom, lambda x: 1.0 if x[0] % 2 == 0 else -1.0)
    assert np.array_equal(q.values, [1.0, -1.0, 1.0, -1.0])


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def test_measure_constructors():
    assert np.allclose(Measure.uniform(4).weights, 0.25)
    pm = Measure.point_mass(3, 1)
    assert np.array_equal(pm.weights, [0.0, 1.0, 0.0])
    m = Measure.from_weights([0.2, 0.3, 0.5])
    assert np.allclose(m.weights, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        Measure.from_weights([2.0, 3.0, 5.0])  # must already be normalized
    with pytest.raises(ValueError):
        Measure(2, np.array([0.5, -0.5]))


@pytest.mark.parametrize("weights", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]])
def test_measure_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="finite"):
        Measure.from_weights(weights)


def test_measure_mass_support_conditioning():
    m = Measure.from_weights([0.2, 0.3, 0.5])
    assert m.mass([0, 2]) == pytest.approx(0.7)
    assert list(m.support) == [0, 1, 2]
    cond = m.conditioned_on([0, 2])
    assert np.allclose(cond.weights, [0.2 / 0.7, 0.0, 0.5 / 0.7])
    assert list(cond.support) == [0, 2]
    with pytest.raises(ValueError):
        Measure.point_mass(3, 1).conditioned_on([0, 2])


# ---------------------------------------------------------------------------
# vertex gap tables
# ---------------------------------------------------------------------------


def _assert_vertex_table(table, m, n):
    assert table.dtype == np.float64 and table.shape == (1 << n, m)
    assert table.flags.c_contiguous


_VERTEX_INSTANCES = [
    (biclique, (3, 1)), (biclique, (3, 2)), (biclique, (4, 1)), (biclique, (4, 2)),
    (biclique, (4, 3)), (biclique, (4, 4)), (line_problem, (2,)),
]


@pytest.mark.parametrize(
    "generator,params",
    _VERTEX_INSTANCES,
    ids=[f"{g.__name__}{params}".replace(" ", "") for g, params in _VERTEX_INSTANCES],
)
def test_vertex_gaps_match_the_vertex_table_product_on_the_generators(generator, params):
    """Generator weights are dyadic, so every vertex sum is exact and the
    subset sums equal the product with the shift-and-mask vertex table to
    the bit."""
    problem = generator(*params, kind="decision")
    d_mat = np.array([d.weights for d in problem.dists])
    d0 = problem.reference.weights
    m, n = d_mat.shape
    table = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    gaps = vertex_gaps(d_mat, d0)
    _assert_vertex_table(gaps, m, n)
    assert np.array_equal(gaps, sqrt_gap(table @ d_mat.T, (table @ d0)[:, None]))


@given(data=st.data())
def test_vertex_gaps_add_each_vertex_left_to_right(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 4))
    weights = np.array([data.draw(weight_vectors(n)) for _ in range(m + 1)])
    sums = vertex_sums(weights)
    gaps = vertex_gaps(weights[:m], weights[m])
    _assert_vertex_table(gaps, m, n)
    assert np.array_equal(gaps, sqrt_gap(sums[:, :m], sums[:, m:]))


@pytest.mark.parametrize("bits", [1, 2, 3])
@given(data=st.data())
def test_vertex_gap_blocks_add_each_vertex_left_to_right_in_small_blocks(bits, data):
    """With blocks of 2, 4 or 8 vertices the walk builds most blocks from
    their parent block: every block and the table filled from them are
    still bitwise the one-vertex-at-a-time sums, and the blocks cover each
    vertex once."""
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 4))
    weights = np.array([data.draw(weight_vectors(n)) for _ in range(m + 1)])
    sums = vertex_sums(weights)
    expected = sqrt_gap(sums[:, :m], sums[:, m:])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_BITS", bits)
        size = 1 << min(n, bits)
        starts = []
        for start, gaps in vertex_gap_blocks(weights[:m], weights[m]):
            _assert_vertex_table(gaps, m, min(n, bits))
            assert np.array_equal(gaps, expected[start : start + size])
            starts.append(start)
        assert sorted(starts) == list(range(0, 1 << n, size))
        assert np.array_equal(vertex_gaps(weights[:m], weights[m]), expected)


def test_vertex_gaps_on_one_point_and_one_member():
    gaps = vertex_gaps(np.array([[0.25], [1.0]]), np.array([0.0625]))
    _assert_vertex_table(gaps, 2, 1)
    assert gaps.tolist() == [[0.0, 0.0], [0.25, 0.75]]
    gaps = vertex_gaps(np.array([[0.5, 0.25]]), np.array([0.25, 0.5]))
    _assert_vertex_table(gaps, 1, 2)
    root = math.sqrt(0.5)
    assert gaps.tolist() == [[0.0], [root - 0.5], [root - 0.5], [0.0]]


# ---------------------------------------------------------------------------
# mixtures and divergences
# ---------------------------------------------------------------------------


def test_mixture_is_uniform():
    dom = small_domain(2)
    d1 = FiniteDistribution(dom, np.array([1.0, 0.0]))
    d2 = FiniteDistribution(dom, np.array([0.0, 1.0]))
    assert np.allclose(mixture([d1, d2]).weights, [0.5, 0.5])


def test_mixture_rejects_domain_mismatch():
    d1 = FiniteDistribution.uniform(small_domain(2))
    d2 = FiniteDistribution.uniform(small_domain(3))
    with pytest.raises(DomainMismatchError):
        mixture([d1, d2])


def test_kl_known_value_and_support():
    dom = small_domain(2)
    half = FiniteDistribution(dom, np.array([0.5, 0.5]))
    skew = FiniteDistribution(dom, np.array([0.25, 0.75]))
    point = FiniteDistribution(dom, np.array([1.0, 0.0]))
    assert kl_divergence(half, half) == 0.0
    assert kl_divergence(half, skew) == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3))
    assert kl_divergence(point, half) == pytest.approx(math.log(2))
    with pytest.raises(SupportError):
        kl_divergence(half, point)


@given(
    w1=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
    w2=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_kl_nonnegative(w1, w2):
    dom = small_domain(3)
    d = FiniteDistribution(dom, np.array(w1) / np.sum(w1))
    e = FiniteDistribution(dom, np.array(w2) / np.sum(w2))
    assert kl_divergence(d, e) >= -1e-12


def test_likelihood_hat():
    dom = small_domain(2)
    d = FiniteDistribution(dom, np.array([0.75, 0.25]))
    d0 = FiniteDistribution(dom, np.array([0.5, 0.5]))
    assert np.allclose(likelihood_hat(d, d0), [0.5, -0.5])
    point = FiniteDistribution(dom, np.array([1.0, 0.0]))
    with pytest.raises(SupportError):
        likelihood_hat(d, point)


def test_likelihood_hats_divide_the_member_matrix_and_name_the_first_offender():
    dom = small_domain(4)
    d0 = FiniteDistribution(dom, np.array([0.5, 0.5, 0.0, 0.0]))
    inside = [FiniteDistribution(dom, np.array(w)) for w in ([0.25, 0.75, 0, 0], [1.0, 0, 0, 0])]
    hats = likelihood_hats(inside, d0)
    assert hats.tolist() == [[-0.5, 0.5, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]]
    at_3 = FiniteDistribution(dom, np.array([0.5, 0.25, 0.0, 0.25]))
    at_2 = FiniteDistribution(dom, np.array([0.5, 0.25, 0.25, 0.0]))
    with pytest.raises(SupportError, match=r"at \[\(3,\)\]$"):
        likelihood_hats([*inside, at_3, at_2], d0)
    with pytest.raises(SupportError, match=r"at \[\(2,\)\]$"):
        likelihood_hats([at_2, *inside, at_3], d0)
    stranger = FiniteDistribution(small_domain(5), np.full(5, 0.2))
    with pytest.raises(DomainMismatchError):
        likelihood_hats([*inside, stranger, at_3], d0)


@given(data=st.data())
def test_likelihood_hats_rows_are_each_members_masked_divide(data):
    n = data.draw(st.integers(1, 8))
    d0 = FiniteDistribution(small_domain(n), data.draw(weight_vectors(n)))
    dists = [FiniteDistribution(small_domain(n), data.draw(weight_vectors(n)))
             for _ in range(data.draw(st.integers(1, 5)))]
    hats = likelihood_hats(dists, d0)
    for row, d in zip(hats, dists):
        assert np.array_equal(row, d.weights / d0.weights - 1.0)


# ---------------------------------------------------------------------------
# labeled domains
# ---------------------------------------------------------------------------


def test_bayes_error_uniform_and_deterministic():
    jd = FiniteDomain(((0, -1), (0, 1), (1, -1), (1, 1)))
    assert bayes_error(FiniteDistribution.uniform(jd)) == pytest.approx(0.5)
    det = FiniteDistribution(jd, np.array([0.0, 0.3, 0.7, 0.0]))
    assert bayes_error(det) == pytest.approx(0.0)
    mixed = FiniteDistribution(jd, np.array([0.1, 0.2, 0.4, 0.3]))
    # pointwise min of the two label masses
    assert bayes_error(mixed) == pytest.approx(0.1 + 0.3)
    with pytest.raises(DomainMismatchError):
        bayes_error(FiniteDistribution.uniform(small_domain(2)))


def test_pac_lift_places_mass_on_true_labels():
    base = small_domain(2)
    marg = FiniteDistribution(base, np.array([0.3, 0.7]))
    lift = pac_lift(marg, lambda z: 1 if z[0] == 0 else -1)
    assert lift.weight_of((0, 1)) == pytest.approx(0.3)
    assert lift.weight_of((1, -1)) == pytest.approx(0.7)
    assert lift.weight_of((0, -1)) == 0.0
    assert bayes_error(lift) == 0.0


# ---------------------------------------------------------------------------
# problem specs
# ---------------------------------------------------------------------------


def _toy_search_problem():
    dom = small_domain(2)
    dists = [
        FiniteDistribution(dom, np.array([0.9, 0.1])),
        FiniteDistribution(dom, np.array([0.1, 0.9])),
    ]
    validity = np.eye(2, dtype=bool)
    return ProblemSpec(
        kind=SEARCH,
        domain=dom,
        dists=tuple(dists),
        solutions=("lo", "hi"),
        validity=validity,
    )


def test_problem_spec_validity_lookups():
    spec = _toy_search_problem()
    assert spec.n_dists == 2 and spec.n_solutions == 2
    assert spec.solution_index("hi") == 1
    assert list(spec.valid_solution_indices(0)) == [0]
    assert list(spec.solved_dist_indices(1)) == [1]


def test_with_threshold_validity():
    from sqlab import VERIFIABLE

    dom = small_domain(2)
    dists = [
        FiniteDistribution(dom, np.array([0.9, 0.1])),
        FiniteDistribution(dom, np.array([0.5, 0.5])),
    ]
    verify = {
        "a": QueryFn.indicator(dom, [(1,)]),
        "b": QueryFn.indicator(dom, [(0,)]),
    }
    thresh = ProblemSpec.with_threshold_validity(
        VERIFIABLE, dom, dists, ("a", "b"), verify, threshold=0.5
    )
    # D[phi_f] <= theta (plus tie slack) marks f valid for D
    assert list(thresh.valid_solution_indices(0)) == [0]       # a: 0.1 <= 0.5; b: 0.9 > 0.5
    assert list(thresh.valid_solution_indices(1)) == [0, 1]    # both exactly 0.5
    assert thresh.threshold == pytest.approx(0.5)
    # hand-building a spec whose validity contradicts the threshold fails
    with pytest.raises(ValueError):
        ProblemSpec(
            kind=VERIFIABLE,
            domain=dom,
            dists=tuple(dists),
            solutions=("a", "b"),
            validity=np.ones((2, 2), dtype=bool),
            verify=verify,
            threshold=0.5,
        )


@pytest.mark.parametrize("build,args", [(biclique, (4, 2)), (line_problem, (5,))])
def test_problem_spec_views_are_cached_read_only_and_fresh(build, args):
    """The member matrix and the uniform mixture are built once per spec,
    cannot be written, and have the bits of a fresh build."""
    prob = build(*args)
    mat = prob.dist_matrix
    assert mat is prob.dist_matrix
    fresh = np.array([d.weights for d in prob.dists])
    assert mat.shape == fresh.shape and mat.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        mat[0, 0] = 0.0
    mix = prob.uniform_mixture
    assert mix is prob.uniform_mixture
    assert mix.weights.tobytes() == mixture(list(prob.dists)).weights.tobytes()
    with pytest.raises(ValueError):
        mix.weights[0] = 0.0
    with pytest.raises(AttributeError):
        mix.weights = fresh[0]


def test_problem_spec_rejects_shape_mismatch():
    dom = small_domain(2)
    d = FiniteDistribution.uniform(dom)
    with pytest.raises(ValueError):
        ProblemSpec(
            kind=DECISION,
            domain=dom,
            dists=(d,),
            solutions=("a", "b"),
            validity=np.ones((2, 2), dtype=bool),
        )
