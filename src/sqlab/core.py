"""Finite domains, distributions, queries, measures and problem instances.

Everything downstream (oracles, norms, dimensions, solvers) works over a
finite domain X with distributions represented as dense weight vectors.
Conventions used throughout the package:

- A *query* is a function phi: X -> R with a declared range, either
  ``SIGNED`` ([-1, 1]) or ``UNIT`` ([0, 1]).
- ``likelihood_hat(D, D0)`` is the centered likelihood ratio
  Dhat(x) = D(x)/D0(x) - 1 on the support of D0 (and 0 off it), so that
  E_{D0}[Dhat] = 0 and E_D[phi] - E_{D0}[phi] = E_{D0}[phi * Dhat].
- Labeled domains (the line family's, and the heavy-point learner's) have
  elements whose last component is a label in {-1, +1}; ``pac_lift`` builds
  them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainMismatchError, StreamExhaustedError, SupportError

__all__ = [
    "SIGNED",
    "UNIT",
    "K1",
    "KV",
    "DECISION",
    "SEARCH",
    "VERIFIABLE",
    "WEIGHT_ATOL",
    "FiniteDomain",
    "FiniteDistribution",
    "QueryFn",
    "Measure",
    "ProblemSpec",
    "vertex_gap_blocks",
    "vertex_gaps",
    "draw_indices",
    "draw_counts",
    "cdf_counts",
    "dyadic_edges",
    "SampleStream",
    "witness_count",
    "sqrt_scale",
    "sqrt_gap",
    "mixture",
    "kl_divergence",
    "likelihood_hat",
    "likelihood_hats",
    "bayes_error",
    "pac_lift",
    "is_labeled_domain",
]

#: Probability vectors must sum to 1 within this absolute tolerance.
WEIGHT_ATOL = 1e-12
#: Query values may stick out of their declared range by at most this much.
RANGE_ATOL = 1e-12

SIGNED = "signed"
UNIT = "unit"

#: Discrimination-operator tags: K1 = signed queries / L1-style margins,
#: KV = unit queries compared on the square-root scale.
K1 = "k1"
KV = "kv"

DECISION = "decision"
SEARCH = "search"
VERIFIABLE = "verifiable"

PROBLEM_KINDS = (DECISION, SEARCH, VERIFIABLE)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FiniteDomain:
    """An ordered finite ground set.

    Elements are hashable identifiers (strings, ints, or tuples); the order
    is significant because distributions and queries store weight/value
    vectors indexed by it.
    """

    elements: tuple

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        index = {}
        for i, el in enumerate(elements):
            if el in index:
                raise DomainMismatchError(f"duplicate domain element: {el!r}")
            index[el] = i
        object.__setattr__(self, "_index", index)
        if not elements:
            raise DomainMismatchError("domain must be non-empty")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise DomainMismatchError(f"element {element!r} not in domain") from None

    def __contains__(self, element) -> bool:
        return element in self._index


def _check_same_domain(a, b) -> None:
    if a.domain is not b.domain and a.domain != b.domain:
        raise DomainMismatchError("objects live on different domains")


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A probability distribution over a :class:`FiniteDomain`.

    Weights are non-negative and sum to 1 within ``WEIGHT_ATOL``. The weight
    vector is stored read-only; treat instances as immutable values.
    """

    domain: FiniteDomain
    weights: np.ndarray

    def __post_init__(self):
        w = _readonly(self.weights)
        object.__setattr__(self, "weights", w)
        if w.shape != (len(self.domain),):
            raise DomainMismatchError(
                f"weight vector has shape {w.shape}, domain has {len(self.domain)} elements"
            )
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("distribution weights must be finite and non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_ATOL:
            raise ValueError(f"weights sum to {total!r}, not 1 (tolerance {WEIGHT_ATOL})")

    @classmethod
    def uniform(cls, domain: FiniteDomain) -> "FiniteDistribution":
        n = len(domain)
        return cls(domain, np.full(n, 1.0 / n))

    def weight_of(self, element) -> float:
        return float(self.weights[self.domain.index_of(element)])

    def expectation(self, query) -> float:
        """E_D[phi] for a QueryFn or a raw value vector on the same domain."""
        if isinstance(query, QueryFn):
            _check_same_domain(self, query)
            values = query.values
        else:
            values = np.asarray(query, dtype=float)
            if values.shape != self.weights.shape:
                raise DomainMismatchError("value vector length does not match domain")
        return float(self.weights @ values)

    def close_to(self, other: "FiniteDistribution", atol: float = 1e-12) -> bool:
        return self.domain == other.domain and bool(
            np.max(np.abs(self.weights - other.weights)) <= atol
        )

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. element indices."""
        return draw_indices(self.weights, rng, size)


@dataclass(frozen=True, eq=False)
class QueryFn:
    """A query phi: X -> R with a declared range tag (SIGNED or UNIT)."""

    domain: FiniteDomain
    values: np.ndarray
    range_tag: str = SIGNED

    def __post_init__(self):
        v = _readonly(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (len(self.domain),):
            raise DomainMismatchError("query value vector length does not match domain")
        if self.range_tag not in (SIGNED, UNIT):
            raise ValueError(f"unknown range tag {self.range_tag!r}")
        lo = -1.0 if self.range_tag == SIGNED else 0.0
        if not np.all((v >= lo - RANGE_ATOL) & (v <= 1.0 + RANGE_ATOL)):
            raise ValueError(f"query values must be finite and in the {self.range_tag} range")

    @classmethod
    def from_callable(cls, domain: FiniteDomain, fn: Callable, range_tag: str = SIGNED) -> "QueryFn":
        return cls(domain, np.array([fn(el) for el in domain.elements], dtype=float), range_tag)

    @classmethod
    def indicator(cls, domain: FiniteDomain, members: Iterable) -> "QueryFn":
        """0/1 indicator of a subset (UNIT range)."""
        member_set = set(members)
        vals = np.array([1.0 if el in member_set else 0.0 for el in domain.elements])
        return cls(domain, vals, UNIT)

    def negate(self) -> "QueryFn":
        if self.range_tag == UNIT:
            return QueryFn(self.domain, 1.0 - self.values, UNIT)
        return QueryFn(self.domain, -self.values, SIGNED)


@dataclass(frozen=True, eq=False)
class Measure:
    """A probability measure over an indexed ground list of size ``size``.

    Used both for measures over distribution classes (discrimination
    fractions, game strategies) and over solution sets.
    """

    size: int
    weights: np.ndarray

    def __post_init__(self):
        w = _readonly(self.weights)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.size,):
            raise ValueError("measure weight vector has wrong length")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("measure weights must be finite and non-negative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_ATOL:
            raise ValueError("measure weights must sum to 1")

    @classmethod
    def uniform(cls, size: int) -> "Measure":
        return cls(size, np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, size: int, index: int) -> "Measure":
        w = np.zeros(size)
        w[index] = 1.0
        return cls(size, w)

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "Measure":
        w = np.asarray(weights, dtype=float)
        return cls(len(w), w)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)

    def mass(self, indices: Iterable[int]) -> float:
        idx = np.fromiter(indices, dtype=int)
        if idx.size == 0:
            return 0.0
        return float(self.weights[idx].sum())

    def conditioned_on(self, indices: Iterable[int]) -> "Measure":
        """The measure restricted to ``indices`` and renormalized."""
        w = np.zeros(self.size)
        idx = np.fromiter(indices, dtype=int)
        w[idx] = self.weights[idx]
        total = w.sum()
        if total <= 0:
            raise ValueError("restriction has zero mass")
        return Measure(self.size, w / total)


# ---------------------------------------------------------------------------
# operations on distributions
# ---------------------------------------------------------------------------


#: Vertices per block of ``vertex_gap_blocks``, as a power of two. On a
#: 2-vCPU Xeon VM, ``norms.kbarv`` on biclique(4,1) (16 points, 4 members)
#: took 1.48 ms a call with 2^13-vertex blocks, against 1.54 ms with 2^12 and
#: 1.50 ms with 2^14 (medians, the sizes interleaved in one process).
_BLOCK_BITS = 13


def vertex_gap_blocks(d_mat: np.ndarray, d0_weights: np.ndarray):
    """Yield the rows of the ``vertex_gaps`` table in blocks: pairs
    ``(start, gaps)``, where ``gaps`` is a C-ordered (2^b, m) array holding
    rows ``start`` to ``start + 2^b - 1``, with b = min(n, ``_BLOCK_BITS``).

    ``gaps`` is one buffer, overwritten by the next block: read it (or copy
    it) before advancing. The blocks come in depth-first order, not in row
    order. Block 0's member-major subset sums are built by doubling over
    the low b bits (columns 2^j to 2^(j+1) - 1 are the columns before them
    plus weight j). Every other block's sums are its parent's plus one
    weight, the parent being its index without its top bit, so vertex r
    still adds its set bits' weights from 0.0 in increasing bit order and
    every gap is bitwise the whole table's. The walk keeps one sum buffer
    per depth, and a block's last child (the one adding the bit just above
    the block's top bit) overwrites the block's sums in place, so a
    16-point domain needs two buffers and a 20-point one four. The weights
    must be non-negative: the square roots take the sums unclamped.
    """
    weights = np.vstack([d_mat, d0_weights])
    n = weights.shape[1]
    low = min(n, _BLOCK_BITS)
    # A block takes a fresh sum buffer only when its top bit is two or more
    # above its parent's (block 0's counting as -1), so a path holds at most
    # (n - low) // 2 + 1 of them. They and the square roots are one
    # allocation: glibc hands freed heap back to the system once more than
    # twice its largest freed block sits on top, and separate buffers made
    # every kbarv call on a 16-point domain fault in about 1 MB afresh.
    sums = np.empty(((n - low) // 2 + 2, len(weights), 1 << low))
    roots = sums[-1]
    sums[0, :, 0] = 0.0
    for j in range(low):
        np.add(sums[0, :, : 1 << j], weights[:, j, None], out=sums[0, :, 1 << j : 2 << j])
    gaps = np.empty((1 << low, len(d_mat)))
    stack = [(0, 0)]  # (block, index in ``sums`` of its parent's sums)
    while stack:
        block, at = stack.pop()
        if block:
            top = block.bit_length() - 1
            src = sums[at]
            if top > (block ^ 1 << top).bit_length():  # not the parent's last child
                at += 1
            np.add(src, weights[:, low + top, None], out=sums[at])
        np.sqrt(sums[at], out=roots)
        roots[:-1] -= roots[-1]
        np.abs(roots[:-1].T, out=gaps)
        yield block << low, gaps
        # pushed last-child-first, so the last child pops after its siblings
        stack.extend((block | 1 << u, at) for u in range(block.bit_length(), n - low))


def vertex_gaps(d_mat: np.ndarray, d0_weights: np.ndarray) -> np.ndarray:
    """The C-ordered (2^n, m) table of ``sqrt_gap(D_i[phi_r], D0[phi_r])`` over
    the rows D_i of the (m, n) ``d_mat`` and the vertices phi_r (bit j of r
    at x_j), for non-negative weights. Vertex r adds its set bits' weights
    from 0.0 in increasing bit order. The table is filled from the blocks of
    ``vertex_gap_blocks``; a caller that reads each row once (``norms.kbarv``)
    scans the blocks instead and never holds the table."""
    table = np.empty((1 << d_mat.shape[1], len(d_mat)))
    for start, gaps in vertex_gap_blocks(d_mat, d0_weights):
        table[start : start + len(gaps)] = gaps
    return table


def draw_indices(weights: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` i.i.d. indices from the probability vector ``weights``.

    Inverse CDF: one ``rng.random`` uniform per draw, located among the
    cumulative sums; the last index takes a uniform beyond a total that
    rounds below 1.
    """
    cdf = np.cumsum(weights)
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


def draw_counts(weights: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Per-index counts of the draw ``draw_indices(weights, rng, size)`` makes.

    From the same ``size`` uniforms: index i takes those below ``cdf[i]``
    and at or above ``cdf[i - 1]``, so a uniform equal to ``cdf[i]`` goes to
    index i + 1 as in ``draw_indices``, and the last index takes the rest
    (the clamp of ``draw_indices``). Equal to ``np.bincount`` of that draw
    with ``minlength=len(weights)``, and leaves ``rng`` in the same state.
    The counts come from the sorted uniforms (``cdf_counts``), which
    replaces ``size`` scattered binary searches over the cdf. A stream
    that needs only a row's sum over the draw takes it, on a dyadic grid,
    from a histogram of the uniforms without the counts
    (``SampleStream.draw_sum``); these counts are its reference and its
    path off a grid.
    """
    return cdf_counts(np.cumsum(weights), rng, size)


#: The finest grid ``dyadic_edges`` puts a cdf on: 2^_GRID_BITS buckets.
#: ``SampleStream.draw_sum`` sums a row from a histogram of the uniforms'
#: buckets, whose gather and dot product cost time per bucket, where the
#: sorted-uniform counts (``cdf_counts``) cost time per sample.
#: Timed on a 2-vCPU x86 VM with 256 cdf values, at 2^10 buckets a
#: histogram count took 15 against 16 us for the sort at 400 samples and
#: 73 against 104 us at 6,451; at 2^12 it lost at 400 samples (35 against
#: 24 us), at 2^13 it only tied at 6,451, and at 2^16 it took 0.6-0.8 ms.
_GRID_BITS = 10


def dyadic_edges(cdf: np.ndarray) -> np.ndarray | None:
    """The grid ``SampleStream`` buckets ``cdf`` on, or None if it is on none.

    Every cdf value but the last, clipped to [0, 1], must be a multiple
    e / K of the coarsest K = 2^k, k <= ``_GRID_BITS``, that holds them all
    (values outside [0, 1] count as the ends: every uniform lies in [0, 1)).
    Returns the e values followed by K, which ends the last index's bucket
    range whatever ``cdf[-1]`` is, so a total an ulp off 1 stays on the grid.
    Index i owns the buckets edges[i - 1] <= b < edges[i] (from 0 for
    i = 0); ``SampleStream`` finds the grid once per stream and maps each
    bucket to its owner, so that ``draw_sum`` needs no per-index counts: a
    uniform is j * 2^-53, so u * K is exact and u < e / K holds exactly
    when bucket floor(u * K) lies below e, and a uniform equal to a cdf
    value lands in the bucket the value starts, which the next index owns.
    """
    scaled = np.clip(cdf[:-1], 0.0, 1.0) * (1 << _GRID_BITS)
    if not cdf.size or not np.array_equal(scaled, np.floor(scaled)):  # empty, off the grid, or NaN
        return None
    edges = np.append(scaled.astype(np.intp), 1 << _GRID_BITS)
    bits = int(np.bitwise_or.reduce(edges))
    edges >>= (bits & -bits).bit_length() - 1  # the trailing zeros every edge shares
    return edges


def cdf_counts(cdf: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``draw_counts`` from the cumulative sums ``cdf = np.cumsum(weights)``,
    for a caller that draws from the same weights many times: the uniforms
    are sorted and each cdf value is located among them.
    """
    u = rng.random(size)
    u.sort()
    counts = np.searchsorted(u, cdf, side="left")  # the uniforms below each cdf value
    counts[-1] = size
    counts[1:] -= counts[:-1].copy()
    return counts


class SampleStream:
    """A capped source of i.i.d. samples (domain indices) from a distribution.

    ``draw_block`` lists the samples; ``draw_counts`` and ``draw_sum`` give
    their per-point counts and the sum of a row over them, from the same
    uniforms. Each raises StreamExhaustedError, drawing nothing, once the
    cap would be exceeded — running dry is a different failure mode than
    answering wrongly, and is reported as such.
    """

    def __init__(self, dist: FiniteDistribution, rng: np.random.Generator, limit: int | None = None):
        self.dist = dist
        self._cdf = np.cumsum(dist.weights)  # every draw_counts call reads it
        self._edges = dyadic_edges(self._cdf)
        # owner[b]: the point whose cdf range holds grid bucket b
        self._owner = (
            None if self._edges is None
            else np.repeat(np.arange(self._edges.size), np.diff(self._edges, prepend=0))
        )
        self.rng = rng
        self.limit = limit
        self.drawn = 0

    def _take(self, n: int) -> None:
        if self.limit is not None and self.drawn + n > self.limit:
            raise StreamExhaustedError(
                f"stream capped at {self.limit} samples; {self.drawn} drawn, {n} more requested"
            )
        self.drawn += n

    def draw_block(self, n: int) -> np.ndarray:
        self._take(n)
        return self.dist.sample_indices(self.rng, n)

    def draw_counts(self, n: int) -> np.ndarray:
        """Per-point counts of the block ``draw_block(n)`` would draw, from the
        same uniforms; the cap and the ``drawn`` count are the same too."""
        self._take(n)
        return cdf_counts(self._cdf, self.rng, n)

    def draw_sum(self, n: int, phi: np.ndarray) -> float:
        """``draw_counts(n) @ phi`` from the same uniforms, cap and ``drawn``.

        On a grid of K buckets, from the histogram of the uniforms' buckets
        and phi at each bucket's owner, without the per-point counts. Both
        add phi over the same samples, grouped and ordered differently, so
        they agree bit for bit when every partial sum is exact, as for an
        integer-valued phi (a +-1 witness row) over fewer than 2^53 samples.
        """
        if self._owner is None:
            return self.draw_counts(n) @ phi
        self._take(n)
        u = self.rng.random(n)
        u *= self._owner.size  # exact: a uniform is j * 2^-53
        return np.bincount(u.astype(np.intp), minlength=self._owner.size) @ phi[self._owner]

    def scan(self, block, n: int, stop=None):
        """The stream solver's estimates and a sampled oracle's answers: each
        row of ``block`` in order by ``draw_sum(n, row) / n``, drawn when the
        scan reaches it, up to the first j with ``stop(j, answer)``. Returns
        ``(j, answers[: j + 1])``, or ``(None, answers)`` when none stops."""
        answers = np.empty(len(block))
        for j, phi in enumerate(block):
            answers[j] = self.draw_sum(n, phi) / n
            if stop is not None and stop(j, answers[j]):
                return j, answers[: j + 1]
        return None, answers


def witness_count(d: float, delta: float) -> int:
    """ceil(d ln(1/delta)), at least 1: the number of witnesses drawn from
    a fractional cover of value d at failure probability delta."""
    return max(math.ceil(d * math.log(1.0 / delta)), 1)


def sqrt_scale(x):
    """sqrt(max(x, 0)) elementwise: expectations on the square-root (KV) scale."""
    return np.sqrt(np.maximum(x, 0.0))


def sqrt_gap(a, b):
    """|sqrt(a) - sqrt(b)| elementwise on the square-root scale: the KV
    discrimination gap between expectations ``a`` and ``b``, an array of
    ``a``'s shape (``b`` broadcasts to it)."""
    # One buffer, worked in place: a fresh temporary per step, with the
    # caller's ``a`` still alive, made glibc trim and re-fault the heap on
    # every norms.kbarv call at |X| = 16 and raised its peak memory.
    gap = np.maximum(a, 0.0, out=np.empty(np.shape(a)))
    np.sqrt(gap, out=gap)
    gap -= sqrt_scale(b)
    return np.abs(gap, out=gap)


def mixture(dists: Sequence[FiniteDistribution]) -> FiniteDistribution:
    """The uniform mixture (1/m) sum_i D_i of m distributions."""
    if not dists:
        raise ValueError("mixture of an empty family")
    domain = dists[0].domain
    for d in dists[1:]:
        _check_same_domain(dists[0], d)
    c = np.full(len(dists), 1.0 / len(dists))
    # an axis-0 sum adds the rows in order, as a running sum would
    w = (c[:, None] * np.array([d.weights for d in dists])).sum(axis=0)
    # guard against float drift before the constructor's sum check
    w /= w.sum()
    return FiniteDistribution(domain, w)


def kl_divergence(d: FiniteDistribution, e: FiniteDistribution) -> float:
    """KL(D || E) in nats; raises SupportError if D's support leaves E's."""
    _check_same_domain(d, e)
    dw, ew = d.weights, e.weights
    bad = np.flatnonzero((dw > 0) & (ew == 0))
    if bad.size:
        offenders = [d.domain.elements[i] for i in bad[:8]]
        raise SupportError(
            f"KL is infinite: {bad.size} point(s) carry D-mass but no E-mass, e.g. {offenders}"
        )
    mask = dw > 0
    return float(np.sum(dw[mask] * np.log(dw[mask] / ew[mask])))


def likelihood_hat(d: FiniteDistribution, d0: FiniteDistribution) -> np.ndarray:
    """Centered likelihood ratio Dhat = D/D0 - 1 on supp(D0), 0 elsewhere.

    Requires supp(D) <= supp(D0). Satisfies E_{D0}[Dhat] = 0 and, for any
    query phi, E_D[phi] - E_{D0}[phi] = E_{D0}[phi * Dhat].
    """
    return likelihood_hats([d], d0)[0]


def likelihood_hats(dists: Sequence[FiniteDistribution], d0: FiniteDistribution) -> np.ndarray:
    """The (m, |X|) table of ``likelihood_hat(D_i, D0)``, one row per member,
    from one masked divide over the member matrix.

    A member on another domain raises DomainMismatchError; otherwise the
    first member (in order) with mass where D0 has none raises SupportError
    naming those points.
    """
    for d in dists:
        _check_same_domain(d, d0)
    d_mat = np.array([d.weights for d in dists]).reshape(len(dists), len(d0.domain))
    mask = d0.weights > 0
    off = ~mask & (d_mat > 0)
    bad = np.flatnonzero(off.any(axis=1))
    if bad.size:
        offenders = [d0.domain.elements[i] for i in np.flatnonzero(off[bad[0]])[:8]]
        raise SupportError(f"support of D leaves support of the center at {offenders}")
    out = np.zeros_like(d_mat)
    out[:, mask] = d_mat[:, mask] / d0.weights[mask] - 1.0
    return out


def is_labeled_domain(domain: FiniteDomain) -> bool:
    """True when every element is a tuple whose last component is a +-1 label."""
    for el in domain.elements:
        if not (isinstance(el, tuple) and len(el) >= 2 and el[-1] in (-1, 1)):
            return False
    return True


def _split_labeled(element):
    base = element[:-1]
    if len(base) == 1:
        base = base[0]
    return base, element[-1]


def bayes_error(d0: FiniteDistribution) -> float:
    """min_h Pr_{(z,b)~D0}[h(z) != b] for a distribution on a labeled domain.

    Equals sum_z min(D0(z,+1), D0(z,-1)); always in [0, 1/2].
    """
    if not is_labeled_domain(d0.domain):
        raise DomainMismatchError("bayes_error needs a labeled domain (elements end in +-1)")
    pos: dict = {}
    neg: dict = {}
    for el, w in zip(d0.domain.elements, d0.weights):
        base, label = _split_labeled(el)
        (pos if label == 1 else neg)[base] = (pos if label == 1 else neg).get(base, 0.0) + float(w)
    total = 0.0
    for base in set(pos) | set(neg):
        total += min(pos.get(base, 0.0), neg.get(base, 0.0))
    return total


def pac_lift(marginal: FiniteDistribution, target) -> FiniteDistribution:
    """Lift a marginal P on Z and a target f: Z -> {-1,+1} to a labeled joint.

    The lifted distribution puts weight P(z) on (z, f(z)) and 0 on
    (z, -f(z)). The labeled domain lists, for each z in order, first
    (z, -1) then (z, +1); tuple-valued z is flattened so Line-style points
    (z1, z2) become (z1, z2, b).
    """
    if callable(target):
        f = target
    else:
        table = dict(target)
        f = table.__getitem__
    elements = []
    weights = []
    for z, w in zip(marginal.domain.elements, marginal.weights):
        label = f(z)
        if label not in (-1, 1):
            raise ValueError(f"target must be +-1 valued, got {label!r} at {z!r}")
        prefix = tuple(z) if isinstance(z, tuple) else (z,)
        for b in (-1, 1):
            elements.append(prefix + (b,))
            weights.append(float(w) if b == label else 0.0)
    return FiniteDistribution(FiniteDomain(tuple(elements)), np.array(weights))


# ---------------------------------------------------------------------------
# problem instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A distribution-family problem instance.

    ``kind`` is one of DECISION / SEARCH / VERIFIABLE.
    ``validity[f_index, d_index]`` says whether solution f is acceptable for
    distribution d. For the VERIFIABLE kind every solution f has a
    UNIT-range verify query phi_f and validity is tied to the threshold:
    valid iff D[phi_f] <= threshold. Threshold optimization runs on
    VERIFIABLE instances and takes its accuracy as an argument; ``eps``
    stays in the instance schema, and no generator sets it.
    """

    kind: str
    domain: FiniteDomain
    dists: tuple
    solutions: tuple
    validity: np.ndarray
    reference: FiniteDistribution | None = None
    verify: Mapping | None = None
    threshold: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        dists = tuple(self.dists)
        object.__setattr__(self, "dists", dists)
        solutions = tuple(self.solutions)
        object.__setattr__(self, "solutions", solutions)
        if not dists:
            raise ValueError("problem needs at least one distribution")
        for d in dists:
            if d.domain != self.domain:
                raise DomainMismatchError("all distributions must live on the problem domain")
        if self.reference is not None and self.reference.domain != self.domain:
            raise DomainMismatchError("reference must live on the problem domain")
        v = np.array(self.validity, dtype=bool, copy=True)
        v.setflags(write=False)
        object.__setattr__(self, "validity", v)
        if v.shape != (len(solutions), len(dists)):
            raise ValueError(
                f"validity matrix shape {v.shape} != (solutions={len(solutions)}, dists={len(dists)})"
            )
        if self.kind == DECISION and self.reference is None:
            raise ValueError("decision problems need a reference distribution")
        if self.kind == VERIFIABLE:
            if self.verify is None or self.threshold is None:
                raise ValueError(f"{self.kind} problems need verify queries and a threshold")
            for f in solutions:
                if f not in self.verify:
                    raise ValueError(f"solution {f!r} has no verify query")
                q = self.verify[f]
                if q.range_tag != UNIT:
                    raise ValueError("verify queries must have UNIT range")
                if q.domain != self.domain:
                    raise DomainMismatchError("verify query domain mismatch")
            # validity must agree with the threshold semantics
            for fi, f in enumerate(solutions):
                vals = np.array([d.expectation(self.verify[f]) for d in dists])
                expected = vals <= self.threshold + 1e-12
                if not np.array_equal(expected, v[fi]):
                    raise ValueError(
                        f"validity row for solution {f!r} disagrees with threshold semantics"
                    )

    # -- convenience views -------------------------------------------------

    @property
    def n_dists(self) -> int:
        return len(self.dists)

    # Built on first use and kept: the MW solvers, the stream's replay and
    # the line audit start every run from these, and the spec is immutable.

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        """The members' weight vectors as the rows of one read-only matrix."""
        m = np.array([d.weights for d in self.dists])
        m.setflags(write=False)
        return m

    @cached_property
    def uniform_mixture(self) -> FiniteDistribution:
        """The members' uniform mixture, ``mixture(list(dists))``."""
        return mixture(self.dists)

    @property
    def n_solutions(self) -> int:
        return len(self.solutions)

    def solution_index(self, f) -> int:
        try:
            return self.solutions.index(f)
        except ValueError:
            raise KeyError(f"unknown solution {f!r}") from None

    def valid_solution_indices(self, dist_index: int) -> np.ndarray:
        """Indices of solutions acceptable for dists[dist_index] (the set Z(D))."""
        return np.flatnonzero(self.validity[:, dist_index])

    def solved_dist_indices(self, solution_index: int) -> np.ndarray:
        """Indices of distributions for which this solution is acceptable (Z_f)."""
        return np.flatnonzero(self.validity[solution_index, :])

    @classmethod
    def with_threshold_validity(
        cls,
        kind: str,
        domain: FiniteDomain,
        dists: Sequence[FiniteDistribution],
        solutions: Sequence,
        verify: Mapping,
        threshold: float,
        reference: FiniteDistribution | None = None,
    ) -> "ProblemSpec":
        """Build a spec whose validity matrix is derived from the threshold rule."""
        v = np.zeros((len(solutions), len(dists)), dtype=bool)
        for fi, f in enumerate(solutions):
            vals = np.array([d.expectation(verify[f]) for d in dists])
            v[fi] = vals <= threshold + 1e-12
        return cls(
            kind=kind,
            domain=domain,
            dists=tuple(dists),
            solutions=tuple(solutions),
            validity=v,
            reference=reference,
            verify=dict(verify),
            threshold=threshold,
        )
