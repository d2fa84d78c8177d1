"""Query-complexity dimensions of distribution families.

All dimensions here are built from one primitive: which subsets of the
family can a single query distinguish from a center distribution at radius
tau (``games.achievable_subsets``). Enumerating that family is most of the
work, so one family per center serves every problem posed there:
``rsd_decision`` returns the family it built in ``DimensionReport.family``
and ``sd_decision`` takes it as ``family=``, and ``rsd_search`` enumerates
one family per candidate center and gives each inner problem that family
cut to its own members (``CoverFamily.restrict``). Nothing is cached
between calls.
On top of that:

- ``det_cover``: smallest integer cover of the family by achievable subsets
  (exact branch-and-bound or greedy).
- ``rsd_decision``: the fractional cover value. Computed twice — the primal
  covering LP and an independently-formulated hardest-measure LP
  (min_mu max_S mu(S), inverted) — and the two must agree to 1e-6; LP
  duality is what makes this a minimax identity. Distributions that no
  query distinguishes make the dimension infinite (reported as a sentinel
  with the witness indices).
- ``sd_decision``: the worst-subfamily integer ratio max_T |T| / max_S |S cap T|.
- ``rsd_search`` / ``rsd_verifiable`` / ``rsd_optimizing``: reductions of
  search-type problems to decision dimensions by removing distributions
  that a solution measure already serves, filtering candidate centers, or
  sweeping the verification threshold. Candidate centers are drawn from a
  finite list (uniform, family mixture), so these report LOWER_BOUNDs of
  the suprema they approximate. They take K1 only and raise ValueError
  under KV, where the inner values are upper bounds and the composite
  would bound the supremum in no direction.
- ``crsd``: the zero-sum-game dimension 1 / min_mu max_sigma E_mu |<sigma, D - D0>|
  over sign queries sigma (exact for K1 within the domain guard). K1 never
  writes the 2^(|X|-1)-row game out: a pure-strategy bracket at the uniform
  measure settles it without an LP when the best response pays every
  member alike, and cutting planes over generated queries otherwise; each
  best response scans the smaller of the member sign patterns and the
  domain sign rows. The |X| <= 16 guard stays, so the reports that skip
  ``crsd`` keep skipping it.
- ``combined_relation_audit``: checks the provable bracket between crsd and
  rsd_decision at derived radii.
- ``rand_to_det``: extracts a deterministic witness cover from a fractional
  cover measure by sampling, with the standard ceil(d ln(1/delta)) budget.
- ``simple_lower_bound``: the one-line lower bound
  (beta - max_f mu(Z_f)) / kappa1_frac(mu, tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    K1,
    KV,
    FiniteDistribution,
    Measure,
    ProblemSpec,
    binary_table,
    draw_indices,
    mixture,
    sqrt_gap,
    witness_count,
)
from .errors import (
    GuardExceededError,
    NumericalError,
    TheoremViolationError,
    UncoverableError,
)
from .games import (
    CoverFamily,
    achievable_subsets,
    exact_min_cover,
    fractional_cover,
    greedy_cover,
    lp_solve,
    zero_sum,
)
from .norms import EXACT, LOWER_BOUND, UPPER_BOUND, kappa1_frac, kbar2

__all__ = [
    "DimensionReport",
    "det_cover",
    "rsd_decision",
    "sd_decision",
    "rsd_search",
    "rsd_verifiable",
    "rsd_optimizing",
    "crsd",
    "combined_relation_audit",
    "rand_to_det",
    "simple_lower_bound",
]

_DUALITY_TOL = 1e-6


@dataclass(frozen=True)
class DimensionReport:
    """A dimension value with its kind tag, exactness, and certificate.

    ``value`` may be ``math.inf`` (serialized as the string "inf"); the
    certificate then names the indistinguishable distributions. On
    ``rsd_decision`` reports, ``family`` is the achievable family the value
    was computed from, so that ``sd_decision`` over the same (family,
    center, tau, kappa) can take it as ``family=`` instead of enumerating
    it again.
    """

    value: float
    kind: str
    exactness: str
    certificate: dict
    family: CoverFamily | None = field(default=None, repr=False, compare=False)


def _family(dists, d0, tau, kappa, family: CoverFamily | None = None) -> CoverFamily:
    """The achievable family of ``dists`` around ``d0``: ``family`` when it
    is given (it must match ``len(dists)``, ``tau`` and ``kappa``), else a
    fresh enumeration."""
    if family is None:
        return achievable_subsets(dists, d0, tau, kappa=kappa)
    if (family.ground_size, family.tau, family.kappa) != (len(dists), tau, kappa):
        raise ValueError(
            f"family built for {family.ground_size} distributions at tau={family.tau} "
            f"({family.kappa}) does not fit {len(dists)} at tau={tau} ({kappa})"
        )
    return family


def det_cover(
    dists: Sequence[FiniteDistribution],
    d0: FiniteDistribution,
    tau: float,
    mode: str = "exact",
    kappa: str = K1,
) -> DimensionReport:
    """Smallest number of queries that pin down every family member.

    ``mode="exact"`` uses branch-and-bound over the achievable family,
    ``mode="greedy"`` the max-coverage heuristic (first index on ties).
    Raises :class:`UncoverableError` listing distributions no query
    distinguishes at radius tau.
    """
    family = _family(dists, d0, tau, kappa)
    missing = family.uncovered()
    if missing:
        raise UncoverableError(
            f"no query distinguishes distributions {missing} at radius {tau}",
            tuple(missing),
        )
    if mode == "exact":
        chosen = exact_min_cover(family)
    elif mode == "greedy":
        chosen = greedy_cover(family)
    else:
        raise ValueError(f"unknown det_cover mode {mode!r}")
    return DimensionReport(
        value=float(len(chosen)),
        kind=f"det-cover-{mode}",
        exactness=EXACT if (mode == "exact" and kappa == K1) else UPPER_BOUND,
        certificate={
            "sets": [sorted(family.sets[j]) for j in chosen],
            "witnesses": [family.witnesses[j] for j in chosen],
        },
    )


def _hardest_measure_lp(family: CoverFamily) -> tuple[float, np.ndarray]:
    """Independently computed min over probability measures of max_S mu(S)."""
    m, k = family.ground_size, len(family.sets)
    # variables: mu_1..mu_m, z ; maximize -z
    a_ub = np.zeros((k, m + 1))
    for j, s in enumerate(family.sets):
        for i in s:
            a_ub[j, i] = 1.0
        a_ub[j, m] = -1.0
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    c = np.zeros(m + 1)
    c[m] = -1.0
    res = lp_solve(c, a_ub=a_ub, b_ub=np.zeros(k), a_eq=a_eq, b_eq=np.ones(1))
    z = -res.value
    return z, np.clip(res.x[:m], 0.0, None)


def rsd_decision(
    dists: Sequence[FiniteDistribution],
    d0: FiniteDistribution,
    tau: float,
    kappa: str = K1,
) -> DimensionReport:
    """Fractional cover value of the achievable family (the minimax dimension).

    Computes the covering LP and, independently, the hardest-measure LP
    min_mu max_S mu(S); LP duality forces value = 1/(that minimum), and the
    two routes must agree within 1e-6 or a NumericalError is raised.

    An empty family (no distributions) reports 0; a distribution no query
    distinguishes reports value = inf with the witnesses. The report
    carries the family it enumerated (see ``DimensionReport.family``).
    """
    if not dists:
        exactness = EXACT if kappa == K1 else UPPER_BOUND
        return DimensionReport(0.0, "rsd-decision", exactness, {"note": "empty family"})
    return _cover_dimension(_family(dists, d0, tau, kappa))


def _cover_dimension(family: CoverFamily) -> DimensionReport:
    """``rsd_decision`` on an enumerated, non-empty ground family: the
    uncovered check, the cover LP, the hardest-measure LP and their duality
    check."""
    exactness = EXACT if family.kappa == K1 else UPPER_BOUND
    missing = family.uncovered()
    if missing:
        return DimensionReport(
            value=math.inf,
            kind="rsd-decision",
            exactness=exactness,
            certificate={"indistinguishable": list(missing)},
            family=family,
        )
    cover = fractional_cover(family)
    z, mu = _hardest_measure_lp(family)
    if z <= 0:
        raise NumericalError("hardest-measure LP returned a non-positive value")
    dual_value = 1.0 / z
    if abs(dual_value - cover.value) > _DUALITY_TOL * max(1.0, cover.value):
        raise NumericalError(
            f"primal cover {cover.value!r} and dual measure bound {dual_value!r} disagree"
        )
    return DimensionReport(
        value=cover.value,
        kind="rsd-decision",
        exactness=exactness,
        certificate={
            "sets": [sorted(s) for s in family.sets],
            "witnesses": list(family.witnesses),
            "cover_measure": cover.q,
            "cover_weights": cover.y,
            "hardest_measure": mu,
            "dual_value": dual_value,
        },
        family=family,
    )


def sd_decision(
    dists: Sequence[FiniteDistribution],
    d0: FiniteDistribution,
    tau: float,
    kappa: str = K1,
    family: CoverFamily | None = None,
) -> DimensionReport:
    """max over subfamilies T of |T| / (largest achievable overlap with T).

    Exhaustive over subfamilies (guard |dists| <= 16). A distribution in no
    achievable subset makes the value infinite. ``family`` is the achievable
    family to use instead of enumerating it, such as the one an
    ``rsd_decision`` report carries (see ``DimensionReport.family``).

    KV reports an UPPER_BOUND: the vertex family under-approximates
    achievability, so every overlap can only shrink and the ratio grow.
    """
    m = len(dists)
    if m > 16:
        raise GuardExceededError(f"sd_decision: 2^{m} subfamilies exceed the guard")
    exactness = EXACT if kappa == K1 else UPPER_BOUND
    if m == 0:
        return DimensionReport(0.0, "sd-decision", exactness, {})
    family = _family(dists, d0, tau, kappa, family)
    missing = family.uncovered()
    if missing:
        return DimensionReport(
            value=math.inf,
            kind="sd-decision",
            exactness=exactness,
            certificate={"indistinguishable": list(missing), "subfamily": list(missing)},
        )
    # subfamily t is the bit mask t of the members; size[t] its popcount
    size = np.zeros(1 << m, dtype=np.int64)
    for i in range(m):
        size[1 << i : 2 << i] = size[: 1 << i] + 1
    subsets = np.arange(1 << m)
    overlap = np.zeros(1 << m, dtype=np.int64)
    for s in family.sets:
        np.maximum(overlap, size[subsets & sum(1 << i for i in s)], out=overlap)
    ratio = size[1:] / overlap[1:]
    # the first t of the largest ratio: ratios of whole numbers up to 16 are
    # equal to the bit or at least 1/240 apart
    best_t = int(np.argmax(ratio)) + 1
    subfamily = [i for i in range(m) if (best_t >> i) & 1]
    return DimensionReport(
        value=float(ratio[best_t - 1]),
        kind="sd-decision",
        exactness=exactness,
        certificate={"subfamily": subfamily},
    )


def _candidate_centers(problem: ProblemSpec):
    return [
        ("uniform-domain", FiniteDistribution.uniform(problem.domain)),
        ("uniform-mixture", mixture(list(problem.dists))),
    ]


def _solution_measures(problem: ProblemSpec):
    n = problem.n_solutions
    measures = [(f"point:{problem.solutions[i]!r}", Measure.point_mass(n, i)) for i in range(n)]
    if n <= 10:
        for bits in range(1, 1 << n):
            members = [i for i in range(n) if (bits >> i) & 1]
            if len(members) < 2:
                continue
            w = np.zeros(n)
            w[members] = 1.0 / len(members)
            measures.append((f"uniform:{members}", Measure(n, w)))
    elif n > 1:
        measures.append(("uniform:all", Measure.uniform(n)))
    return measures


def _require_k1(name: str, kappa: str) -> None:
    """The search-type dimensions take K1 only: under KV every inner
    ``rsd_decision`` value is an UPPER_BOUND, and a max-min of upper bounds
    over a finite center list bounds the supremum in no direction."""
    if kappa != K1:
        raise ValueError(f"{name} has no certified direction under kappa {kappa!r}; use K1")


def rsd_search(
    problem: ProblemSpec,
    tau: float,
    alpha: float = 1.0,
    kappa: str = K1,
) -> DimensionReport:
    """Search-problem dimension: the best center must still be hard after any
    solution measure removes the distributions it already serves.

    value = max over candidate centers of min over solution measures P of
    rsd_decision(dists minus {D : P(Z(D)) >= alpha}, center, tau). Candidate
    centers come from a finite list (uniform over the domain, the family
    mixture), so the report is a LOWER_BOUND of the true supremum over all
    centers.

    Each center's achievable family is enumerated once, over the members
    that some solution measure leaves unserved; every inner problem is that
    family cut to its own members (``CoverFamily.restrict``), which gives
    the sets a fresh enumeration would, in the same order.
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    _require_k1("rsd_search", kappa)
    # The served set of a solution measure does not depend on the center, and
    # measures that serve the same set pose the same inner problem: keep the
    # first tag of each set (a later tie never wins the strict < below).
    by_served: dict[tuple, str] = {}
    for p_tag, p in _solution_measures(problem):
        served = tuple(
            i
            for i in range(problem.n_dists)
            if p.mass(problem.valid_solution_indices(i)) >= alpha - 1e-12
        )
        by_served.setdefault(served, p_tag)
    everyone = tuple(range(problem.n_dists))
    if everyone in by_served:
        # A measure that serves every member leaves nothing to decide: the
        # value is 0 at every center, and the first center keeps it.
        return DimensionReport(
            value=0.0,
            kind="rsd-search",
            exactness=LOWER_BOUND,
            certificate={
                "center": _candidate_centers(problem)[0][0],
                "solution_measure": by_served[everyone],
                "removed": list(everyone),
                "inner": None,
            },
        )
    kept = {served: [i for i in everyone if i not in served] for served in by_served}
    union = sorted(set().union(*kept.values()))
    position = {i: j for j, i in enumerate(union)}
    best_val, best_cert = -1.0, {}
    for tag, center in _candidate_centers(problem):
        full = achievable_subsets([problem.dists[i] for i in union], center, tau, kappa=kappa)
        worst_val, worst_cert = math.inf, {}
        for served, p_tag in by_served.items():
            inner = _cover_dimension(full.restrict([position[i] for i in kept[served]]))
            if inner.value < worst_val:
                worst_val = inner.value
                worst_cert = {
                    "solution_measure": p_tag,
                    "removed": list(served),
                    "inner": inner.certificate,
                }
        if worst_val > best_val:
            best_val = worst_val
            best_cert = {"center": tag, **worst_cert}
    return DimensionReport(
        value=best_val,
        kind="rsd-search",
        exactness=LOWER_BOUND,
        certificate=best_cert,
    )


def _verify_values(problem: ProblemSpec, dist: FiniteDistribution) -> np.ndarray:
    return np.array([dist.expectation(problem.verify[f]) for f in problem.solutions])


def rsd_verifiable(
    problem: ProblemSpec,
    theta: float,
    tau: float,
    kappa: str = K1,
) -> DimensionReport:
    """Dimension against centers on which every solution fails the threshold.

    Only candidate centers with D0[phi_f] > theta for every f are admitted;
    the value is the best rsd_decision over the full family against such a
    center (0 with a note when no candidate qualifies).
    """
    if problem.verify is None:
        raise ValueError("rsd_verifiable needs a problem with verify queries")
    _require_k1("rsd_verifiable", kappa)
    centers = [
        (tag, d) for tag, d in _candidate_centers(problem)
        if float(_verify_values(problem, d).min()) > theta
    ]
    if not centers:
        return DimensionReport(
            value=0.0,
            kind="rsd-verifiable",
            exactness=LOWER_BOUND,
            certificate={"note": "no candidate center lies above the threshold"},
        )
    best_val, best_cert = -1.0, {}
    for tag, center in centers:
        inner = rsd_decision(list(problem.dists), center, tau, kappa=kappa)
        if inner.value > best_val:
            best_val = inner.value
            best_cert = {"center": tag, "inner": inner.certificate}
    return DimensionReport(
        value=best_val,
        kind="rsd-verifiable",
        exactness=LOWER_BOUND,
        certificate=best_cert,
    )


def rsd_optimizing(
    problem: ProblemSpec,
    eps: float,
    tau: float,
    kappa: str = K1,
) -> DimensionReport:
    """Dimension of threshold optimization: sweep theta, keep distributions
    that have a theta-valid solution, and demand centers that fail even at
    theta + eps.

    value = max over theta in the grid 0, 0.05, ..., 1 and admitted centers of
    rsd_decision({D : min_f D[phi_f] <= theta}, center, tau).
    """
    if problem.verify is None:
        raise ValueError("rsd_optimizing needs a problem with verify queries")
    _require_k1("rsd_optimizing", kappa)
    centers = _candidate_centers(problem)
    dist_mins = np.array(
        [float(_verify_values(problem, d).min()) for d in problem.dists]
    )
    best_val, best_cert = 0.0, {"note": "no theta/center combination applies"}
    for theta in np.linspace(0.0, 1.0, 21):
        keep = [i for i in range(problem.n_dists) if dist_mins[i] <= theta]
        if not keep:
            continue
        remaining = [problem.dists[i] for i in keep]
        for tag, center in centers:
            if float(_verify_values(problem, center).min()) <= theta + eps:
                continue
            inner = rsd_decision(remaining, center, tau, kappa=kappa)
            if inner.value > best_val:
                best_val = inner.value
                best_cert = {
                    "theta": float(theta),
                    "center": tag,
                    "kept": keep,
                    "inner": inner.certificate,
                }
    return DimensionReport(
        value=best_val,
        kind="rsd-optimizing",
        exactness=LOWER_BOUND,
        certificate=best_cert,
    )


_BRACKET_TOL = 1e-12  # relative gap at which the K1 crsd bracket counts as closed
_SIGN_BLOCK = 4096  # domain sign rows per block of a best-response scan


def _sign_rows(index: np.ndarray, width: int) -> np.ndarray:
    """The +-1 rows whose first ``width - 1`` entries are the bits of
    ``index`` (bit 0 first; 1 is +1, 0 is -1) and whose last entry is +1."""
    rows = np.ones((index.size, width))
    rows[:, :-1] = ((index[:, None] >> np.arange(width - 1)) & 1) * 2.0 - 1.0
    return rows


def _best_responses(g: np.ndarray):
    """The best-response oracle of the K1 game on the rows g_i = D_i - D0.

    Returns a function taking a member measure mu to the sign queries within
    ``_BRACKET_TOL`` of max_sigma sum_i mu_i |<sigma, g_i>|, each with last
    entry +1. It enumerates the smaller sign set: when m <= |X| the member
    patterns s (last entry +1), since the max equals max_s ||sum_i mu_i s_i
    g_i||_1 and sign(sum_i mu_i s_i g_i) attains it; otherwise the domain
    sign rows, in blocks of ``_SIGN_BLOCK``.
    """
    m, n = g.shape
    if m <= n:
        patterns = _sign_rows(np.arange(1 << (m - 1)), m)

        def responses(mu: np.ndarray) -> np.ndarray:
            sums = (patterns * mu) @ g
            norms = np.abs(sums).sum(axis=1)
            rows = np.where(sums[norms >= norms.max() * (1.0 - _BRACKET_TOL)] >= 0, 1.0, -1.0)
            return rows * rows[:, -1:]

        return responses
    count = 1 << (n - 1)

    def responses(mu: np.ndarray) -> np.ndarray:
        values = np.concatenate([
            np.abs(_sign_rows(np.arange(s, min(s + _SIGN_BLOCK, count)), n) @ g.T) @ mu
            for s in range(0, count, _SIGN_BLOCK)
        ])
        return _sign_rows(np.flatnonzero(values >= values.max() * (1.0 - _BRACKET_TOL)), n)

    return responses


def _k1_game(g: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """min_mu max_sigma sum_i mu_i |<sigma, g_i>| over sign queries sigma.

    Returns (value, hardest measure, queries, query mixture). First the
    pure-strategy bracket at the uniform measure: its best-response value
    bounds the game value from above, and the tied best response with the
    largest worst member payoff bounds it from below. When the two do not
    agree within ``_BRACKET_TOL``, Kelley cutting planes (Kelley, J. SIAM
    8(4), 1960) tighten it: the master LP min t s.t. t >= sum_i mu_i
    |<sigma_r, g_i>| over the queries so far gives the lower bound and its
    duals the query mixture; each round separates at the midpoint of the
    master's measure and the best measure so far, and at the master's
    measure when that cut does not cut the master point off (in-out
    separation; Ben-Ameur and Neto, Networks 49(1), 2007). Every measure
    separated at offers its best-response value as an upper bound. Each
    round adds a new query, so the loop ends by the time every sign query is
    in; a cut that is already among the queries means the master broke its
    own rows, and raises :class:`NumericalError`.
    """
    m = g.shape[0]
    responses = _best_responses(g)
    best_mu = np.full(m, 1.0 / m)
    rows = responses(best_mu)
    pay = np.abs(rows @ g.T)
    j = int(np.argmax(pay.min(axis=1)))
    upper, lower = float((pay @ best_mu).max()), float(pay[j].min())
    queries, query_mix = rows[j : j + 1], np.ones(1)
    while upper - lower > _BRACKET_TOL * upper:
        k = len(queries)
        # variables mu_1..mu_m, t; maximize -t
        res = lp_solve(
            np.r_[np.zeros(m), -1.0],
            a_ub=np.hstack([np.abs(queries @ g.T), -np.ones((k, 1))]),
            b_ub=np.zeros(k),
            a_eq=np.r_[np.ones(m), 0.0][None, :],
            b_eq=np.ones(1),
        )
        lower = -res.value
        query_mix = np.clip(res.y_ub, 0.0, None)
        query_mix /= query_mix.sum()
        point = np.clip(res.x[:m], 0.0, None)
        point /= point.sum()
        cut = None
        for probe in ((point + best_mu) / 2.0, point):
            rows = responses(probe)
            pay = np.abs(rows @ g.T)
            values = pay @ probe
            r = int(np.argmax(values))
            if values[r] < upper:
                upper, best_mu = float(values[r]), probe
            if pay[r] @ point - lower > _BRACKET_TOL * upper:
                cut = rows[r]
                break
        if cut is None:
            break  # no cut at the master's own point: upper <= f(point) <= lower + tol * upper
        if (queries == cut).all(axis=1).any():
            raise NumericalError(
                f"crsd cutting planes repeat a query with the bracket [{lower!r}, {upper!r}] open"
            )
        queries = np.vstack([queries, cut])
    return upper, best_mu, queries, query_mix


def crsd(
    dists: Sequence[FiniteDistribution],
    d0: FiniteDistribution,
    kappa: str = K1,
) -> DimensionReport:
    """The zero-sum-game dimension 1 / inf_mu max_sigma E_{D~mu} |<sigma, D - D0>|.

    K1 (exact): sigma ranges over sign vectors, and the game is solved by
    ``_k1_game``: a pure-strategy bracket at the uniform measure, then
    cutting planes over generated sign queries, each best response found
    over the smaller of the 2^(m-1) member sign patterns and the 2^(|X|-1)
    domain sign rows. The certificate holds the game value, the hardest
    measure (its best response is the value), the generated queries and the
    query mixture over them (its worst member payoff is the value, up to
    1e-12 relative). The domain guard |X| <= 16 stays, although a family of
    at most |X| members never scans the domain rows: lifting it would print
    values where the ``dims`` reports on 32-point domains print
    ``skipped``, which the benchmark's checks expect. The center must not
    belong to the family (the game value would be 0).

    KV (lower bound): the vertex-payoff game |sqrt(D[phi]) - sqrt(D0[phi])|
    picks the hardest measure mu*, and the reported value is
    1 / kbar2(mu*) — kbar2 upper-bounds the sqrt-scale norm, so inverting it
    keeps the bound on the honest side.
    """
    if not dists:
        raise ValueError("crsd of an empty family")
    for i, d in enumerate(dists):
        if d.close_to(d0):
            raise ValueError(f"center coincides with family member {i}; the game value is 0")
    n = len(d0.domain)
    if n > 16:
        raise GuardExceededError(f"crsd: 2^{n} sign rows exceed the guard")
    diff = np.array([d.weights - d0.weights for d in dists])  # (m, n)
    if kappa == K1:
        value, mu, queries, query_mix = _k1_game(diff)
        if value <= 1e-12:
            raise NumericalError("crsd game value vanished despite distinct center")
        return DimensionReport(
            value=1.0 / value,
            kind="crsd",
            exactness=EXACT,
            certificate={
                "game_value": value,
                "hardest_measure": mu,
                "queries": queries,
                "query_mixture": query_mix,
            },
        )
    if kappa == KV:
        vertices = binary_table(n)
        d_mat = np.array([d.weights for d in dists])
        game = zero_sum(sqrt_gap(vertices @ d_mat.T, (vertices @ d0.weights)[:, None]))
        mu = Measure(len(dists), game.col_strategy / game.col_strategy.sum())
        upper = kbar2(mu, list(dists), d0)
        if upper.value <= 1e-12:
            raise NumericalError("kbar2 upper bound vanished despite distinct center")
        return DimensionReport(
            value=1.0 / upper.value,
            kind="crsd",
            exactness=LOWER_BOUND,
            certificate={
                "hardest_measure": mu.weights,
                "vertex_game_value": game.value,
                "kbar2_at_measure": upper.value,
            },
        )
    raise ValueError(f"unknown kappa tag {kappa!r}")


def combined_relation_audit(
    dists: Sequence[FiniteDistribution],
    d0: FiniteDistribution,
) -> dict:
    """Check the provable bracket between the game dimension and the cover dimension.

    With d = crsd(dists, d0): rsd_decision at tau = 1/(3d) must be at most 3d
    (up to 1e-6 of LP tolerance), while at tau in {1/(2d), 1/d} it must
    exceed d*tau strictly (an infinite dimension counts as exceeding).
    Returns a report dict with one entry per check and an overall flag.
    """
    if not dists:
        return {"crsd": 0.0, "checks": [], "pass": True, "note": "empty family"}
    d = crsd(dists, d0).value
    report = {"crsd": d, "checks": [], "pass": True}
    tau_low = 1.0 / (3.0 * d)
    low = rsd_decision(dists, d0, tau_low)
    ok = low.value <= 3.0 * d + 1e-6
    report["checks"].append(
        {"tau": tau_low, "rsd": low.value, "bound": 3.0 * d, "relation": "<=", "ok": ok}
    )
    report["pass"] &= ok
    for denom in (2.0, 1.0):
        tau = 1.0 / (denom * d)
        r = rsd_decision(dists, d0, min(tau, 2.0))
        ok = r.value > d * tau
        report["checks"].append(
            {"tau": tau, "rsd": r.value, "bound": d * tau, "relation": ">", "ok": ok}
        )
        report["pass"] &= ok
    report["pass"] = bool(report["pass"])
    return report


def rand_to_det(
    family: CoverFamily,
    q: np.ndarray,
    d: float,
    mu: Measure,
    delta: float,
    rng: np.random.Generator,
    max_attempts: int = 100,
) -> dict:
    """Sample a deterministic witness set from a fractional cover measure.

    Draws s = ceil(d * ln(1/delta)) sets i.i.d. from Q per attempt and
    accepts when the mu-mass left uncovered is strictly below delta. With
    delta = 1/|family| and uniform mu this forces a full cover. Raises
    :class:`TheoremViolationError` after ``max_attempts`` failures.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if mu.size != family.ground_size:
        raise ValueError("mu must weight the family's ground set")
    s = witness_count(d, delta)
    for attempt in range(1, max_attempts + 1):
        draws = draw_indices(q, rng, s)
        covered = set()
        for j in draws:
            covered |= family.sets[int(j)]
        uncovered = [i for i in range(family.ground_size) if i not in covered]
        mass = mu.mass(uncovered) if uncovered else 0.0
        if mass < delta:
            return {
                "witness_sets": sorted(set(int(j) for j in draws)),
                "samples": s,
                "attempts": attempt,
                "uncovered": uncovered,
                "uncovered_mass": mass,
            }
    raise TheoremViolationError(
        f"no d*ln(1/delta) sample of the cover measure reached uncovered mass < {delta} "
        f"in {max_attempts} attempts"
    )


def simple_lower_bound(
    problem: ProblemSpec,
    mu: Measure,
    d0: FiniteDistribution,
    tau: float,
    beta: float,
) -> DimensionReport:
    """The one-line query lower bound (beta - max_f mu(Z_f)) / kappa1_frac.

    mu weights the problem's distributions; beta is the target success
    probability. A zero discrimination fraction makes the bound infinite
    when the numerator is positive (and vacuous, 0, otherwise).
    """
    if mu.size != problem.n_dists:
        raise ValueError("mu must weight the problem's distributions")
    best_f = max(
        range(problem.n_solutions),
        key=lambda fi: mu.mass(problem.solved_dist_indices(fi)),
        default=None,
    )
    mu_f = 0.0 if best_f is None else mu.mass(problem.solved_dist_indices(best_f))
    frac = kappa1_frac(mu, list(problem.dists), d0, tau)
    numerator = beta - mu_f
    if numerator <= 0:
        value = 0.0
    elif frac.value <= 0:
        value = math.inf
    else:
        value = numerator / frac.value
    return DimensionReport(
        value=value,
        kind="simple-lower-bound",
        exactness=LOWER_BOUND,
        certificate={
            "numerator": numerator,
            "best_solution_mass": mu_f,
            "kappa1_frac": frac.value,
            "frac_certificate": frac.certificate,
        },
    )
