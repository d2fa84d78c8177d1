"""Problem-family generators: planted bicliques and mod-p lines.

Every generator returns a ``ProblemSpec`` whose distributions are explicit
tables over a small finite domain, cross-checked at build time against the
closed-form moments the families are designed around.

Biclique family over {0,1}^n (elements are n-character bit strings in
integer order; string position j is variable x_{j+1}):

    D_S = (1 - k/n) * Uniform + (k/n) * Uniform({x : x_j = 1 for j in S})

so D_S[conj_T] = (1 - k/n) 2^{-|T|} + (k/n) 2^{-|T \\ S|} and the parity
correlations are D_S[chi_T] = (k/n)(-1)^{|T|} [T subseteq S].

Line family over GF(p)^2 x {-1,+1}: the concept ell_a labels z positive iff
a1 z1 + a2 = z2 (mod p). With the skewed marginal (mass 1/(2p) + 1/(2p^2)
on each line point, 1/(2p^2) off) the likelihood-ratio correlations against
the uniform reference are exactly (p+1)/2 on the diagonal, -(1/2 + 1/p) for
parallel distinct lines, and 1/p^2 for crossing lines, giving mean absolute
correlation rho = 1/p + 2/p^2 - 2/p^3 <= 2/p. ``line_audit`` verifies all
of this numerically and chains it into the norm bounds.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    DECISION,
    SEARCH,
    UNIT,
    VERIFIABLE,
    FiniteDomain,
    FiniteDistribution,
    Measure,
    ProblemSpec,
    QueryFn,
)
from .errors import GuardExceededError
from . import norms

__all__ = [
    "biclique_domain",
    "conj_query",
    "parity_query",
    "biclique_dist",
    "biclique_conj_value",
    "biclique_parity_value",
    "biclique",
    "line_domain",
    "line_labels",
    "line_marginal",
    "line_problem",
    "line_closed_forms",
    "line_audit",
]

_BICLIQUE_GUARD = 12
_LINE_GUARD = 31


# ---------------------------------------------------------------------------
# planted biclique / planted-ones family
# ---------------------------------------------------------------------------


def biclique_domain(n: int) -> FiniteDomain:
    """{0,1}^n as n-character bit strings in integer order."""
    return FiniteDomain(tuple(format(i, f"0{n}b") for i in range(1 << n)))


def _positions(s) -> tuple:
    """1-based variable indices -> 0-based string positions."""
    return tuple(i - 1 for i in s)


def conj_query(domain: FiniteDomain, s) -> QueryFn:
    """The 0/1 conjunction: 1 iff every variable in s is set."""
    pos = _positions(s)
    values = [1.0 if all(x[j] == "1" for j in pos) else 0.0 for x in domain.elements]
    return QueryFn(domain, np.array(values), range_tag=UNIT)


def parity_query(domain: FiniteDomain, t) -> QueryFn:
    """The +-1 parity character chi_t(x) = (-1)^{sum of bits in t}."""
    pos = _positions(t)
    values = [
        -1.0 if sum(x[j] == "1" for j in pos) % 2 else 1.0 for x in domain.elements
    ]
    return QueryFn(domain, np.array(values))


def biclique_dist(n: int, k: int, s, domain: FiniteDomain | None = None) -> FiniteDistribution:
    """D_S = (1 - k/n) Uniform + (k/n) Uniform({x : x_j = 1 on S})."""
    if domain is None:
        domain = biclique_domain(n)
    pos = _positions(s)
    base = (1.0 - k / n) / (1 << n)
    planted = (k / n) / (1 << (n - k))
    w = np.full(len(domain), base)
    for i, x in enumerate(domain.elements):
        if all(x[j] == "1" for j in pos):
            w[i] += planted
    return FiniteDistribution(domain, w)


def biclique_conj_value(n: int, k: int, s, t) -> float:
    """Closed form for D_S[conj_T]."""
    s_set, t_set = set(s), set(t)
    return (1.0 - k / n) * 2.0 ** -len(t_set) + (k / n) * 2.0 ** -len(t_set - s_set)


def biclique_parity_value(n: int, k: int, s, t) -> float:
    """Closed form for D_S[chi_T] (1 for the empty parity)."""
    s_set, t_set = set(s), set(t)
    if not t_set:
        return 1.0
    if t_set <= s_set:
        return (k / n) * (-1.0) ** len(t_set)
    return 0.0


def biclique(n: int, k: int, kind: str = SEARCH) -> ProblemSpec:
    """The planted-ones family: one distribution per k-subset of [n].

    kinds: ``search`` plants Z(D_S) = {S}; ``decision`` is the family vs the
    uniform reference; ``verifiable`` uses conj_S verify queries at threshold
    theta = k/n (so the theta-valid solutions for D_S are the subsets
    disjoint from S, while S itself is only (theta+tau)-valid).
    """
    if n > _BICLIQUE_GUARD:
        raise GuardExceededError(f"biclique domain 2^{n} exceeds the n <= {_BICLIQUE_GUARD} guard")
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    domain = biclique_domain(n)
    subsets = [tuple(c) for c in itertools.combinations(range(1, n + 1), k)]
    dists = tuple(biclique_dist(n, k, s, domain) for s in subsets)
    # build-time cross-check of the table against the closed form
    for s, d in zip(subsets[: min(len(subsets), 4)], dists[:4]):
        q = conj_query(domain, s)
        if abs(d.expectation(q) - biclique_conj_value(n, k, s, s)) > 1e-12:
            raise AssertionError("biclique table disagrees with the conjunction closed form")
    reference = FiniteDistribution.uniform(domain)
    if kind == DECISION:
        return ProblemSpec(
            kind=DECISION,
            domain=domain,
            dists=dists,
            solutions=("not-reference",),
            validity=np.ones((1, len(dists)), dtype=bool),
            reference=reference,
        )
    if kind == SEARCH:
        return ProblemSpec(
            kind=SEARCH,
            domain=domain,
            dists=dists,
            solutions=tuple(subsets),
            validity=np.eye(len(subsets), dtype=bool),
            reference=reference,
        )
    if kind == VERIFIABLE:
        verify = {s: conj_query(domain, s) for s in subsets}
        return ProblemSpec.with_threshold_validity(
            kind=VERIFIABLE,
            domain=domain,
            dists=dists,
            solutions=tuple(subsets),
            verify=verify,
            threshold=k / n,
            reference=reference,
        )
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# mod-p lines
# ---------------------------------------------------------------------------


def line_domain(p: int) -> FiniteDomain:
    """GF(p)^2 in lexicographic order."""
    return FiniteDomain(tuple((z1, z2) for z1 in range(p) for z2 in range(p)))


def line_labels(p: int, a) -> np.ndarray:
    """+-1 labels of ell_a over line_domain(p): +1 iff a1 z1 + a2 = z2 (mod p)."""
    a1, a2 = a
    return np.array(
        [1.0 if (a1 * z1 + a2) % p == z2 else -1.0 for z1 in range(p) for z2 in range(p)]
    )


def line_marginal(p: int, a=None, kind: str = "uniform") -> FiniteDistribution:
    """Marginal over GF(p)^2: ``uniform``, or ``skewed`` toward the line a
    (mass 1/(2p) + 1/(2p^2) on each of its p points, 1/(2p^2) elsewhere)."""
    domain = line_domain(p)
    if kind == "uniform":
        return FiniteDistribution.uniform(domain)
    if kind != "skewed":
        raise ValueError(f"unknown marginal kind {kind!r}")
    if a is None:
        raise ValueError("the skewed marginal needs the line it favors")
    return FiniteDistribution(domain, _skewed_weights(p, line_labels(p, a)))


def _skewed_weights(p: int, labels: np.ndarray) -> np.ndarray:
    on = 1.0 / (2.0 * p) + 1.0 / (2.0 * p * p)
    off = 1.0 / (2.0 * p * p)
    return np.where(labels > 0, on, off)


def line_problem(p: int, kind: str = SEARCH, marginal: str = "skewed") -> ProblemSpec:
    """The labeled-line family over GF(p)^2 x {-1,+1}.

    Each line a = (a1, a2) contributes the joint distribution
    pac_lift(marginal_a, ell_a); with ``marginal="skewed"`` the marginal is
    the one tilted toward a itself, which is what makes the likelihood-ratio
    correlation table exact. The reference is uniform on the labeled domain.
    """
    if p > _LINE_GUARD:
        raise GuardExceededError(f"line family guarded at p <= {_LINE_GUARD}")
    if marginal not in ("skewed", "uniform"):
        raise ValueError(f"unknown marginal kind {marginal!r}")
    base = line_domain(p)
    # pac_lift's labeled domain, (z, -1) then (z, +1) for each z, built once
    # and shared by every member and the reference
    joint = FiniteDomain(tuple((z1, z2, b) for (z1, z2) in base.elements for b in (-1, 1)))
    lines = [(a1, a2) for a1 in range(p) for a2 in range(p)]
    uniform = line_marginal(p).weights
    dists = []
    for a in lines:
        labels = line_labels(p, a)
        marg = _skewed_weights(p, labels) if marginal == "skewed" else uniform
        # pac_lift(marg, ell_a): the mass of z sits on (z, ell_a(z))
        on = labels > 0
        lifted = np.column_stack([np.where(on, 0.0, marg), np.where(on, marg, 0.0)])
        dists.append(FiniteDistribution(joint, lifted.reshape(-1)))
    reference = FiniteDistribution.uniform(joint)
    if kind == SEARCH:
        return ProblemSpec(
            kind=SEARCH,
            domain=joint,
            dists=tuple(dists),
            solutions=tuple(lines),
            validity=np.eye(len(lines), dtype=bool),
            reference=reference,
        )
    if kind == DECISION:
        return ProblemSpec(
            kind=DECISION,
            domain=joint,
            dists=tuple(dists),
            solutions=("not-reference",),
            validity=np.ones((1, len(dists)), dtype=bool),
            reference=reference,
        )
    raise ValueError(f"unknown kind {kind!r}")


def line_closed_forms(p: int) -> dict:
    """The exact moments the skewed line family is built around."""
    return {
        "same": (p + 1) / 2.0,
        "parallel": -(0.5 + 1.0 / p),
        "crossing": 1.0 / (p * p),
        "rho": 1.0 / p + 2.0 / p**2 - 2.0 / p**3,
        "rho_upper": 2.0 / p,
        "on_line_mass": 0.5 + 1.0 / (2.0 * p),
        "crsd_lower": 0.25 * math.sqrt(p / 2.0),
    }


def line_audit(p: int) -> dict:
    """Verify the skewed family's correlation structure against closed forms.

    Computes the full likelihood-ratio Gram matrix G[a,b] =
    E_{D0}[hat(D_a) hat(D_b)] in one vectorized pass and checks, to 1e-10:
    the three-value correlation table, rho (mean absolute correlation) and
    its 2/p bound, the spectral norm against sqrt(rho), and the resulting
    dimension lower bound 0.25 sqrt(p/2). Raises AssertionError on any
    mismatch; returns a report of the measured quantities.
    """
    problem = line_problem(p, kind=SEARCH, marginal="skewed")
    d0 = problem.reference
    forms = line_closed_forms(p)
    m = len(problem.dists)
    dmat = np.array([d.weights for d in problem.dists])
    hats = dmat / d0.weights - 1.0
    gram = (hats * d0.weights) @ hats.T
    lines = problem.solutions
    expected = np.empty((m, m))
    for i, (a1, _) in enumerate(lines):
        for j, (b1, _) in enumerate(lines):
            if i == j:
                expected[i, j] = forms["same"]
            elif a1 == b1:
                expected[i, j] = forms["parallel"]
            else:
                expected[i, j] = forms["crossing"]
    worst = float(np.max(np.abs(gram - expected)))
    if worst > 1e-10:
        raise AssertionError(f"correlation table off by {worst}")
    rho_measured = float(np.abs(gram).mean())
    if abs(rho_measured - forms["rho"]) > 1e-10:
        raise AssertionError("rho disagrees with its closed form")
    if rho_measured > forms["rho_upper"] + 1e-12:
        raise AssertionError("rho exceeds 2/p")
    mu = Measure.uniform(m)
    spectral = norms.kbar2_spectral(mu, list(problem.dists), d0)
    if spectral.value > math.sqrt(rho_measured) + 1e-9:
        raise AssertionError("spectral norm exceeds sqrt(rho)")
    report = {
        "p": p,
        "dists": m,
        "worst_table_error": worst,
        "rho": rho_measured,
        "rho_closed_form": forms["rho"],
        "rho_upper": forms["rho_upper"],
        "kbar2_spectral": spectral.value,
        "kbar1_upper": 4.0 * math.sqrt(rho_measured),
        "crsd_lower": forms["crsd_lower"],
        "on_line_mass": forms["on_line_mass"],
    }
    # the on-line mass of each skewed joint is 1/2 + 1/(2p)
    phi = 0.5 * (line_labels(p, lines[0]) + 1.0)
    joint_phi = np.zeros(len(problem.domain))
    base = line_domain(p)
    for idx, z in enumerate(base.elements):
        joint_phi[problem.domain.index_of(z + (1,))] = phi[idx]
    measured_mass = float(problem.dists[0].weights @ joint_phi)
    if abs(measured_mass - forms["on_line_mass"]) > 1e-12:
        raise AssertionError("on-line mass disagrees with 1/2 + 1/(2p)")
    return report
