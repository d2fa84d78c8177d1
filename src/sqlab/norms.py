"""Discrimination norms and fractions for finite distribution families.

The quantities here measure how visible a weighted family of distributions
is against a center distribution D0 through a single query:

- ``kbar1``: average absolute signed-query margin, maximized over queries
  phi in [-1,1]^X. Exact, by one blocked scan of the sign patterns on
  whichever axis (family support or domain) is smaller; the K1 ``crsd``
  best responses come from the same scan (``_k1_scan``).
- ``kbar2``: the same on the D0-weighted L2 scale via centered likelihood
  ratios. Exact by sign enumeration; ``kbar2_spectral`` is the relaxation to
  arbitrary unit coefficient vectors — the square root of the top
  eigenvalue of the mu-weighted correlation table, from a symmetric
  eigensolver.
- ``rho``: average absolute pairwise D0-correlation of likelihood ratios.
  kbar2, kbar2_spectral and rho build the centered ratios and their
  correlation table with one helper each (``core.likelihood_hats``, one
  masked divide over the member matrix, and ``_correlations``).
- ``kbarv``: average square-root-scale gap over unit-range queries; reported
  as a LOWER_BOUND from binary vertices plus one 1/16-grid ascent round (the
  vertex (phi*+1)/2 for kbar1's certificate phi* is always among them, which
  preserves kbar1 <= 4*kbarv on reports). The 2^|X| vertices are scanned in
  blocks of at most 2^13 (``core.vertex_gap_blocks``), so the whole gap table
  is never held, and the guard admits up to 20 domain points.
- ``kappa1_frac``: the largest measure mass a single signed query can
  distinguish at radius tau.

Every report carries a certificate that re-evaluates to the reported value
within 1e-8; the functions re-check this before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FiniteDistribution, Measure, likelihood_hats, sqrt_gap, vertex_gap_blocks
from .errors import GuardExceededError, NumericalError
from .games import family_of

__all__ = [
    "EXACT",
    "LOWER_BOUND",
    "UPPER_BOUND",
    "NormReport",
    "kbar1",
    "kbar2",
    "kbar2_spectral",
    "rho",
    "kbarv",
    "kappa1_frac",
]

EXACT = "exact"
LOWER_BOUND = "lower_bound"
UPPER_BOUND = "upper_bound"

_CERT_TOL = 1e-8
_SIGN_GUARD = 20
_VERTEX_GUARD = 20
_SCAN_BLOCK = 4096  # sign vectors per block of a scan


@dataclass(frozen=True)
class NormReport:
    """A norm value, how it was bounded, and a re-checkable certificate."""

    value: float
    exactness: str
    certificate: dict


def _check(value: float, recomputed: float, what: str) -> None:
    if abs(value - recomputed) > _CERT_TOL:
        raise NumericalError(f"{what}: certificate re-evaluates to {recomputed!r}, not {value!r}")


def _sign_blocks(width: int):
    """The 2^(width-1) sign vectors whose last entry is +1, in blocks of at
    most ``_SCAN_BLOCK`` rows; row r's other entries are the bits of r (bit
    0 first; 1 is +1, 0 is -1)."""
    count = 1 << (width - 1)
    for lo in range(0, count, _SCAN_BLOCK):
        index = np.arange(lo, min(lo + _SCAN_BLOCK, count))
        rows = np.ones((index.size, width))
        rows[:, :-1] = ((index[:, None] >> np.arange(width - 1)) & 1) * 2.0 - 1.0
        yield rows


def _k1_scan(g: np.ndarray, mu: np.ndarray, tol: float):
    """max over sign queries sigma of sum_i mu_i |<sigma, g_i>|, and the
    queries within ``tol`` (relative) of it.

    Scans the smaller sign set, one block at a time, keeping only the rows
    tied with the best so far. When m <= |X| that is the member patterns s,
    since the max equals max_s ||sum_i mu_i s_i g_i||_1 and the sign vector
    of that sum attains it; otherwise the domain sign rows sigma, each
    paying sum_i |<sigma, mu_i g_i>|. sigma and -sigma pay alike, so only
    vectors with last entry +1 are scanned, and the queries come back with
    last entry +1, in scan order. The signed sums are added term by term,
    not by a matrix product: BLAS sums a row in an order that depends on
    where the row sits in its block (and numpy sends a one-row block to
    another kernel), while here the value and the queries do not depend on
    ``_SCAN_BLOCK``.
    """
    m, n = g.shape
    weighted = mu[:, None] * g
    terms = weighted if m <= n else weighted.T
    value, vals, rows = 0.0, np.empty(0), np.empty((0, n))
    for signs in _sign_blocks(len(terms)):
        columns = signs.T.copy()  # a contiguous row per term: long inner loops
        sums = terms[0][:, None] * columns[0]
        for i in range(1, len(terms)):
            sums += terms[i][:, None] * columns[i]
        sums = sums.T.copy()  # contiguous rows, as the order of np.sum depends on it
        vals = np.r_[vals, np.abs(sums).sum(axis=1)]
        rows = np.vstack([rows, sums if m <= n else signs])
        value = max(value, float(vals.max()))
        keep = vals >= value * (1.0 - tol)
        vals, rows = vals[keep], rows[keep]
    rows = np.where(rows >= 0, 1.0, -1.0)
    return value, rows * rows[:, -1:]


def _support(mu: Measure, dists: Sequence[FiniteDistribution]):
    if mu.size != len(dists):
        raise ValueError("measure size must match the family size")
    idx = list(mu.support)
    return idx, [dists[i] for i in idx], mu.weights[idx]


def kbar1(mu: Measure, dists: Sequence[FiniteDistribution], d0: FiniteDistribution) -> NormReport:
    """max over phi in [-1,1]^X of sum_D mu(D) |E_D[phi] - E_{D0}[phi]| (exact).

    Equals max over sign patterns s of || sum_D mu(D) s_D (D - D0) ||_1, so
    ``_k1_scan`` over mu's support enumerates whichever of {family support,
    domain} is smaller; the optimal query is its first best sign query.
    """
    idx, sub, w = _support(mu, dists)
    k, n = len(sub), len(d0.domain)
    if min(k, n) > _SIGN_GUARD:
        raise GuardExceededError(f"kbar1: 2^{min(k, n)} sign patterns exceed the guard")
    g = np.array([d.weights - d0.weights for d in sub])
    value, queries = _k1_scan(g, w, 0.0)
    phi = queries[0]
    signs = np.sign(g @ phi)
    signs[signs == 0] = 1.0
    _check(value, float(np.abs(g @ phi) @ w), "kbar1")
    return NormReport(
        value=value,
        exactness=EXACT,
        certificate={"query": phi, "signs": signs, "support": idx},
    )


def _correlations(hats: np.ndarray, d0: FiniteDistribution) -> np.ndarray:
    """The correlation table C[i, j] = E_{D0}[Dhat_i Dhat_j] of ratio rows (``likelihood_hats``)."""
    return (hats * d0.weights) @ hats.T


def kbar2(mu: Measure, dists: Sequence[FiniteDistribution], d0: FiniteDistribution) -> NormReport:
    """max over signs of || sum_D mu(D) s_D Dhat_D ||_{D0} (exact).

    ||g||_{D0} = sqrt(E_{D0}[g^2]). For a single distribution this is the
    square root of the chi^2 divergence from D0.
    """
    idx, sub, w = _support(mu, dists)
    k = len(sub)
    if k > _SIGN_GUARD:
        raise GuardExceededError(f"kbar2: 2^{k} sign patterns exceed the guard")
    ghat = w[:, None] * likelihood_hats(sub, d0)
    d0w = d0.weights
    best_val, best_s = -1.0, None
    for signs in _sign_blocks(k):
        vals = np.sqrt(((signs @ ghat) ** 2) @ d0w)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_s = float(vals[j]), signs[j].copy()
    combo = best_s @ ghat
    norm = math.sqrt(float((combo**2) @ d0w))
    _check(best_val, norm, "kbar2")
    test_fn = np.zeros_like(combo) if norm == 0 else combo / norm
    return NormReport(
        value=best_val,
        exactness=EXACT,
        certificate={"signs": best_s, "test_fn": test_fn, "support": idx},
    )


def kbar2_spectral(
    mu: Measure, dists: Sequence[FiniteDistribution], d0: FiniteDistribution
) -> NormReport:
    """max over unit u of || sum_D u_D sqrt(mu(D)) Dhat_D ||_{D0} (exact).

    The square of that norm is u' (sqrt(mu) C sqrt(mu)) u, with C the
    correlation table of mu's support, so the value is the square root of
    that matrix's top eigenvalue (``np.linalg.eigh``), and the certificate
    is its eigenvector u, re-evaluated on the ratio rows. Relaxing kbar2's
    sign vectors to arbitrary unit coefficient vectors, kbar2 <=
    kbar2_spectral always.
    """
    idx, sub, w = _support(mu, dists)
    hats, root = likelihood_hats(sub, d0), np.sqrt(w)
    lams, vecs = np.linalg.eigh(root[:, None] * _correlations(hats, d0) * root)
    sigma, u = math.sqrt(max(float(lams[-1]), 0.0)), vecs[:, -1]
    combo = (u * root) @ hats
    _check(sigma, math.sqrt(float((combo**2) @ d0.weights)), "kbar2_spectral")
    return NormReport(
        value=sigma,
        exactness=EXACT,
        certificate={"coefficients": u, "support": idx},
    )


def rho(dists: Sequence[FiniteDistribution], d0: FiniteDistribution) -> NormReport:
    """Average absolute pairwise D0-correlation of centered ratios (exact).

    rho = (1/m^2) sum_{i,j} |E_{D0}[Dhat_i Dhat_j]|, diagonal included.
    """
    m = len(dists)
    if m == 0:
        raise ValueError("rho of an empty family")
    corr = _correlations(likelihood_hats(dists, d0), d0)
    value = float(np.abs(corr).sum() / (m * m))
    return NormReport(
        value=value,
        exactness=EXACT,
        certificate={"correlations": corr},
    )


def _sqrt_gaps(phis: np.ndarray, d_mat: np.ndarray, d0) -> np.ndarray:
    """|sqrt(D[phi]) - sqrt(D0[phi])| for each query and each row of the member matrix.

    ``phis`` is (q, |X|), or (q, 1, |X|) to give each query its own
    one-row product: numpy then makes the same BLAS call per query as for
    a single ``phis[i][None, :]``, so every query's gaps are bitwise what
    scoring it alone gives, whatever q is.
    """
    return sqrt_gap(phis @ d_mat.T, (phis @ d0.weights)[..., None])


def kbarv(mu: Measure, dists: Sequence[FiniteDistribution], d0: FiniteDistribution) -> NormReport:
    """max over phi in [0,1]^X of sum_D mu(D) |sqrt(D[phi]) - sqrt(D0[phi])|.

    Reported as a LOWER_BOUND: candidates are all binary vertices (guarded
    by 2^|X|, |X| <= 20) refined by one coordinate-ascent round on the 1/16
    grid. The binary vertices include (phi*+1)/2 for every sign query phi*,
    which is what keeps the kbar1 <= 4 kbarv ladder intact on reported
    values. The vertices are scored block by block (``vertex_gap_blocks``),
    one matrix-vector product per block into one score buffer, and the best
    is the first maximum in vertex order: a block's best replaces it when
    larger, or when equal at a smaller vertex index, since the blocks do
    not come in vertex order. The best vertex is the bits of its index.

    The ascent is blocked: the member matrix is built once, and each
    coordinate's 16 grid candidates (the current query with that
    coordinate moved to every other grid value) are scored in one call.
    They are then accepted in grid order whenever one beats the best value
    so far by more than 1e-15. A candidate accepted mid-coordinate differs
    from the current query only in that coordinate, so the later
    candidates of the block are the ones a one-at-a-time loop would try,
    and each is scored bitwise as that loop scores it (see
    ``_sqrt_gaps``): the value and the query are the loop's.
    """
    idx, sub, w = _support(mu, dists)
    n = len(d0.domain)
    if n > _VERTEX_GUARD:
        raise GuardExceededError(f"kbarv: 2^{n} vertices exceed the guard")
    d_mat = np.array([d.weights for d in sub])
    best_val, best_r, scores = -1.0, 0, None
    for start, gaps in vertex_gap_blocks(d_mat, d0.weights):
        scores = np.matmul(gaps, w, out=scores)
        j = int(np.argmax(scores))
        val = float(scores[j])
        if val > best_val or (val == best_val and start + j < best_r):
            best_val, best_r = val, start + j
    best_phi = ((best_r >> np.arange(n)) & 1).astype(float)

    grid = np.linspace(0.0, 1.0, 17)
    for x in range(n):
        others = grid[grid != best_phi[x]]
        cands = np.repeat(best_phi[None, :], others.size, axis=0)
        cands[:, x] = others
        vals = (_sqrt_gaps(cands[:, None, :], d_mat, d0) @ w)[:, 0]
        for cand, val in zip(cands, vals.tolist()):
            if val > best_val + 1e-15:
                best_val, best_phi = val, cand
    _check(best_val, float(_sqrt_gaps(best_phi[None, :], d_mat, d0)[0] @ w), "kbarv")
    return NormReport(
        value=best_val,
        exactness=LOWER_BOUND,
        certificate={"query": best_phi, "support": idx},
    )


def kappa1_frac(
    mu: Measure,
    dists: Sequence[FiniteDistribution],
    d0: FiniteDistribution,
    tau: float,
) -> NormReport:
    """Largest mu-mass a single signed query distinguishes at radius tau (exact).

    A subset S counts when one phi has |E_D[phi] - E_{D0}[phi]| > tau for
    every D in S; "strictly above" is realized as >= tau + games.STRICT_EPS.
    At tau = 0 this is the mass of distributions distinct from D0. The
    certificate is the heaviest maximal set of mu's support and its witness.
    Its K1 family comes from ``games.family_of`` (see ``shared_families``).
    """
    idx, sub, w = _support(mu, dists)
    family = family_of(sub, d0, tau)  # K1, exact
    if not family.sets:
        return NormReport(value=0.0, exactness=EXACT, certificate={"subset": [], "query": None})
    masses = [float(sum(w[i] for i in s)) for s in family.sets]
    j = int(np.argmax(masses))
    subset = sorted(idx[i] for i in family.sets[j])
    return NormReport(
        value=masses[j],
        exactness=EXACT,
        certificate={"subset": subset, "query": family.witnesses[j]},
    )
