"""Discrimination norms and fractions for finite distribution families.

The quantities here measure how visible a weighted family of distributions
is against a center distribution D0 through a single query:

- ``kbar1``: average absolute signed-query margin, maximized over queries
  phi in [-1,1]^X. Exact, by enumerating sign patterns on whichever axis
  (family support or domain) is smaller.
- ``kbar2``: the same on the D0-weighted L2 scale via centered likelihood
  ratios. Exact by sign enumeration; ``kbar2_spectral`` is the relaxation to
  arbitrary unit coefficient vectors — the largest singular value of the
  weighted ratio matrix — computed by in-repo power iteration.
- ``rho``: average absolute pairwise D0-correlation of likelihood ratios.
- ``kbarv``: average square-root-scale gap over unit-range queries; reported
  as a LOWER_BOUND from binary vertices plus one 1/16-grid coordinate-ascent
  round (the vertex (phi*+1)/2 for kbar1's certificate phi* is always among
  the candidates, which preserves kbar1 <= 4*kbarv on reports).
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

from .core import FiniteDistribution, Measure, binary_table, likelihood_hat, sqrt_gap
from .errors import GuardExceededError, NumericalError
from .games import achievable_subsets

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
_VERTEX_GUARD = 16


@dataclass(frozen=True)
class NormReport:
    """A norm value, how it was bounded, and a re-checkable certificate."""

    value: float
    exactness: str
    certificate: dict


def _check(value: float, recomputed: float, what: str) -> None:
    if abs(value - recomputed) > _CERT_TOL:
        raise NumericalError(f"{what}: certificate re-evaluates to {recomputed!r}, not {value!r}")


def _sign_chunks(k: int, chunk: int = 4096):
    total = 1 << k
    cols = np.arange(k)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        bits = (np.arange(lo, hi)[:, None] >> cols) & 1
        yield lo, bits * 2.0 - 1.0


def _support(mu: Measure, dists: Sequence[FiniteDistribution]):
    if mu.size != len(dists):
        raise ValueError("measure size must match the family size")
    idx = list(mu.support)
    return idx, [dists[i] for i in idx], mu.weights[idx]


def kbar1(mu: Measure, dists: Sequence[FiniteDistribution], d0: FiniteDistribution) -> NormReport:
    """max over phi in [-1,1]^X of sum_D mu(D) |E_D[phi] - E_{D0}[phi]| (exact).

    Equals max over sign patterns s of || sum_D mu(D) s_D (D - D0) ||_1, so
    the enumeration runs over whichever of {family support, domain} is
    smaller; the optimal query is the sign vector of the best combination.
    """
    idx, sub, w = _support(mu, dists)
    n = len(d0.domain)
    k = len(sub)
    g = np.array([wi * (d.weights - d0.weights) for wi, d in zip(w, sub)])
    if min(k, n) > _SIGN_GUARD:
        raise GuardExceededError(f"kbar1: 2^min({k},{n}) patterns exceed the guard")
    best_val, best_vec, best_axis = -1.0, None, None
    if k <= n:
        for lo, signs in _sign_chunks(k):
            vals = np.abs(signs @ g).sum(axis=1)
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val, best_vec, best_axis = float(vals[j]), signs[j].copy(), "signs"
    else:
        raw = np.array([d.weights - d0.weights for d in sub])
        for lo, phis in _sign_chunks(n):
            vals = np.abs(phis @ raw.T) @ w
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val, best_vec, best_axis = float(vals[j]), phis[j].copy(), "query"
    if best_axis == "signs":
        combo = best_vec @ g
        phi = np.where(combo >= 0, 1.0, -1.0)
        signs = best_vec
    else:
        phi = best_vec
        signs = np.sign(g @ phi)
        signs[signs == 0] = 1.0
    achieved = float(np.abs(g @ phi).sum())
    _check(best_val, achieved, "kbar1")
    return NormReport(
        value=best_val,
        exactness=EXACT,
        certificate={"query": phi, "signs": signs, "support": idx},
    )


def _ratio_matrix(sub, w, d0):
    return np.array([wi * likelihood_hat(d, d0) for wi, d in zip(w, sub)])


def kbar2(mu: Measure, dists: Sequence[FiniteDistribution], d0: FiniteDistribution) -> NormReport:
    """max over signs of || sum_D mu(D) s_D Dhat_D ||_{D0} (exact).

    ||g||_{D0} = sqrt(E_{D0}[g^2]). For a single distribution this is the
    square root of the chi^2 divergence from D0.
    """
    idx, sub, w = _support(mu, dists)
    k = len(sub)
    if k > _SIGN_GUARD:
        raise GuardExceededError(f"kbar2: 2^{k} sign patterns exceed the guard")
    ghat = _ratio_matrix(sub, w, d0)
    d0w = d0.weights
    best_val, best_s = -1.0, None
    for lo, signs in _sign_chunks(k):
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


def _power_iteration(gram: np.ndarray, rel_tol: float = 1e-9, max_iter: int = 10_000):
    """Dominant eigenpair of a PSD matrix, deterministic start."""
    m = gram.shape[0]
    v = np.full(m, 1.0 / math.sqrt(m))
    lam = 0.0
    for _ in range(max_iter):
        wv = gram @ v
        norm = float(np.linalg.norm(wv))
        if norm == 0.0:
            return 0.0, v
        v_new = wv / norm
        lam_new = float(v_new @ gram @ v_new)
        if abs(lam_new - lam) <= rel_tol * max(lam_new, 1e-300):
            return lam_new, v_new
        v, lam = v_new, lam_new
    raise NumericalError("power iteration did not converge")


def kbar2_spectral(
    mu: Measure, dists: Sequence[FiniteDistribution], d0: FiniteDistribution
) -> NormReport:
    """Largest singular value of the weighted ratio matrix (exact, power iteration).

    The matrix is M[D, x] = sqrt(mu(D)) (D(x) - D0(x)) / sqrt(D0(x)) over the
    support of D0; its top singular value relaxes kbar2's sign vectors to
    arbitrary unit coefficient vectors, so kbar2 <= kbar2_spectral always.
    """
    idx, sub, w = _support(mu, dists)
    support = d0.weights > 0
    root = np.sqrt(d0.weights[support])
    m_rows = np.array(
        [math.sqrt(wi) * (d.weights[support] - d0.weights[support]) / root for wi, d in zip(w, sub)]
    )
    gram = m_rows @ m_rows.T
    lam, u = _power_iteration(gram)
    sigma = math.sqrt(max(lam, 0.0))
    achieved = float(np.linalg.norm(u @ m_rows))
    _check(sigma, achieved, "kbar2_spectral")
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
    hats = np.array([likelihood_hat(d, d0) for d in dists])
    corr = (hats * d0.weights) @ hats.T
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
    by 2^|X|) refined by one coordinate-ascent round on the 1/16 grid. The
    binary vertices include (phi*+1)/2 for every sign query phi*, which is
    what keeps the kbar1 <= 4 kbarv ladder intact on reported values.

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
    vertices = binary_table(n)
    gaps = _sqrt_gaps(vertices, d_mat, d0) @ w
    j = int(np.argmax(gaps))
    best_phi = vertices[j].copy()
    best_val = float(gaps[j])

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
    """
    idx, sub, w = _support(mu, dists)
    family = achievable_subsets(sub, d0, tau)  # K1, exact
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
