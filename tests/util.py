"""Shared test helpers: random instance generators, independent oracles and
an LP fault injector.

The oracles here (vertex-enumeration LP, Fraction arithmetic) deliberately
share no code with the package — they exist to cross-check it.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from sqlab import FiniteDistribution, FiniteDomain
from sqlab import games


def small_domain(n: int) -> FiniteDomain:
    return FiniteDomain(tuple((i,) for i in range(n)))


def tamper_lp_solve(monkeypatch, field: str, scale) -> None:
    """Route ``games.lp_solve`` through a wrapper that multiplies the
    result's ``field`` (``x`` or ``y_ub``) entrywise by ``scale``."""
    solve = games.lp_solve

    def tamper(*args, **rows):
        res = solve(*args, **rows)
        return dataclasses.replace(res, **{field: getattr(res, field) * scale})

    monkeypatch.setattr(games, "lp_solve", tamper)


def random_dists(rng: np.random.Generator, n_points: int, n_dists: int,
                 alpha: float = 1.0):
    """Dirichlet-random distributions plus a Dirichlet reference, all on a
    shared n_points-element domain."""
    dom = small_domain(n_points)
    dists = [
        FiniteDistribution(dom, rng.dirichlet(np.full(n_points, alpha)))
        for _ in range(n_dists)
    ]
    d0 = FiniteDistribution(dom, rng.dirichlet(np.full(n_points, alpha)))
    return dists, d0


def vertex_sums(weights: np.ndarray) -> np.ndarray:
    """The (2^n, k) table of each binary vertex's sum of each of the k rows
    of ``weights``, one vertex at a time: vertex r's sum starts from 0.0 and
    adds the weights of the set bits of r left to right, in increasing bit
    order."""
    k, n = weights.shape
    table = np.empty((1 << n, k))
    for r in range(1 << n):
        bits = [j for j in range(n) if r >> j & 1]
        for i in range(k):
            total = 0.0
            for j in bits:
                total += float(weights[i, j])
            table[r, i] = total
    return table


def brute_force_lp(c, a_ub, b_ub):
    """Maximize c.x subject to a_ub.x <= b_ub, x >= 0, by enumerating basic
    feasible points: every vertex of the polytope lies at the intersection
    of n tight constraints drawn from the rows of a_ub and the axes.

    Returns (value, x) or (None, None) if no feasible vertex exists.
    Assumes the feasible region is bounded (callers add box rows).
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    rows = [a[i] for i in range(m)] + [
        -np.eye(n)[j] for j in range(n)
    ]
    rhs = list(b) + [0.0] * n
    best_val, best_x = None, None
    for combo in combinations(range(m + n), n):
        sub = np.array([rows[i] for i in combo])
        sub_b = np.array([rhs[i] for i in combo])
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, sub_b)
        if np.any(x < -1e-9) or np.any(a @ x > b + 1e-9):
            continue
        val = float(c @ x)
        if best_val is None or val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


def fraction_kbar1(mu_weights, dists, d0):
    """Exact mu-weighted L1 discrimination norm via Fractions.

    max over queries phi: X -> [-1, 1] of sum_D mu(D) |D[phi] - D0[phi]|.
    The maximizing phi is a sign vector once the signs s_D of the inner
    absolute values are fixed, so enumerate s in {+-1}^m and take the L1
    norm of the combined signed measure sum_D mu(D) s_D (D - D0).
    """
    m = len(dists)
    n = len(d0)
    diffs = [[Fraction(dists[i][x]) - Fraction(d0[x]) for x in range(n)]
             for i in range(m)]
    mu = [Fraction(w) for w in mu_weights]
    best = Fraction(0)
    for signs in product((1, -1), repeat=m):
        combined = [
            sum(mu[i] * signs[i] * diffs[i][x] for i in range(m))
            for x in range(n)
        ]
        val = sum(abs(cx) for cx in combined)
        best = max(best, val)
    return best


def fraction_line_gram(p: int):
    """Exact correlation table for the mod-p line family under the uniform
    joint reference, computed with Fractions and explicit point counting.

    Returns a dict keyed by relation: 'same', 'parallel', 'crossing'.
    The likelihood-hat of line (a1, a2) relative to the uniform joint
    reference takes value +1 on labeled points consistent with the line and
    -1 otherwise, when the skewed single-line marginal is flattened against
    the uniform reference... here we instead compute the reference-weighted
    correlation E_{D0}[hat_a hat_b] with hat_a = (D_a - D0) / D0 pointwise.
    """
    # Build the skewed labeled distributions exactly.
    on = Fraction(1, 2 * p) + Fraction(1, 2 * p * p)
    off = Fraction(1, 2 * p * p)
    d0w = Fraction(1, 2 * p * p)

    def dist(a1, a2):
        w = {}
        for z1 in range(p):
            for z2 in range(p):
                lab = 1 if (a1 * z1 + a2) % p == z2 else -1
                base = on if lab == 1 else off
                w[(z1, z2, lab)] = base
                w[(z1, z2, -lab)] = Fraction(0)
        return w

    def hat(d):
        return {k: (v - d0w) / d0w for k, v in d.items()}

    da = dist(1, 0)
    results = {}
    pairs = {"same": (1, 0), "parallel": (1, 1), "crossing": (2, 0)}
    ha = hat(da)
    for name, (b1, b2) in pairs.items():
        hb = hat(dist(b1, b2))
        results[name] = sum(d0w * ha[k] * hb[k] for k in ha)
    return results


def fraction_biclique_answers(n: int, k: int):
    """Exact planted-subcube query answers via Fractions, by direct
    enumeration of the 2^n cube. Returns (conj_val, parity_val) for
    T = S = {1, ..., k} against the planted set S."""
    frac_k_n = Fraction(k, n)
    uni = Fraction(1, 2 ** n)
    s = set(range(k))
    # planted distribution: (1 - k/n) uniform + (k/n) uniform on the
    # subcube fixing bits of S to 1
    sub = Fraction(1, 2 ** (n - k))
    conj = Fraction(0)
    parity = Fraction(0)
    for bits in product((0, 1), repeat=n):
        w = (1 - frac_k_n) * uni
        if all(bits[j] for j in s):
            w += frac_k_n * sub
        in_conj = all(bits[j] for j in s)
        par = (-1) ** (sum(bits[j] for j in s) % 2)
        if in_conj:
            conj += w
        parity += w * par
    return conj, parity
