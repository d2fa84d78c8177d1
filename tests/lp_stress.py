"""Stress harness for the max-margin LP: 16,000 seeded well-posed programs.

Each program is the LP that randomized search solves for a signed subset
of far members: ``max_margin`` on 2-7 members of ``biclique(6,2)`` (15
distributions on 64 points), the first member signed +1 and the rest at
random, against a sparse mixture center. A center mixes the family with
Dirichlet(0.1) weights, so one to three members carry most of its mass.
There are 800 centers of 20 programs each. Every program is feasible and
bounded, so a ``NumericalError`` is a kernel failure.

Run it from the repository root (about half a minute), as CI does, with a
RuntimeWarning (a NaN or an overflow in an LP) turned into a failure::

    PYTHONPATH=src python -W error::RuntimeWarning tests/lp_stress.py

It prints the count of failures, the worst primal residuals over all
programs (how far a row's ``a_ub x`` exceeds its ``b_ub``, and how far x
leaves its box 0 <= x <= upper) and one SHA-256 digest of every result's
value, query and mixture bytes, which two kernels share exactly when they
give the same bits. It exits 1 when a program fails or a residual exceeds
1e-9. ``--save-first-failure FILE`` writes the first failing program as JSON in
the format of ``tests/fixtures/max_margin_stress_first_failure.json``
(that fixture is the first program on which the dense-tableau kernel,
which kept the box 0 <= phi + 1 <= 2 as rows, failed).

A second section solves 60 seeded min-max games: the binary-vertex gap
table (``core.vertex_gaps``) of a random family of 2-8 Dirichlet members
and a Dirichlet center on 4-16 points, the game that KV ``crsd`` solves.
Each game goes through ``games._min_max`` on the row player's side (one LP
row per member, as ``zero_sum`` writes it, in ratio form) and through KV ``crsd``'s
bracket and cutting planes, and both values are checked against HiGHS
(scipy) within 1e-9 relative. A game that raises or misses counts as a
failure toward the exit status.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

N_CENTERS = 800
PER_CENTER = 20
SEED = 4
RESIDUAL_LIMIT = 1e-9
N_GAMES = 60
GAME_SEED = 27
GAME_TOL = 1e-9


def programs():
    """Yield (index, members, signs, center weights) for every program."""
    from sqlab import biclique

    dists = list(biclique(6, 2).dists)
    dist_mat = np.array([d.weights for d in dists])
    index = 0
    for c in range(N_CENTERS):
        rng = np.random.default_rng([SEED, c])
        mix = rng.dirichlet(np.full(len(dists), 0.1))
        center = mix @ dist_mat
        center = center / center.sum()
        for _ in range(PER_CENTER):
            k = int(rng.integers(2, 8))
            members = sorted(rng.choice(len(dists), k, replace=False).tolist())
            signs = [1] + [int(s) for s in rng.choice([-1, 1], k - 1)]
            yield index, members, signs, center
            index += 1


def games_of_families():
    """Yield (index, members, center) for every min-max game."""
    from sqlab import FiniteDistribution, FiniteDomain

    for index in range(N_GAMES):
        rng = np.random.default_rng([GAME_SEED, index])
        n, m = int(rng.integers(4, 17)), int(rng.integers(2, 9))
        domain = FiniteDomain(tuple((i,) for i in range(n)))
        members = [FiniteDistribution(domain, w) for w in rng.dirichlet(np.ones(n), m)]
        yield index, members, FiniteDistribution(domain, rng.dirichlet(np.ones(n)))


def highs_min_max(payoff) -> float:
    """min t over mixtures mu subject to (payoff @ mu)_r <= t, by HiGHS."""
    from scipy.optimize import linprog

    k, m = payoff.shape
    res = linprog(
        np.r_[np.zeros(m), 1.0],
        A_ub=np.hstack([payoff, -np.ones((k, 1))]),
        b_ub=np.zeros(k),
        A_eq=np.r_[np.ones(m), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * m + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def min_max_section() -> int:
    """Solve the min-max games, print one summary line and return the count
    of games that raise or miss HiGHS by more than ``GAME_TOL`` relative."""
    from sqlab import KV, crsd
    from sqlab.core import vertex_gaps
    from sqlab.games import _min_max

    start = time.perf_counter()
    failures, worst = [], 0.0
    for index, members, center in games_of_families():
        table = vertex_gaps(np.array([d.weights for d in members]), center.weights)
        try:
            reference = highs_min_max(table)
            top = float(table.max())
            values = (top - _min_max(top - table.T)[0],
                      crsd(members, center, KV).certificate["vertex_game_value"])
        except Exception as exc:  # noqa: BLE001 - every raise is a failure to report
            failures.append((index, table.shape, f"{type(exc).__name__}: {exc}"))
            continue
        miss = max(abs(v - reference) for v in values) / reference
        worst = max(worst, miss)
        if miss > GAME_TOL:
            failures.append((index, table.shape, f"values {values} against HiGHS {reference}"))
    elapsed = time.perf_counter() - start
    print(f"{len(failures)} failures of {N_GAMES} min-max games through _min_max and KV crsd"
          f" ({elapsed:.1f} s); worst relative miss against HiGHS {worst:.2e}"
          f" (limit {GAME_TOL:.0e})")
    for index, shape, message in failures:
        print(f"  game {index} ({shape[0]} x {shape[1]}): {message}")
    return len(failures)


def main(argv=None) -> int:
    from sqlab import FiniteDistribution, biclique, games, max_margin
    from sqlab.errors import NumericalError

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--save-first-failure", metavar="FILE")
    args = ap.parse_args(argv)

    dists = list(biclique(6, 2).dists)
    domain = dists[0].domain
    failures = []
    worst = {"row": 0.0, "bound": 0.0}
    solve = games.lp_solve

    def measured_solve(c, a_ub, b_ub, upper):
        """``lp_solve`` for a max-margin program, keeping its worst residuals."""
        res = solve(c, a_ub=a_ub, b_ub=b_ub, upper=upper)
        worst["row"] = max(worst["row"], float((a_ub @ res.x - b_ub).max()))
        worst["bound"] = max(worst["bound"], float(-res.x.min()), float((res.x - upper).max()))
        return res

    digest = hashlib.sha256()
    start = time.perf_counter()
    total = 0
    games.lp_solve = measured_solve
    try:
        for index, members, signs, center in programs():
            total += 1
            try:
                center_dist = FiniteDistribution(domain, center)
                res = max_margin([dists[i] for i in members], center_dist, signs)
            except NumericalError as exc:
                failures.append((index, members, signs, center, str(exc)))
                continue
            for part in (np.float64(res.value), res.query, res.mixture):
                digest.update(part.tobytes())
    finally:
        games.lp_solve = solve
    elapsed = time.perf_counter() - start
    print(f"{len(failures)} NumericalError of {total} max_margin LPs ({elapsed:.1f} s)")
    print(f"worst primal residual: rows {worst['row']:.2e}, bounds {worst['bound']:.2e}"
          f" (limit {RESIDUAL_LIMIT:.0e})")
    print(f"sha256 of the values, queries and mixtures: {digest.hexdigest()}")
    for index, members, signs, _, message in failures:
        print(f"  program {index}: members {members}, signs {signs}: {message}")
    if failures and args.save_first_failure:
        index, members, signs, center, message = failures[0]
        record = {
            "program": index,
            "members": members,
            "signs": signs,
            "member_weights": [dists[i].weights.tolist() for i in members],
            "center_weights": center.tolist(),
            "error": message,
        }
        with open(args.save_first_failure, "w") as fh:
            fh.write("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in record.items()))
            fh.write("\n}\n")
    game_failures = min_max_section()
    return 1 if failures or game_failures or max(worst.values()) > RESIDUAL_LIMIT else 0


if __name__ == "__main__":
    sys.exit(main())
