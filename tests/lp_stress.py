"""Stress harness for the max-margin LP: 16,000 seeded well-posed programs.

Each program is the LP that randomized search solves for a signed subset
of far members: ``max_margin`` on 2-7 members of ``biclique(6,2)`` (15
distributions on 64 points), the first member signed +1 and the rest at
random, against a sparse mixture center. A center mixes the family with
Dirichlet(0.1) weights, so one to three members carry most of its mass.
There are 800 centers of 20 programs each. Every program is feasible and
bounded, so a ``NumericalError`` is a kernel failure.

Run it from the repository root (about half a minute)::

    PYTHONPATH=src python tests/lp_stress.py

It prints the count of failures and exits 1 when there is one.
``--save-first-failure FILE`` writes the first failing program as JSON in
the format of ``tests/fixtures/max_margin_stress_first_failure.json``
(that fixture is the first program on which the dense-tableau kernel,
which kept the box 0 <= phi + 1 <= 2 as rows, failed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

N_CENTERS = 800
PER_CENTER = 20
SEED = 4


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


def main(argv=None) -> int:
    from sqlab import FiniteDistribution, biclique, max_margin
    from sqlab.errors import NumericalError

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--save-first-failure", metavar="FILE")
    args = ap.parse_args(argv)

    dists = list(biclique(6, 2).dists)
    domain = dists[0].domain
    failures = []
    start = time.perf_counter()
    total = 0
    for index, members, signs, center in programs():
        total += 1
        try:
            max_margin([dists[i] for i in members], FiniteDistribution(domain, center), signs)
        except NumericalError as exc:
            failures.append((index, members, signs, center, str(exc)))
    elapsed = time.perf_counter() - start
    print(f"{len(failures)} NumericalError of {total} max_margin LPs ({elapsed:.1f} s)")
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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
