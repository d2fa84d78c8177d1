"""Streaming search: the universal solver driven by raw samples.

Instead of an oracle, the solver sees a stream of samples from the unknown
distribution. An SQ algorithm sees only the answers to its queries, so the
streaming solver is ``solvers._search``, the MW search loop of
``solve_search_universal``, with a sample-count answer source in place of
``OracleSession.scan``: the source draws one block of n_est fresh samples
per witness the scan reaches, answers the witness by the block's mean, and
stops at the first trigger, so the samples drawn are those of a row-by-row
loop. Here

    n_est = ceil((18 / tau^2) * ln(2 / delta')),
    delta' = delta / ((T + 1) * q),

with T = ceil(36 R_KL / tau^2) the update budget (``update_budget``),
q = |family| and R_KL (ln q by default) the KL radius from the uniform
mixture. This is Hoeffding at accuracy tau/3 and confidence delta' for
variables of range 2: a witness is a +-1 sign vector, so a sample's value
phi(x) lies in [-1, 1], and the mean of n samples misses E[phi] by tau/3 or
more with probability at most
2 exp(-2 n (tau/3)^2 / 2^2) = 2 exp(-n tau^2 / 18), which is at most delta'
once n >= (18 / tau^2) ln(2 / delta'). It is union-bounded over every
estimate a run can make: under the shared budget rule a run makes at most T
updates in at most T + 1 cover steps, and each step estimates at most q
witnesses.

The estimates come from ``core.SampleStream.scan``, the row loop of a
sampled ``OracleSession`` too, each as a sum over the block: ``draw_sum``
gives the sum of phi over the n_est samples that ``draw_block`` would list,
from the same uniforms, and the estimate is that sum / n_est. A witness row
is +-1, so every partial sum is an exact integer (at most n_est in size)
and the estimate has the bits of the mean over the listed samples, in
whatever order the sum is taken; ``stream_solve`` checks each scanned block
for +-1 rows. A distribution whose cdf lies on a dyadic grid of K <= 2^10
buckets (every biclique(8,2) member; ``core.dyadic_edges`` finds the grid
once per stream) is summed from a histogram of the uniforms' buckets,
weighted by phi at the point that owns each bucket, in O(n_est + K); any
other (biclique(6,2), the line family) from the per-point counts of the
sorted uniforms (``draw_counts``, ``core.cdf_counts``). That is only the
simulator's shortcut. The ledger prices an algorithm that reads the stream
one sample at a time, adding phi(x) into one accumulator and counting the
samples in one reused counter.

The state that must persist across stream items is tiny: the update history
— the applied triggers ``_search`` returns, one (distribution index, sign)
pair per multiplicative-weights update, at ceil(log2 q) + 1 bits each —
plus a single reused sample counter of ceil(log2(n_est + 1)) bits. The
mixture itself is scratch: it is a deterministic replay of the history
(``replay_weights`` reproduces it bit-for-bit), so it is charged to peak
(working) memory, not to the persistent budget. The per-run ledger records

    persistent_bits <= T * (ceil(log2 q) + 1) + counter_width,
    samples         <= (T + 1) * q * n_est,

and the peak adds the 64-bit-per-cell mixture vector, one accumulator, a
sample register, and the witness loop index.
"""

from __future__ import annotations

import math

import numpy as np

from .core import K1, ProblemSpec, SampleStream
from .solvers import MWState, _mw_start, _search, update_budget

__all__ = [
    "SampleStream",
    "stream_requirements",
    "replay_weights",
    "stream_solve",
]


def stream_requirements(problem: ProblemSpec, tau: float, delta: float, kl_bound: float | None = None) -> dict:
    """Budgets and widths for a streaming run on this family.

    ``n_est`` is Hoeffding's sample count for range-2 variables: the +-1
    witness values of n samples average within tau/3 of their expectation
    except with probability 2 exp(-2 n (tau/3)^2 / 2^2) <= delta', which
    holds for n >= (18 / tau^2) ln(2 / delta').
    """
    q = problem.n_dists
    r_kl = kl_bound if kl_bound is not None else (math.log(q) if q > 1 else 1.0)
    t_budget = update_budget(r_kl, tau, K1)
    # a run makes at most t_budget updates in at most t_budget + 1 cover
    # steps, each with at most q estimates
    delta_prime = delta / ((t_budget + 1) * q)
    n_est = math.ceil((18.0 / tau**2) * math.log(2.0 / delta_prime))
    index_bits = math.ceil(math.log2(q)) if q > 1 else 0
    counter_width = math.ceil(math.log2(n_est + 1))
    return {
        "q": q,
        "r_kl": r_kl,
        "t_budget": t_budget,
        "delta_prime": delta_prime,
        "n_est": n_est,
        "index_bits": index_bits,
        "counter_width": counter_width,
        "persistent_bound": t_budget * (index_bits + 1) + counter_width,
        "samples_bound": (t_budget + 1) * q * n_est,
    }


# perfbench/tracing.py looks this name up to count streaming MW updates; it
# goes when that lookup does.
_mw_apply = MWState.update


def replay_weights(problem: ProblemSpec, tau: float, history) -> np.ndarray:
    """Recompute the mixture from the persistent history alone.

    Each entry is (distribution index, sign); the witness is the sign
    pattern of (that distribution - current mixture), so the whole
    trajectory is a deterministic function of the history. The streaming
    solver's incremental mixture must match this bit-for-bit, which is what
    licenses charging the mixture to scratch rather than persistent memory.
    Each row is built from the target's weights alone, element by element
    as ``_k1_witnesses`` builds it (d - t >= 0 exactly when d >= t).
    """
    state = _mw_start(problem, tau, K1, None)[0]
    dist_mat = problem.dist_matrix
    for target, sign in history:
        state = state.update(np.where(dist_mat[target] >= state.weights, sign, -sign))
    return state.weights


def _sum_scan(stream: SampleStream, n: int):
    """The answer source of ``stream_solve`` (see ``solvers._first_trigger``):
    ``stream.scan`` with ``n`` samples per row.

    The sum is exact, and so bit for bit the mean over the listed samples,
    only for integer-valued rows; a block with any entry other than +-1
    raises ValueError before anything is drawn.
    """

    def scan(block, stop):
        if not np.all(np.abs(block) == 1.0):
            raise ValueError("streaming estimates need +-1 witness rows")
        return stream.scan(block, n, stop)

    return scan


def stream_solve(
    problem: ProblemSpec,
    tau: float,
    delta: float,
    stream: SampleStream,
    kl_bound: float | None = None,
) -> dict:
    """Run the sample-driven universal search and account for every bit.

    Returns a report with the outcome ("solved" / "budget_exceeded"), the
    solution, the persistent history, and a memory/sample ledger
    {persistent_bits, peak_bits, samples, persistent_bound, samples_bound,
    within_bound}. StreamExhaustedError propagates when the stream runs dry.
    """
    req = stream_requirements(problem, tau, delta, kl_bound)
    n_x = len(problem.domain)
    drawn_before = stream.drawn
    # the history is the applied triggers: one (member, sign) per update
    (outcome, solution, details), state, history = _search(
        problem, tau, K1, _sum_scan(stream, req["n_est"]), "det", None, None, req["r_kl"]
    )
    persistent_bits = len(history) * (req["index_bits"] + 1) + req["counter_width"]
    # scratch: the replayable mixture vector, one accumulator, the sample
    # register, and the witness loop index
    peak_bits = persistent_bits + 64 * n_x + 64
    peak_bits += math.ceil(math.log2(n_x)) if n_x > 1 else 0
    peak_bits += math.ceil(math.log2(problem.n_dists + 1))
    ledger = {
        "persistent_bits": persistent_bits,
        "peak_bits": peak_bits,
        "samples": stream.drawn,
        "estimates": (stream.drawn - drawn_before) // req["n_est"],  # n_est samples each
        "n_est": req["n_est"],
        "persistent_bound": req["persistent_bound"],
        "samples_bound": req["samples_bound"],
        "within_bound": (
            persistent_bits <= req["persistent_bound"]
            and stream.drawn <= req["samples_bound"]
        ),
    }
    return {
        "outcome": outcome,
        "solution": solution,
        "updates": state.step,
        "history": history,
        "ledger": ledger,
        **details,
    }
