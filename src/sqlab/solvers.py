"""Multiplicative-weights machinery and oracle-driven solvers.

Every MW solver starts from ``_mw_start`` and runs one driver, ``_run_mw``:
keep a candidate distribution D_t as a multiplicative-weights mixture, and
at each step either detect a discrepancy (a triggered loss vector, which
updates D_t) or commit to a finished outcome. An SQ algorithm sees only
the answers, so universal search and the streaming solver are one search
loop, ``_search``, handed ``OracleSession.scan`` or (in ``streaming``) a
scan that answers each witness by the mean of n_est fresh samples. Search,
the verifiable fallback and streaming share one trigger scan,
``_first_trigger``: a witness triggers when its answer strays more than
2 tau / 3 from its expectation under D_t (on the kappa scale), and the
sign of the gap is the sign of the update. A cover step is answered as one
vectorized scan: its witnesses are the rows of a 2-D array, their
expectations under D_t are one matrix-vector product, and the answer
source's ``scan(block, stop)`` stops at the first row whose gap predicate
holds, so only the rows actually reached are asked and recorded. The K1
margins of the whole family against D_t come from one vectorized pass
(``_k1_witnesses``), which builds sign witnesses for the far members only;
KV keeps a per-member threshold scan. ``MWState.update`` checks the loss
and the positivity of the new weights, then builds its successor without
the public constructor's copy and re-checks, which hold by construction.

The budget rule is the same everywhere: at most ceil(36 * KL_bound / tau^2)
updates (K1 margins; the square-root-scale variant uses gamma = tau^2/9 and
budget ceil(324 * KL_bound / tau^4)); a trigger found after the last allowed
update ends the run as ``budget_exceeded`` without being applied, so a run
makes at most budget + 1 steps. Exceeding the cap while every oracle answer
was valid is flagged as a theorem violation rather than silently retried.
Every ``RunReport`` is built by ``_run_report``, which reads the query count,
transcript and valid-answer fraction from the session.

Solvers:

- ``solve_search_universal``: search over a finite family. Deterministic
  mode queries every per-distribution witness; randomized mode samples
  ceil(d ln(1/delta')) witnesses per step from a fractional cover measure
  and outputs the proposed solution once none of them triggers.
- ``solve_decision_sampled``: distinguish reference vs family with
  ceil(d ln(1/delta)) witnesses sampled once from the fractional cover,
  asked as one block up to the first distinguishing answer.
- ``solve_verifiable``: accept a solution whose verify query measures at
  most theta + 2 tau / 3 (certifying D[phi_f] <= theta + tau), otherwise
  turn the failed verification into an update.
- ``solve_optimizing``: binary search over the threshold to width tau/4
  with verifiable probes at inner tolerance 3 tau / 4.
- ``learn_with_heavy_points``: the heavy-point concept learner (label heavy
  points individually, then fall back to concepts that explain the
  remaining positive mass).
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
    ProblemSpec,
    draw_indices,
    sqrt_gap,
    witness_count,
)
from .errors import OracleMismatchError, SupportError, UncoverableError
from .games import achievable_subsets, fractional_cover
from .oracles import STAT, VROOT, OracleSession, Transcript

__all__ = [
    "MWState",
    "average_regret",
    "CoverStep",
    "margin_cover",
    "RunReport",
    "update_budget",
    "solve_search_universal",
    "solve_decision_sampled",
    "solve_verifiable",
    "solve_optimizing",
    "learn_with_heavy_points",
]


# ---------------------------------------------------------------------------
# multiplicative weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MWState:
    """Multiplicative-weights iterate: strictly positive weights summing to 1.

    The update is the exact rule w_i <- w_i (1 - gamma z_i), renormalized;
    with |z_i| <= 1 and 0 < gamma < 1 positivity is automatic.
    """

    weights: np.ndarray
    gamma: float
    step: int = 0

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie strictly between 0 and 1")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("multiplicative weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @classmethod
    def start(cls, weights: Sequence[float], gamma: float) -> "MWState":
        w = np.asarray(weights, dtype=float)
        return cls(weights=w / w.sum(), gamma=gamma)

    def update(self, loss: Sequence[float]) -> "MWState":
        z = np.asarray(loss, dtype=float)
        if z.shape != self.weights.shape:
            raise ValueError("loss vector length mismatch")
        if np.any(np.abs(z) > 1.0 + 1e-12):
            raise ValueError("losses must lie in [-1, 1]")
        w = self.weights * (1.0 - self.gamma * z)
        w /= w.sum()
        if not np.all(w > 0):
            raise ValueError("multiplicative weights must stay strictly positive")
        # gamma is unchanged and w sums to 1 by construction, so the
        # successor skips the constructor's copy and re-checks
        w.setflags(write=False)
        successor = object.__new__(MWState)
        for name, value in (("weights", w), ("gamma", self.gamma), ("step", self.step + 1)):
            object.__setattr__(successor, name, value)
        return successor


def average_regret(weight_history: Sequence[np.ndarray], losses: Sequence[np.ndarray]) -> float:
    """(sum_t <w_t, z_t> - min_i sum_t z_t[i]) / T against the best point mass."""
    if len(weight_history) != len(losses) or not losses:
        raise ValueError("need one weight vector per loss vector")
    loss_mat = np.asarray(losses, dtype=float)
    incurred = float(sum(w @ z for w, z in zip(weight_history, loss_mat)))
    best = float(loss_mat.sum(axis=0).min())
    return (incurred - best) / len(losses)


def update_budget(kl_bound: float, tau: float, kappa: str = K1) -> int:
    """Update cap ceil(36 KL / tau^2) (K1) or ceil(324 KL / tau^4) (KV)."""
    if kappa == K1:
        return math.ceil(36.0 * kl_bound / tau**2)
    if kappa == KV:
        return math.ceil(324.0 * kl_bound / tau**4)
    raise ValueError(f"unknown kappa tag {kappa!r}")


# ---------------------------------------------------------------------------
# margins and witnesses against the current mixture
# ---------------------------------------------------------------------------


def _k1_witnesses(dist_mat: np.ndarray, t_vec: np.ndarray):
    """The K1 margins |D_i - t|_1 of every row of ``dist_mat`` against
    ``t_vec``, and a function giving the best signed queries sign(D_i - t)
    of chosen rows as one 2-D block, built for those rows only."""
    diff = dist_mat - t_vec
    # d - t >= 0 exactly when d >= t: two unequal doubles never differ by 0
    up = diff >= 0
    gaps = np.abs(diff, out=diff).sum(axis=1)

    def signs(rows) -> np.ndarray:
        # in place: a chained expression allocates a block per step, and
        # ran slower than np.where in the MW loop
        block = up[rows].astype(float)
        block *= 2.0
        block -= 1.0
        return block

    return gaps, signs


def _kv_witness(d: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
    """Best sqrt-scale gap over likelihood-ratio threshold sets.

    The maximizer of sqrt(D[phi]) - sqrt(T[phi]) over phi in [0,1]^X is a
    threshold set of the ratio d/t, so scanning prefixes of the ratio order
    (both directions) finds the best unit witness among 2|X| candidates.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(t > 0, d / np.where(t > 0, t, 1.0), np.where(d > 0, np.inf, 1.0))
    best_gap, best_phi = 0.0, np.zeros_like(d)
    for order in (np.argsort(-ratio, kind="stable"), np.argsort(ratio, kind="stable")):
        dc = np.cumsum(d[order])
        tc = np.cumsum(t[order])
        gaps = sqrt_gap(dc, tc)
        j = int(np.argmax(gaps))
        if gaps[j] > best_gap:
            best_gap = float(gaps[j])
            phi = np.zeros_like(d)
            phi[order[: j + 1]] = 1.0
            best_phi = phi
    return best_gap, best_phi


def _kv_witnesses(dist_mat: np.ndarray, t_vec: np.ndarray):
    """``_k1_witnesses`` on the square-root scale: one threshold scan per row."""
    found = [_kv_witness(d, t_vec) for d in dist_mat]
    gaps = np.array([gap for gap, _ in found])
    return gaps, lambda rows: np.array([found[i][1] for i in rows]).reshape(len(rows), t_vec.size)


def _witnesses(kappa: str):
    return _k1_witnesses if kappa == K1 else _kv_witnesses


# ---------------------------------------------------------------------------
# cover oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverStep:
    """What to do at the current mixture: a proposed solution index, the
    witness queries as the rows of one 2-D block (with the distribution
    index each row targets), and — for randomized runs — a sampling
    measure over the rows and the fractional cover value d."""

    solution_index: int
    queries: np.ndarray
    targets: tuple
    unservable: tuple = ()
    query_measure: np.ndarray | None = None
    d: float | None = None


def margin_cover(problem: ProblemSpec, tau: float, kappa: str = K1, randomized: bool = False):
    """The default cover oracle.

    At mixture D_t: distributions within margin tau are "close"; the
    proposed solution is the first one valid for every close distribution
    (falling back to best coverage). Every far distribution the proposal
    does not serve gets its maximum-margin witness, in index order, as one
    row of the step's query block; the margins of the whole family come
    from one vectorized pass, and witness rows are built for the far
    members only. In randomized mode the far members are instead grouped
    into a fractional cover (via the achievable-subset family against D_t)
    whose witnesses form the block, so a solver can sample few of them.
    """
    witnesses = _witnesses(kappa)
    dist_mat = problem.dist_matrix
    serves = problem.validity  # serves[f, i]: solution f is valid for dist i

    def oracle(t_vec: np.ndarray) -> CoverStep:
        gaps, witness_rows = witnesses(dist_mat, t_vec)
        close = gaps <= tau
        covering = np.flatnonzero(serves[:, close].all(axis=1))
        unservable: tuple = ()
        if covering.size:
            f_idx = int(covering[0])
        else:
            f_idx = int(np.argmax(serves[:, close].sum(axis=1)))
            unservable = tuple(np.flatnonzero(close & ~serves[f_idx]).tolist())
        far_targets = np.flatnonzero(~serves[f_idx] & ~close).tolist()
        if not randomized:
            return CoverStep(
                solution_index=f_idx,
                queries=witness_rows(far_targets),
                targets=tuple(far_targets),
                unservable=unservable,
            )
        # randomized: fractional cover over the far distributions
        t_dist = FiniteDistribution(problem.domain, t_vec / t_vec.sum())
        if far_targets:
            family = achievable_subsets(
                [problem.dists[i] for i in far_targets], t_dist, tau, kappa=kappa
            )
            cover = fractional_cover(family)
            queries = np.array(family.witnesses).reshape(-1, dist_mat.shape[1])
            targets = tuple(tuple(sorted(far_targets[i] for i in s)) for s in family.sets)
            q_measure, d_value = cover.q, cover.value
        else:
            queries, targets = np.zeros((0, dist_mat.shape[1])), ()
            q_measure, d_value = np.zeros(0), 0.0
        return CoverStep(
            solution_index=f_idx,
            queries=queries,
            targets=targets,
            unservable=unservable,
            query_measure=q_measure,
            d=d_value,
        )

    return oracle


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------

SOLVED = "solved"
STUCK = "stuck"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass
class RunReport:
    """Outcome of one solver run.

    ``theorem_violation`` is set when the run broke a proven guarantee
    (budget exhausted / no acceptable output) even though every oracle
    answer was valid.
    """

    outcome: str
    solution: object | None
    queries: int
    updates: int
    transcript: Transcript
    valid_answer_fraction: float
    theorem_violation: bool = False
    details: dict = field(default_factory=dict)


def _run_report(
    session: OracleSession,
    outcome: str,
    solution,
    updates: int = 0,
    details: dict | None = None,
    breaks_guarantee: bool = False,
) -> RunReport:
    """The one way to build a RunReport: the query count, transcript and
    valid-answer fraction come from the session, and the run is a theorem
    violation when its outcome breaks a guarantee although every answer was
    valid. Which outcomes break a guarantee is the caller's call."""
    valid = session.transcript.valid_fraction
    return RunReport(
        outcome=outcome,
        solution=solution,
        queries=session.query_count,
        updates=updates,
        transcript=session.transcript,
        valid_answer_fraction=valid,
        theorem_violation=breaks_guarantee and valid == 1.0,
        details=details or {},
    )


def _check_session(session: OracleSession, kappa: str, tau_oracle: float) -> None:
    want = STAT if kappa == K1 else VROOT
    if session.spec.kind != want:
        raise OracleMismatchError(f"{kappa} solvers need a {want} oracle session")
    if session.spec.tau > tau_oracle + 1e-12:
        raise OracleMismatchError(
            f"oracle tolerance {session.spec.tau} is looser than required {tau_oracle}"
        )


# ---------------------------------------------------------------------------
# the multiplicative-weights driver
# ---------------------------------------------------------------------------


def _first_trigger(t_vec: np.ndarray, block, scan, kappa: str, tau: float):
    """Scan the rows of the 2-D ``block`` in order against the answer source.

    ``scan(block, stop)`` answers rows up to the first at which the
    vectorized predicate ``stop(rows, answers)`` holds and returns that row
    (or None) with the answers of the rows it consumed, so an oracle session
    records just the rows asked (``OracleSession.scan`` has this signature).
    The predicate is the gap between answer and expectation under ``t_vec``
    (``block @ t_vec``, computed once) above 2 tau / 3 on the kappa scale.
    Returns ``(j, sign)`` for that row, with sign +1 when the mixture
    overestimates, so that the loss ``sign * block[j]`` moves mass toward
    the answer; None when nothing triggers.
    """
    expected = block @ t_vec
    bound = 2.0 * tau / 3.0
    if kappa == K1:
        def stop(rows, answers):
            # the builtin abs: on the one-row calls of a sampled scan it
            # costs a third of a numpy ufunc call on a scalar
            return abs(expected[rows] - answers) > bound
    else:
        def stop(rows, answers):
            return sqrt_gap(expected[rows], answers) > bound
    j, answers = scan(block, stop)
    if j is None:
        return None
    return j, (1.0 if expected[j] > answers[j] else -1.0)


def _mw_start(problem: ProblemSpec, tau: float, kappa: str, kl_bound: float | None):
    """The start state of every MW run, the family's uniform mixture as
    ``mixture`` returns it (``ProblemSpec.uniform_mixture``) at gamma
    tau/3 (tau^2/9 on the square-root scale), and the update budget at
    ``kl_bound`` (default ln q, or 1).

    MW weights must stay strictly positive, so a mixture without mass on
    some domain point (every member of biclique(n, n) sits on the all-ones
    point) is a SupportError that names those points, raised before any
    cover is built.
    """
    weights = problem.uniform_mixture.weights
    empty = np.flatnonzero(weights <= 0)
    if empty.size:
        names = ", ".join(repr(problem.domain.elements[i]) for i in empty[:4])
        more = f" and {empty.size - 4} more" if empty.size > 4 else ""
        raise SupportError(
            f"the family's uniform mixture has no mass on domain points {names}{more}; "
            "multiplicative weights need every point of the domain"
        )
    gamma = tau / 3.0 if kappa == K1 else tau**2 / 9.0
    if kl_bound is None:
        kl_bound = math.log(problem.n_dists) if problem.n_dists > 1 else 1.0
    return MWState(weights=weights, gamma=gamma), update_budget(kl_bound, tau, kappa)


def _run_mw(state: MWState, budget: int, step):
    """The multiplicative-weights loop of every MW solver.

    ``step(weights)`` returns either the triggered loss vector (an ndarray)
    or a finished result ``(outcome, solution, details)``. A trigger found
    after ``budget`` updates ends the run as ``BUDGET_EXCEEDED`` and is not
    applied, so a run makes at most ``budget`` updates in at most
    ``budget + 1`` steps. Returns the result and the final state, whose
    ``step`` is the number of updates made.
    """
    while True:
        result = step(state.weights)
        if not isinstance(result, np.ndarray):
            return result, state
        if state.step >= budget:
            return (BUDGET_EXCEEDED, None, {"budget": budget}), state
        state = state.update(result)


def _search(problem: ProblemSpec, tau, kappa, scan, mode, delta, rng, kl_bound):
    """The MW search of ``solve_search_universal`` and ``stream_solve``,
    whatever answer source ``scan`` is (see ``_first_trigger``). When no
    witness triggers, the cover's proposal is the result, listing the close
    members it leaves unserved. Returns the result, the final state and the
    applied triggers, one (target, sign) pair per update."""
    start, budget = _mw_start(problem, tau, kappa, kl_bound)
    cover = margin_cover(problem, tau, kappa=kappa, randomized=(mode == "rand"))
    delta_step = None if delta is None else delta / max(budget, 1)
    triggers: list[tuple] = []

    def step(t_vec):
        cover_step = cover(t_vec)
        queries, targets = cover_step.queries, cover_step.targets
        if mode == "rand" and len(queries):
            s = witness_count(cover_step.d, delta_step)
            rows = np.unique(draw_indices(cover_step.query_measure, rng, s))
            queries, targets = queries[rows], [targets[i] for i in rows]
        hit = _first_trigger(t_vec, queries, scan, kappa, tau)
        if hit is None:
            unserved = list(cover_step.unservable)
            details = {"cover_incomplete": unserved} if unserved else {}
            return SOLVED, problem.solutions[cover_step.solution_index], details
        j, sign = hit
        triggers.append((targets[j], int(sign)))
        return sign * queries[j]

    result, state = _run_mw(start, budget, step)
    del triggers[state.step:]  # a trigger past the budget is not applied
    return result, state, triggers


# ---------------------------------------------------------------------------
# universal search
# ---------------------------------------------------------------------------


def solve_search_universal(
    problem: ProblemSpec,
    tau: float,
    session: OracleSession,
    kappa: str = K1,
    mode: str = "det",
    delta: float | None = None,
    rng: np.random.Generator | None = None,
    kl_bound: float | None = None,
) -> RunReport:
    """Multiplicative-weights search over a finite distribution family.

    Starts from the uniform mixture, queries witnesses against the current
    mixture at oracle tolerance tau/3 (sqrt scale: tau/3 with gamma tau^2/9),
    updates on any answer deviating by more than 2 tau / 3, and outputs the
    proposed solution once nothing triggers. ``mode="rand"`` needs ``delta``
    and ``rng``: each step samples ceil(d ln(T/delta)) witnesses from the
    cover measure.
    """
    if mode not in ("det", "rand"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "rand" and (delta is None or rng is None):
        raise ValueError("randomized mode needs delta and rng")
    _check_session(session, kappa, tau / 3.0)
    (outcome, solution, details), state, _ = _search(
        problem, tau, kappa, session.scan, mode, delta, rng, kl_bound
    )
    return _run_report(
        session, outcome, solution, state.step, details,
        breaks_guarantee=(outcome == BUDGET_EXCEEDED),
    )


# ---------------------------------------------------------------------------
# decision by sampled witnesses
# ---------------------------------------------------------------------------


def decision_cover(problem: ProblemSpec, tau: float):
    """Precompute the (family, fractional cover) pair the decision solver
    samples from — reusable across trials on the same instance."""
    if problem.reference is None:
        raise ValueError("decision solving needs a reference distribution")
    family = achievable_subsets(list(problem.dists), problem.reference, tau, kappa=K1)
    missing = family.uncovered()
    if missing:
        raise UncoverableError(
            f"distributions {missing} are indistinguishable from the reference at radius {tau}",
            tuple(missing),
        )
    return family, fractional_cover(family)


def solve_decision_sampled(
    problem: ProblemSpec,
    tau: float,
    delta: float,
    session: OracleSession,
    rng: np.random.Generator,
    cover=None,
) -> RunReport:
    """Reference-vs-family decision with ceil(d ln(1/delta)) sampled witnesses.

    Builds the achievable family against the reference once (or reuses a
    precomputed ``decision_cover`` result), samples witness sets from the
    fractional cover measure, queries each witness at oracle tolerance
    tau/2, and reports "not-reference" iff some answer strays more than
    tau/2 from the reference's value.
    """
    if problem.reference is None:
        raise ValueError("decision solving needs a reference distribution")
    if session.spec.kind != STAT or session.spec.tau > tau / 2.0 + 1e-12:
        raise OracleMismatchError("decision solver needs a STAT oracle at tolerance tau/2")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    d0 = problem.reference
    family, cover = cover if cover is not None else decision_cover(problem, tau)
    s = witness_count(cover.value, delta)
    block = np.array([family.witnesses[j] for j in np.unique(draw_indices(cover.q, rng, s))])
    ref_values = block @ d0.weights
    first, _ = session.scan(block, lambda rows, a: np.abs(a - ref_values[rows]) > tau / 2.0)
    verdict = "reference" if first is None else "not-reference"
    return _run_report(
        session, SOLVED, verdict, details={"witness_budget": s, "cover_value": cover.value}
    )


# ---------------------------------------------------------------------------
# verifiable search
# ---------------------------------------------------------------------------


def solve_verifiable(
    problem: ProblemSpec,
    theta: float,
    tau: float,
    session: OracleSession,
    kl_bound: float | None = None,
) -> RunReport:
    """Search with verification: accept f when its verify query measures at
    most theta + 2 tau / 3 (certifying D[phi_f] <= theta + tau on valid
    answers).

    While the mixture has a solution passing the threshold, test it — a
    failed verification is itself an update direction. Otherwise fall back
    to distinguishing queries against the whole family. ``stuck`` means no
    threshold candidate and no triggering witness existed.
    """
    if problem.verify is None or problem.threshold is None:
        raise ValueError("solve_verifiable needs verify queries")
    _check_session(session, K1, tau / 3.0)
    start, budget = _mw_start(problem, tau, K1, kl_bound)
    verify_mat = np.array(
        [problem.verify[f].values for f in problem.solutions]
    )  # (F, X)
    dist_mat = problem.dist_matrix

    def step(t_vec):
        candidates = np.flatnonzero(verify_mat @ t_vec <= theta)
        if candidates.size:
            fi = int(candidates[0])
            phi = verify_mat[fi]
            if session.query(phi) <= theta + 2.0 * tau / 3.0:
                return SOLVED, problem.solutions[fi], {}
            return -phi  # mixture underestimates phi_f; push mass toward it
        gaps, witness_rows = _k1_witnesses(dist_mat, t_vec)
        far = witness_rows(np.flatnonzero(gaps > tau))
        hit = _first_trigger(t_vec, far, session.scan, K1, tau)
        if hit is None:
            return STUCK, None, {}
        j, sign = hit
        return sign * far[j]

    (outcome, solution, details), state = _run_mw(start, budget, step)
    # STUCK is a legal outcome (the instance may simply not be verifiably
    # well-posed at this radius); only blowing the update budget on valid
    # answers contradicts a theorem.
    return _run_report(
        session, outcome, solution, state.step, {**details, "theta": theta},
        breaks_guarantee=(outcome == BUDGET_EXCEEDED),
    )


def solve_optimizing(
    problem: ProblemSpec,
    eps: float,
    tau: float,
    session: OracleSession,
    kl_bound: float | None = None,
) -> RunReport:
    """Binary search on the verification threshold to width tau/4.

    Each probe runs the verifiable solver at inner tolerance 3 tau / 4, so a
    single STAT(tau/4) oracle session serves every probe. An accepting probe
    at theta certifies D[phi_f] <= theta + 3 tau / 4; a stuck probe certifies
    that no solution sits below theta - 3 tau / 4. The final solution is
    (eps + tau)-optimal whenever eps >= 3 tau / 4.
    """
    if problem.verify is None:
        raise ValueError("solve_optimizing needs verify queries")
    inner_tau = 3.0 * tau / 4.0
    _check_session(session, K1, tau / 4.0)
    lo, hi = 0.0, 1.0
    best_solution = None
    probes = 0
    total_updates = 0
    while hi - lo > tau / 4.0:
        mid = 0.5 * (lo + hi)
        report = solve_verifiable(problem, mid, inner_tau, session, kl_bound=kl_bound)
        probes += 1
        total_updates += report.updates
        if report.outcome == SOLVED:
            hi = mid
            best_solution = report.solution
        else:
            lo = mid
    if best_solution is None:
        report = solve_verifiable(problem, hi, inner_tau, session, kl_bound=kl_bound)
        probes += 1
        total_updates += report.updates
        if report.outcome == SOLVED:
            best_solution = report.solution
    solved = best_solution is not None
    return _run_report(
        session, SOLVED if solved else STUCK, best_solution, total_updates,
        {"theta_hat": hi, "probes": probes, "inner_tau": inner_tau},
        breaks_guarantee=not solved,
    )


# ---------------------------------------------------------------------------
# heavy-point concept learner
# ---------------------------------------------------------------------------


def learn_with_heavy_points(
    marginal: FiniteDistribution,
    concepts: Sequence[tuple],
    eps: float,
    session: OracleSession,
) -> RunReport:
    """Learn a {-1,+1} labeling over the marginal's domain to error eps.

    The oracle session runs over the lifted labeled joint at STAT tolerance
    at most eps^2/13. Points with marginal mass >= eps^2/12 (at most
    12/eps^2 of them) are labeled individually — the mass gap over eps^2/13
    makes each sign query conclusive. If the resulting hypothesis (negative
    elsewhere) already measures below 5 eps / 6 it is returned; otherwise
    the concepts carrying at least 2 eps / 3 positive marginal mass outside
    the heavy set (computable without queries, since the marginal is known)
    are tried in order, accepting the first whose disagreement measures at
    most eps / 2.

    ``concepts`` is a list of (concept_id, labels) with labels a +-1 vector
    over the marginal's domain. Returns a RunReport whose solution is
    (hypothesis labels over the marginal domain, via_concept_id_or_None).
    """
    if eps >= 1.0:
        labels = -np.ones(len(marginal.domain))
        return _run_report(
            session, SOLVED, (labels, None),
            details={"note": "eps >= 1: the constant hypothesis is trivially accurate"},
        )
    if session.spec.kind != STAT or session.spec.tau > eps**2 / 13.0 + 1e-15:
        raise OracleMismatchError("the learner needs a STAT oracle at tolerance eps^2/13")
    joint_domain = session.dist.domain
    base = marginal.domain
    n = len(base)
    heavy = [i for i in range(n) if marginal.weights[i] >= eps**2 / 12.0]

    def lifted_index(z_idx: int, b: int) -> int:
        z = base.elements[z_idx]
        prefix = tuple(z) if isinstance(z, tuple) else (z,)
        return joint_domain.index_of(prefix + (b,))

    labels = -np.ones(n)
    for i in heavy:
        phi = np.zeros(len(joint_domain))
        phi[lifted_index(i, 1)] = 1.0
        phi[lifted_index(i, -1)] = -1.0
        v = session.query(phi)
        labels[i] = 1.0 if v > 0 else -1.0

    def disagreement_query(h: np.ndarray) -> np.ndarray:
        phi = np.zeros(len(joint_domain))
        for i in range(n):
            phi[lifted_index(i, -int(h[i]))] = 1.0
        return phi

    measured = session.query(disagreement_query(labels))
    if measured < 5.0 * eps / 6.0:
        return _run_report(
            session, SOLVED, (labels, None),
            details={"measured_error": measured, "heavy_points": len(heavy)},
        )
    heavy_set = set(heavy)
    candidates = []
    for concept_id, c_labels in concepts:
        c = np.asarray(c_labels, dtype=float)
        outside_pos = float(
            sum(
                marginal.weights[i]
                for i in range(n)
                if i not in heavy_set and c[i] == 1.0
            )
        )
        if outside_pos >= 2.0 * eps / 3.0:
            candidates.append((concept_id, c))
    for concept_id, c in candidates:
        h = labels.copy()
        for i in range(n):
            if i not in heavy_set:
                h[i] = c[i]
        measured_c = session.query(disagreement_query(h))
        if measured_c <= eps / 2.0:
            return _run_report(
                session, SOLVED, (h, concept_id),
                details={
                    "measured_error": measured_c,
                    "heavy_points": len(heavy),
                    "candidates": len(candidates),
                },
            )
    return _run_report(
        session, STUCK, (labels, None),
        details={"candidates": len(candidates), "heavy_points": len(heavy)},
        breaks_guarantee=True,
    )
