"""Dense linear programming and finite zero-sum games.

Everything here is exact small-scale machinery: a two-phase primal simplex
with Bland's rule (no cycling, no external solver), zero-sum game values via
the classic shift-positive reduction, maximum-margin separation queries, and
the achievable-subset / fractional-cover machinery the dimension layer is
built on. The simplex kernel (``_run_simplex``) is one dense tableau loop:
each iteration picks the entering column with one ``argmin``, runs the ratio
test over the few rows as plain floats and pivots with one rank-1 update.
Every program runs that one loop, with one ratio test that tells a pivot
from rounding noise relative to each column's scale. Optional per-variable
upper bounds are bounds of the loop, not rows: a variable at its bound is a
complemented nonbasic column, and a bound flip moves only the right-hand
side. The pivots are those of the same program with one ``x_j <= upper_j``
row per bound (the ranks of Bland's rule are that tableau's column
indices), on a tableau smaller by those rows. The primal point is read from
a basis solve on the original rows, as the duals are; ``max_margin`` keeps
its box 0 <= phi + 1 <= 2 as bounds, so its LP has k rows instead of
k + |X|.

``achievable_subsets`` first checks the top of the lattice: when one
singleton's sign query separates every member, the family is the one set
of all members and no subset is settled. Otherwise it settles each
candidate signed subset by the cheapest test that decides it: a closure
prune (a candidate with an unachievable drop-one subset is skipped), then a
certificate from the pool of witnesses found so far, then an LP-free
bracket on its margin (the uniform mixture bounds it from above, that
mixture's sign query from below), and only then a ``max_margin`` LP. Each
maximal set keeps the query that certified its first signed set in walk
order (a singleton's sign query, a pooled query or its negation, a
bracket's sign query or an LP's query). Only the sets and their order are
fixed; a witness is promised to be valid under ``verify_cover_family``, not
to be any particular query. ``family_of`` walks each (center, tau, kappa)
family once in a ``shared_families()`` block.

Conventions:

- ``lp_solve`` maximizes c.x subject to A_ub x <= b_ub, A_eq x = b_eq,
  0 <= x <= upper, and returns primal and dual points (the duals of the
  bounds included). Infeasible and unbounded programs raise distinct
  errors.
- Strict inequalities ("margin > tau") are realized as
  margin >= tau + STRICT_EPS so achievability is a closed condition.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import K1, KV, FiniteDistribution, _check_same_domain, sqrt_gap, vertex_gaps
from .errors import (
    GuardExceededError,
    InfeasibleError,
    NumericalError,
    UnboundedError,
    UncoverableError,
)

__all__ = [
    "STRICT_EPS",
    "LPResult",
    "lp_solve",
    "GameResult",
    "zero_sum",
    "MarginResult",
    "max_margin",
    "CoverFamily",
    "achievable_subsets",
    "shared_families",
    "family_of",
    "verify_cover_family",
    "CoverResult",
    "fractional_cover",
    "greedy_cover",
    "exact_min_cover",
]

#: Margin slack standing in for strict inequalities over floats.
STRICT_EPS = 1e-9

_PIVOT_TOL = 1e-9  # improving reduced cost; pivot entry that drives an artificial out
# A pivot entry of the ratio test, against its column's written scale s
# (see _run_simplex): it counts above _SURE_PIVOT * s, is rounding noise at
# or below _ZERO_PIVOT * s, and in between counts above _NOISE_TOL * s times
# the largest multiplier of its row.
_SURE_PIVOT = 1e-3
_ZERO_PIVOT = 1e-12
_NOISE_TOL = 1e-7
_FEAS_TOL = 1e-8
_GAP_TOL = 1e-7
_MAX_ITER = 50_000
_LAST = np.iinfo(np.int64).max  # rank of a column that may not enter
_FAMILY_GUARD = 20  # most members achievable_subsets walks under K1


@dataclass(frozen=True)
class LPResult:
    """Optimal value, primal point, and dual values per constraint row and
    per upper bound (``y_upper[j]`` is 0 for a variable without one)."""

    value: float
    x: np.ndarray
    y_ub: np.ndarray
    y_eq: np.ndarray
    y_upper: np.ndarray


def _pivot(t: np.ndarray, row: int, col: int) -> None:
    """Rank-1 update: scale the pivot row, then eliminate ``col`` from every
    other row that has a non-zero entry in it (rows whose entry is zero are
    left as they are, signed zeros included)."""
    pivot_row = t[row]
    pivot_row /= pivot_row[col]
    factors = t[:, col, None].copy()
    factors[row] = 0.0
    np.subtract(t, factors * pivot_row, out=t, where=factors != 0.0)


def _flip(t: np.ndarray, col: int, upper: float) -> None:
    """Complement the nonbasic column ``col`` (x -> upper - x): only the
    right-hand side and the column itself change."""
    t[:, -1] -= upper * t[:, col]
    t[:, col] *= -1.0


def _run_simplex(t: np.ndarray, basis: np.ndarray, allowed: np.ndarray, box) -> None:
    """Primal simplex iterations (maximization) with Bland's rule, in place.

    The last row of ``t`` holds reduced costs z - c, the last column the RHS.
    ``allowed[j]`` masks columns permitted to enter (used to pin artificials
    in phase 2). The entering column is the improving allowed one (reduced
    cost below -1e-9) of least rank; the ratio test takes the smallest
    ratio over the rows whose pivot entry counts (see below; ratios within
    1e-12 of the least tie, and the tie goes to the least rank: textbook
    Bland), and the pivot is one rank-1 update. A scalar loop that carries
    a running best row by row can end elsewhere on a chain of near-ties
    spread wider than 1e-12; both rules are Bland's and cannot cycle.

    ``box = (upper, rank, ident, scale)`` holds the bounds: the
    bounded-variable simplex (Dantzig, *Econometrica* 23(2), 1955; Chvatal,
    *Linear Programming*, 1983, ch. 8). A column at its upper bound is kept complemented
    (x' = upper - x), so every nonbasic column reads 0. The ratio test also
    stops where a basic variable reaches its upper bound (it leaves and is
    complemented), or where the entering variable reaches its own: that
    step is a bound flip, which negates one column and moves the right-hand
    side, with no pivot. ``rank[0, j]`` ranks column j moving off or onto
    the bound it reads 0 at, ``rank[1, j]`` off or onto the other one; they
    are the column indices that the variable and its box slack have in the
    tableau with one ``x_j <= upper_j`` row per bound, so the pivots are
    that tableau's. A column without a finite bound has both ranks equal to
    its index in that tableau and is never complemented.

    The ratio test tells rounding noise from a pivot by scale, not by one
    absolute cut: ``ident`` are the columns of the starting (identity)
    basis, so ``t[i, ident]`` holds the multipliers that make row i from
    the written rows, and ``scale[j]`` is column j's largest written entry
    in magnitude. An entry that is zero in exact arithmetic carries
    rounding noise of about 1e-16 times the product of the two; pivoting on
    such noise (entries of 2e-9 occur in columns of scale 1) lands on a
    numerically singular basis. An entry counts when it exceeds 1e-7 times
    that product; the multipliers are read only for an entry between 1e-12
    and 1e-3 of its column's scale, since a smaller one is noise and a
    larger one a pivot. The cut is relative, so a program written with
    coefficients of 1e-8 keeps every row of its ratio test.
    """
    # The tableaux are small (a few to tens of rows): the ratio test runs
    # over plain floats, and each step makes as few numpy calls as it can,
    # since call overhead, not arithmetic, is most of an iteration's cost.
    upper, rank, ident, scale = box
    sure, zero = (_SURE_PIVOT * scale).tolist(), (_ZERO_PIVOT * scale).tolist()
    noise = (_NOISE_TOL * scale).tolist()
    order = np.where(allowed, rank[0], _LAST)  # entering rank of each column
    bound = upper.tolist()
    # per row: the basic variable's upper bound and its ranks at either bound
    room = [bound[j] for j in basis.tolist()]
    leave_down, leave_up = rank[0, basis].tolist(), rank[1, basis].tolist()
    for _ in range(_MAX_ITER):
        key = np.where(t[-1, :-1] < -_PIVOT_TOL, order, _LAST)
        entering = int(key.argmin())
        if key[entering] == _LAST:
            return
        col, rhs = t[:-1, entering].tolist(), t[:-1, -1].tolist()
        hi, lo = sure[entering], zero[entering]
        multipliers = None
        ratios = []  # (ratio, rank, row); row -1 is the entering bound
        for i, a in enumerate(col):
            if -hi <= a <= hi:  # small for its column: noise or a pivot?
                if -lo <= a <= lo:
                    continue
                if multipliers is None:
                    multipliers = np.abs(t[:-1, ident]).max(axis=1).tolist()
                if abs(a) <= noise[entering] * multipliers[i]:
                    continue
            if a > 0:
                ratios.append((rhs[i] / a, leave_down[i], i))
            elif room[i] < math.inf:
                ratios.append(((room[i] - rhs[i]) / -a, leave_up[i], i))
        flip = bound[entering]
        if flip < math.inf:
            ratios.append((flip, int(rank[1, entering]), -1))
        if not ratios:
            raise UnboundedError("objective is unbounded above")
        least = min(ratios)[0]
        _, leaving = min((k, i) for r, k, i in ratios if r <= least + 1e-12)
        if leaving < 0:
            flipped = entering
            _flip(t, entering, flip)
        else:
            out = int(basis[leaving])
            _pivot(t, leaving, entering)
            basis[leaving] = entering
            room[leaving] = flip
            leave_down[leaving], leave_up[leaving] = rank[0, entering], rank[1, entering]
            if col[leaving] > 0:
                continue
            flipped = out  # the leaving variable stops at its upper bound
            _flip(t, out, bound[out])
        rank[0, flipped], rank[1, flipped] = rank[1, flipped], rank[0, flipped]
        if allowed[flipped]:
            order[flipped] = rank[0, flipped]
    raise NumericalError("simplex did not terminate (iteration cap hit)")


def lp_solve(
    c: Sequence[float],
    a_ub: np.ndarray | None = None,
    b_ub: Sequence[float] | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: Sequence[float] | None = None,
    upper: Sequence[float] | None = None,
) -> LPResult:
    """Maximize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, 0 <= x <= upper.

    Two-phase dense simplex with Bland's anti-cycling rule. ``upper`` gives
    per-variable upper bounds (``np.inf`` for none, and none at all when
    ``upper`` is omitted); they are bounds of the simplex, not rows: a
    variable at its bound is a nonbasic column kept complemented, and a
    bound flip changes only the right-hand side (see ``_run_simplex``). The
    pivots are those of the same program with one ``x_j <= upper_j`` row
    per bound appended to ``a_ub``, on a tableau smaller by those rows and
    their slack columns. Every program takes the same loop, with the same
    scale-relative ratio test.

    The primal point and the duals come from basis solves on the original
    rows: B x_B = b - (columns at their upper bound) * upper, with each
    nonbasic variable at its upper bound set to it, and y = c_B B^{-1}; the
    dual of bound j is max(c_j - y.A_j, 0) (``y_upper``). A non-finite
    entry of ``c``, ``a_ub``, ``b_ub``, ``a_eq`` or ``b_eq``, or a NaN in
    ``upper``, raises :class:`ValueError`. Infeasible programs raise
    :class:`InfeasibleError`, unbounded ones :class:`UnboundedError`; the
    primal/dual pair is self-checked (feasibility within 1e-8, duality gap
    within 1e-7 relative) and a failure raises :class:`NumericalError`.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float).ravel()
    if upper.size != n or np.isnan(upper).any():
        raise ValueError("upper needs one bound (a number or inf) per variable")
    if upper.min(initial=0.0) < 0:
        raise InfeasibleError("an upper bound lies below the lower bound 0")
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    n_total = n + m_ub

    # Equality form: scale rows so the RHS is non-negative; <= rows get a
    # slack column whose coefficient carries the row scaling. The natural
    # basis is the slacks where a +1 slack exists, artificials elsewhere.
    rhs = np.concatenate([b_ub, b_eq])
    negative = rhs < 0
    scale = 1.0 - 2.0 * negative
    art_rows = (negative | (np.arange(m) >= m_ub)).nonzero()[0]
    art_cols = np.arange(n_total, n_total + art_rows.size)
    width = n_total + art_rows.size
    tableau = np.zeros((m + 1, width + 1))
    tableau[:m, :n] = (np.vstack([a_ub, a_eq]) if m_eq else a_ub) * scale[:, None]
    tableau[:m, -1] = rhs * scale
    slacks = np.arange(m_ub)
    tableau[slacks, n + slacks] = scale[:m_ub]
    tableau[art_rows, art_cols] = 1.0
    if not (np.isfinite(c).all() and np.isfinite(tableau).all()):  # its rows hold A and b
        raise ValueError("c, a_ub, b_ub, a_eq and b_eq must be finite")
    basis = np.arange(n, n + m)
    basis[art_rows] = art_cols
    eq_mat, rhs = tableau[:m, :width].copy(), tableau[:m, -1].copy()
    allowed = np.ones(width, dtype=bool)
    row_ids = np.arange(m)  # original row index per surviving tableau row

    # Ranks in the tableau with one row per finite bound: those rows follow
    # the <= rows, so their slacks follow the <= slacks and precede the
    # artificials. A column is complemented when its ranks are swapped.
    boxed = (upper < np.inf).nonzero()[0]
    bound = np.full(width, np.inf)
    bound[:n] = upper
    rank = np.arange(width)[None, :].repeat(2, axis=0)
    rank[:, n_total:] += boxed.size
    rank[1, boxed] = np.arange(n_total, n_total + boxed.size)
    box = (bound, rank, basis.copy(), np.abs(eq_mat).max(axis=0, initial=0.0))

    def install_objective(cost: np.ndarray) -> None:
        at_upper = rank[0] > rank[1]  # a complemented column has cost -c and adds c * upper
        offset = float(cost[at_upper] @ bound[at_upper])
        cost = np.where(at_upper, -cost, cost)
        tableau[-1, :width] = -cost
        tableau[-1, -1] = offset
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0.0:
                tableau[-1] += cb * tableau[i]

    if art_rows.size:
        phase1 = np.zeros(width)
        phase1[art_cols] = -1.0
        install_objective(phase1)
        _run_simplex(tableau, basis, allowed, box)
        if tableau[-1, -1] < -_FEAS_TOL:
            raise InfeasibleError(
                f"no feasible point (artificial residual {-tableau[-1, -1]:.3e})"
            )
        # Drive surviving artificials out of the basis; drop redundant rows.
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= n_total:
                cols = np.flatnonzero(np.abs(tableau[i, :n_total]) > _PIVOT_TOL)
                if cols.size:
                    _pivot(tableau, i, int(cols[0]))
                    basis[i] = int(cols[0])
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in drop]
            tableau = np.vstack([tableau[keep], tableau[-1:]])
            basis, eq_mat, rhs, row_ids = basis[keep], eq_mat[keep], rhs[keep], row_ids[keep]
            m = len(keep)
        allowed[art_cols] = False

    phase2 = np.zeros(width)
    phase2[:n] = c
    install_objective(phase2)
    _run_simplex(tableau, basis, allowed, box)

    # The primal point from a solve with the final basis, B x_B = b -
    # (columns at their upper bound) * upper, and the duals from y = c_B
    # B^{-1}, over the surviving equality-form rows (dropped redundant rows
    # keep dual 0). The tableau's own right-hand side carries the rounding
    # of every pivot: over the 16,000 programs of tests/lp_stress.py it
    # leaves x up to 1.3e-9 outside its box, the solve up to 1.1e-14.
    x_full = np.zeros(width)
    y_scaled = np.zeros(m_ub + m_eq)
    at_upper = rank[0] > rank[1]
    at_upper[basis] = False
    x_full[at_upper] = bound[at_upper]
    if m:
        b_mat = eq_mat[:, basis]
        try:
            x_full[basis] = np.linalg.solve(b_mat, rhs - eq_mat @ x_full)
            y_scaled[row_ids] = np.linalg.solve(b_mat.T, phase2[basis])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - degenerate basis
            raise NumericalError(f"basis solve failed: {exc}") from exc
    x = x_full[:n]
    y = y_scaled * scale  # undo row scaling
    y_ub, y_eq = y[:m_ub], y[m_ub:]
    # the dual of bound j prices what column j still gains
    gain = c - y_ub @ a_ub - y_eq @ a_eq if m_eq else c - y_ub @ a_ub
    y_upper = np.zeros(n)
    y_upper[boxed] = np.maximum(gain[boxed], 0.0)

    value = float(c @ x)
    _self_check(c, a_ub, b_ub, a_eq, b_eq, upper, x, y_ub, y_eq, y_upper, value)
    return LPResult(value=value, x=x, y_ub=y_ub, y_eq=y_eq, y_upper=y_upper)


def _self_check(c, a_ub, b_ub, a_eq, b_eq, upper, x, y_ub, y_eq, y_upper, value) -> None:
    """Certify the pair: x feasible, (y_ub >= 0, y_eq, y_upper >= 0) dual
    feasible, and equal objective values (weak duality makes both optimal)."""
    scale_ref = max(1.0, float(np.abs(c).max()) if c.size else 1.0)
    if c.size and x.min() < -_FEAS_TOL:
        raise NumericalError("primal point violates x >= 0")
    if c.size and (x - upper).max() > _FEAS_TOL:
        raise NumericalError("primal point violates x <= upper")
    if b_ub.size and (a_ub @ x - b_ub).max() > _FEAS_TOL * 10:
        raise NumericalError("primal point violates an inequality row")
    if b_eq.size and np.abs(a_eq @ x - b_eq).max() > _FEAS_TOL * 10:
        raise NumericalError("primal point violates an equality row")
    if y_ub.size and y_ub.min() < -_FEAS_TOL:
        raise NumericalError("dual point violates y >= 0")
    reduced = c - y_ub @ a_ub - y_eq @ a_eq - y_upper
    if c.size and reduced.max() > _FEAS_TOL * 10 * scale_ref:
        raise NumericalError("dual point violates feasibility")
    boxed = y_upper > 0
    dual_value = float(y_ub @ b_ub) + float(y_eq @ b_eq) + float(y_upper[boxed] @ upper[boxed])
    if abs(dual_value - value) > _GAP_TOL * max(1.0, abs(value)):
        raise NumericalError(f"duality gap {abs(dual_value - value):.3e} exceeds tolerance")


# ---------------------------------------------------------------------------
# zero-sum games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameResult:
    """Value and optimal mixed strategies of a finite zero-sum game.

    The row player maximizes, the column player minimizes the payoff
    ``matrix[i, j]``.
    """

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def _row_keys(m: np.ndarray) -> np.ndarray:
    """One sort key per row, equal on equal rows: a weighted row sum with
    fixed weights drawn once from a seeded generator."""
    return m @ np.random.default_rng(0).uniform(1.0, 2.0, m.shape[1])


def zero_sum(matrix: np.ndarray) -> GameResult:
    """Solve max_x min_y x^T M y over mixed strategies.

    Uses the shift-to-positive reduction: with M' = M + shift > 0 the row
    player's value is 1/sum(u) for min sum(u) s.t. M'^T u >= 1, u >= 0.
    The optimal column strategy falls out of the dual. Self-checks both
    strategies against the reported value within 1e-7.

    Each payoff row is one LP column, and a row equal element for element
    to the row before it in key order is dropped before the solve: the rows
    are sorted on one key each (``_row_keys``) and neighbours compared. The
    row strategy is scattered back with 0 on every dropped row. This is
    exact, and so is keeping a copy that the sort leaves apart from its
    first occurrence (rows with equal keys that differ can sit between
    them). Every pivot updates equal columns with the same arithmetic, so a
    copy keeps the reduced cost of the earlier column it copies, and
    Bland's rule, which enters the first improving column, never picks it.
    Dropping copies renumbers the other columns in order and leaves their
    scales as they are, so the ratio test, whose ties go to the least rank,
    picks the same rows too. The pivots, and with them the primal point,
    the duals and the value, are those of the full-width LP; the value is
    summed over the scattered point as the full-width LP sums it, so it
    matches to the last bit. A payoff that is not finite raises
    :class:`ValueError`.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("payoff matrix must be 2-d and non-empty")
    if not np.isfinite(m).all():
        raise ValueError("payoff matrix must be finite")
    shift = 1.0 - float(m.min())
    n_rows, n_cols = m.shape
    order = np.argsort(_row_keys(m), kind="stable")
    ranked = m[order]
    first = np.ones(n_rows, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    del ranked  # a copy of every row: on a KV crsd game, as large as the payoff
    keep = np.sort(order[first])  # the sort is stable: each run starts at its first occurrence
    # maximize -sum(u) s.t. -M'^T u <= -1
    res = lp_solve(
        c=-np.ones(keep.size),
        a_ub=-(m[keep] + shift).T,
        b_ub=-np.ones(n_cols),
    )
    u = np.zeros(n_rows)
    u[keep] = res.x
    total = float(np.ones(n_rows) @ u)  # summed as lp_solve sums the full-width objective
    if total <= 0:
        raise NumericalError("zero-sum reduction produced a non-positive scale")
    value = 1.0 / total - shift
    row = u / u.sum()
    dual = np.clip(res.y_ub, 0.0, None)
    if dual.sum() <= 0:
        raise NumericalError("zero-sum dual strategy vanished")
    col = dual / dual.sum()
    worst_row = float(np.min(row @ m))
    worst_col = float(np.max(m @ col))
    if worst_row < value - 1e-7 or worst_col > value + 1e-7:
        raise NumericalError(
            f"game strategies fail the value check ({worst_row:.9f}, {value:.9f}, {worst_col:.9f})"
        )
    return GameResult(value=value, row_strategy=row, col_strategy=col)


# ---------------------------------------------------------------------------
# maximum-margin separation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarginResult:
    """Best simultaneous margin of one signed query against a subset.

    ``value`` = max over phi in [-1,1]^X of min_D s_D . <phi, D - D0>;
    ``query`` attains it; ``mixture`` is the adversary's optimal mixture
    over the subset (a certificate: the L1 norm of the mixed difference
    equals the margin).
    """

    value: float
    query: np.ndarray
    mixture: np.ndarray


def max_margin(
    dists: Sequence[FiniteDistribution],
    d0: FiniteDistribution,
    signs: Sequence[int] | None = None,
) -> MarginResult:
    """Best worst-case signed margin achievable by a single [-1,1] query.

    For a single distribution this is ||D - D0||_1 with the sign query
    sign(D - D0). The empty subset returns +inf (no constraint to meet).
    """
    if signs is None:
        signs = [1] * len(dists)
    if len(signs) != len(dists):
        raise ValueError("signs length must match subset size")
    for d in dists:
        _check_same_domain(d, d0)
    n = len(d0.domain)
    if not dists:
        return MarginResult(value=math.inf, query=np.zeros(n), mixture=np.zeros(0))
    g = np.array([s * (d.weights - d0.weights) for s, d in zip(signs, dists)])
    if len(dists) == 1:
        phi = np.where(g[0] >= 0, 1.0, -1.0)
        return MarginResult(value=float(np.abs(g[0]).sum()), query=phi, mixture=np.ones(1))
    k = len(dists)
    # Variables: u = phi + 1 in [0, 2] (n of them, the box as bounds), then
    # t >= 0. Margin rows:  <u, g_D> - t >= sum(g_D)  =>  -<u, g_D> + t <= -sum(g_D).
    # sum(g_D) = sum(D - D0) = 0 exactly; its float value (about 1e-17 of
    # either sign) would flip a negative row and force a phase 1, so the
    # right-hand side is written as an exact zero.
    a_ub = np.empty((k, n + 1))
    a_ub[:, :n] = -g
    a_ub[:, n] = 1.0
    c = np.zeros(n + 1)
    c[n] = 1.0
    upper = np.full(n + 1, 2.0)
    upper[n] = np.inf
    res = lp_solve(c, a_ub=a_ub, b_ub=np.zeros(k), upper=upper)
    phi = np.clip(res.x[:n] - 1.0, -1.0, 1.0)
    margins = g @ phi
    value = float(res.value)
    if float(margins.min()) < value - 1e-8:
        raise NumericalError("margin certificate fails to reach the LP value")
    lam = np.clip(res.y_ub, 0.0, None)
    lam = lam / lam.sum() if lam.sum() > 0 else np.full(k, 1.0 / k)
    return MarginResult(value=value, query=phi, mixture=lam)


# ---------------------------------------------------------------------------
# achievable subsets and covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverFamily:
    """Subsets of a ground family, each with a witnessing query.

    ``sets[i]`` is a frozenset of ground indices; ``witnesses[i]`` a query
    value vector that distinguishes every member from the center at margin
    strictly above tau (>= tau + STRICT_EPS). ``kappa`` records which
    discrimination operator the margins use. ``restrict`` gives the family
    of a sub-collection around the same center without a new enumeration.
    """

    ground_size: int
    sets: tuple
    witnesses: tuple
    tau: float
    kappa: str = K1

    def covering(self, index: int) -> list[int]:
        return [i for i, s in enumerate(self.sets) if index in s]

    def uncovered(self) -> list[int]:
        hit = set()
        for s in self.sets:
            hit |= s
        return [i for i in range(self.ground_size) if i not in hit]

    def restrict(self, keep: Sequence[int]) -> CoverFamily:
        """The family of the members ``keep`` (member ``keep[j]`` becomes
        member j) around the same center, at the same tau and kappa.

        Whether a set is achievable depends only on its own members, so the
        maximal achievable subsets of the sub-collection are the maximal
        cuts ``S & keep`` of this family's sets; ``_maximal_family`` lists
        them in the order a fresh ``achievable_subsets`` walk over those
        members would. Each cut keeps the witness of the first set it was
        cut from, which still separates every member it keeps.
        """
        position = {i: j for j, i in enumerate(keep)}
        if len(position) != len(keep) or not all(0 <= i < self.ground_size for i in keep):
            raise ValueError(f"keep must list distinct members of 0..{self.ground_size - 1}")
        witness: dict[frozenset, np.ndarray] = {}
        for s, phi in zip(self.sets, self.witnesses):
            cut = frozenset(position[i] for i in s if i in position)
            if cut:
                witness.setdefault(cut, phi)
        return _maximal_family(witness, len(keep), self.tau, self.kappa)


def _maximal_family(
    witness: dict[frozenset, np.ndarray], ground_size: int, tau: float, kappa: str
) -> CoverFamily:
    """The family of the maximal sets among ``witness``'s keys, ordered by
    size, then by members, each with its query ``witness[s]``."""
    maximal: list[frozenset] = []
    for key in sorted(witness, key=len, reverse=True):
        if not any(key < other for other in maximal):
            maximal.append(key)
    maximal.sort(key=lambda s: (len(s), sorted(s)))
    return CoverFamily(
        ground_size=ground_size,
        sets=tuple(maximal),
        witnesses=tuple(witness[s] for s in maximal),
        tau=tau,
        kappa=kappa,
    )


def _margin_bracket(g: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Bounds on the ``max_margin`` value of the rows ``g`` (g_i = s_i (D_i -
    D0)) without an LP: (lower, upper, phi).

    The value max_phi min_i <phi, g_i> equals min over mixtures lambda of
    |sum_i lambda_i g_i|_1, so the uniform mixture's |mean_i g_i|_1 is an
    upper bound, and its sign query phi (+1 where the mean is >= 0) reaches
    the lower bound min_i <phi, g_i>.
    """
    mean = g.mean(axis=0)
    phi = np.where(mean >= 0, 1.0, -1.0)
    return float((g @ phi).min()), float(np.abs(mean).sum()), phi


def _top_witness(table: np.ndarray, pool: list, threshold: float):
    """The walk's witness for the set of all m >= 2 members: the first of
    the singletons' sign queries ``pool`` (the rows of ``table``, one per
    member, each achievable alone) that separates every member at
    ``threshold``; None when there is none. A singleton's query has a
    positive margin on its own member, so the walk's negated pool queries
    never separate them all."""
    m = table.shape[1]
    if m < 2 or len(pool) != m:
        return None
    hit = np.flatnonzero(table.min(axis=1) >= threshold)
    return pool[int(hit[0])] if hit.size else None


def _drop_one(signed: tuple, p: int) -> tuple:
    """``signed`` without its member at position ``p``, signs flipped when
    needed so that the first member is +1 (the walk's normal form)."""
    rest = signed[:p] + signed[p + 1 :]
    if rest[0][1] == 1:
        return rest
    return tuple((i, -s) for i, s in rest)


def achievable_subsets(
    dists: Sequence[FiniteDistribution],
    d0: FiniteDistribution,
    tau: float,
    kappa: str = K1,
) -> CoverFamily:
    """All maximal subsets a single query distinguishes from the center.

    K1: exact. A subset S is achievable when some phi in [-1,1]^X has
    |E_D[phi] - E_{D0}[phi]| > tau for every D in S simultaneously. The
    enumeration walks signed subsets (each D may sit on either side of the
    margin; the first member is +1, since -phi flips every side) level by
    level, extending each achievable signed set by one later member. Before
    the walk, the top of the lattice is checked:

    0. top check (``_top_witness``): when every member is achievable alone
       and some singleton's sign query separates every member at margin >=
       tau + STRICT_EPS, the family is the one set of all members with the
       first such query (in member order) as witness, and no set is
       settled. This is what the walk returns: every prefix of an
       achievable signed set is achievable and signs are tried + before -,
       so the first full signed set it reaches is the all-plus one;
       settling that takes the first pooled query that separates it; and
       the singletons' queries are the first rows of the pool, which the
       walk only appends to.

    Otherwise each candidate is settled by the cheapest test that decides
    it:

    1. closure prune: achievability is closed under signed subsets, so a
       candidate with a drop-one signed subset that is not achievable is
       skipped without an LP;
    2. pooled certification: every witness found so far (the singletons'
       sign queries, each bracket query of step 3 and each achieving LP's
       query) is kept with its margins against all members, and a
       candidate that one pooled witness, or its negation, separates at
       margin >= tau + STRICT_EPS is achievable;
    3. LP-free bracket (``_margin_bracket``): with g_i = s_i (D_i - D0), the
       margin is min over mixtures of |sum_i lambda_i g_i|_1, so a
       candidate whose uniform mixture has |mean_i g_i|_1 < tau +
       STRICT_EPS / 2 is not achievable, and one that the sign query of
       that mean separates at margin >= tau + STRICT_EPS is; that query
       joins the pool and counts as a pooled certificate;
    4. otherwise one ``max_margin`` LP decides it, and its query joins the
       pool when it achieves.

    A maximal set's witness is the query that certified the first signed set
    of that set in walk order, whichever step found it; no LP runs after the
    walk. The sets and their order are those a one-LP-per-candidate walk
    gives, but only the witnesses' validity under ``verify_cover_family`` is
    promised, not their values.
    Worst case is exponential in |dists| — hence the guard.

    KV: heuristic family from binary-vertex witnesses phi in {0,1}^X
    (guarded by 2^|X|); the family under-approximates achievability, so
    dimension values derived from it are upper bounds. Every member's gap at
    every vertex comes from one ``vertex_gaps`` table, and each covered set
    keeps the first vertex (in table order) that covers exactly it: the bits
    of that row.
    """
    for d in dists:
        _check_same_domain(d, d0)
    m = len(dists)
    threshold = tau + STRICT_EPS
    if kappa == K1:
        if m > _FAMILY_GUARD:
            raise GuardExceededError(
                f"achievable_subsets: |dists| = {m} exceeds guard {_FAMILY_GUARD}"
            )
        # unsigned set -> the query that certified its first signed set in
        # walk order
        first: dict[frozenset, np.ndarray] = {}
        pool: list[np.ndarray] = []  # witness queries, one row of ``table`` each
        frontier: list[tuple] = []
        for i, d in enumerate(dists):
            res = max_margin([d], d0)
            if res.value >= threshold:
                frontier.append(((i, 1),))
                first[frozenset((i,))] = res.query
                pool.append(res.query)
        n = len(d0.domain)
        diffs = np.array([d.weights - d0.weights for d in dists]).reshape(m, n)
        table = np.array(pool).reshape(len(pool), n) @ diffs.T  # [r, i] = <pool[r], D_i - D0>
        top = _top_witness(table, pool, threshold)
        if top is not None:
            return _maximal_family({frozenset(range(m)): top}, m, tau, K1)

        def settle(signed: tuple):
            """A query that separates ``signed`` at the threshold, or None
            when ``signed`` is not achievable."""
            nonlocal table
            idx = [i for i, _ in signed]
            signs = np.array([s for _, s in signed], dtype=float)
            margins = table[:, idx] * signs
            up = margins.min(axis=1) >= threshold
            down = -margins.max(axis=1) >= threshold
            hit = np.flatnonzero(up | down)
            if hit.size:
                r = int(hit[0])
                return pool[r] if up[r] else -pool[r]
            lower, upper, phi = _margin_bracket(signs[:, None] * diffs[idx])
            if upper < tau + STRICT_EPS / 2:
                return None
            if lower < threshold:
                res = max_margin([dists[i] for i in idx], d0, [s for _, s in signed])
                if res.value < threshold:
                    return None
                phi = res.query
            pool.append(phi)
            table = np.vstack([table, diffs @ phi])
            return phi

        while frontier:
            known = set(frontier)
            grown = []
            for signed in frontier:
                for j in range(signed[-1][0] + 1, m):
                    for sign in (1, -1):
                        cand = signed + ((j, sign),)
                        if any(_drop_one(cand, p) not in known for p in range(len(signed))):
                            continue
                        phi = settle(cand)
                        if phi is not None:
                            grown.append(cand)
                            first.setdefault(frozenset(i for i, _ in cand), phi)
            frontier = grown
        return _maximal_family(first, m, tau, K1)
    if kappa == KV:
        n = len(d0.domain)
        if n > 16:
            raise GuardExceededError(f"achievable_subsets KV: 2^{n} vertex queries exceed guard")
        d_mat = np.array([d.weights for d in dists]).reshape(m, n)
        hit = vertex_gaps(d_mat, d0.weights) >= threshold
        # the first vertex of each distinct row of ``hit``, skipping phi = 0;
        # each row packed along the members into one byte string, which
        # sorts like the row and far faster than a row of m bools
        packed = np.packbits(hit[1:], axis=1)
        _, first = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                             return_index=True)
        best: dict[frozenset, np.ndarray] = {}
        for r in (first + 1).tolist():
            covered = frozenset(np.flatnonzero(hit[r]).tolist())
            if covered:
                best[covered] = ((r >> np.arange(n)) & 1).astype(float)
        return _maximal_family(best, m, tau, KV)
    raise ValueError(f"unknown kappa tag {kappa!r}")


# in a shared_families() block: (center bytes, tau, kappa) -> [(member bytes -> index, family)]
_families: ContextVar[dict | None] = ContextVar("families", default=None)


@contextmanager
def shared_families():
    """Share families among the ``family_of`` calls in the block (in this
    thread) until the outermost block ends; a nested block joins it."""
    outer = _families.get()
    token = _families.set({} if outer is None else outer)
    try:
        yield
    finally:
        _families.reset(token)


def family_of(
    dists: Sequence[FiniteDistribution], d0: FiniteDistribution, tau: float, kappa: str = K1
) -> CoverFamily:
    """``achievable_subsets(dists, d0, tau, kappa)``, enumerated at most once
    per center, tau and kappa in a ``shared_families()`` block. There, a
    family enumerated earlier around the same center weights serves every
    request whose members (matched by weight bytes) it holds at distinct
    indices: with itself for its whole ground in order, else with its
    ``restrict`` (the sets of a fresh walk, in its order). Any other request
    is enumerated and kept, unless the walk raises.
    """
    for d in dists:
        _check_same_domain(d, d0)
    store = _families.get()
    if store is None:
        return achievable_subsets(dists, d0, tau, kappa=kappa)
    grounds = store.setdefault((d0.weights.tobytes(), tau, kappa), [])
    members = [d.weights.tobytes() for d in dists]
    for index, family in grounds:
        keep = [index.get(b, -1) for b in members]
        if -1 not in keep and len(set(keep)) == len(keep):
            return family if keep == list(range(family.ground_size)) else family.restrict(keep)
    family = achievable_subsets(dists, d0, tau, kappa=kappa)
    grounds.append(({b: i for i, b in enumerate(members)}, family))
    return family


def verify_cover_family(
    dists: Sequence[FiniteDistribution],
    d0: FiniteDistribution,
    family: CoverFamily,
) -> None:
    """Re-check every set's witness; raises NumericalError on failure."""
    for s, phi in zip(family.sets, family.witnesses):
        for i in s:
            if family.kappa == K1:
                gap = abs(dists[i].expectation(phi) - d0.expectation(phi))
            else:
                gap = sqrt_gap(dists[i].expectation(phi), d0.expectation(phi))
            if gap < family.tau + STRICT_EPS / 2:
                raise NumericalError(
                    f"witness for set {sorted(s)} fails on element {i} (gap {gap:.3e})"
                )


@dataclass(frozen=True)
class CoverResult:
    """Fractional cover optimum: value d, sampling measure Q over the sets,
    raw weights y (sum d), and the dual element weights mu (packing
    certificate: mu(S) <= 1 for every set, sum(mu) = d)."""

    value: float
    y: np.ndarray
    q: np.ndarray
    mu: np.ndarray


def fractional_cover(family: CoverFamily) -> CoverResult:
    """Minimum total weight over the family's sets covering every element once.

    Raises :class:`UncoverableError` (with indices) when some ground element
    lies in no set.
    """
    missing = family.uncovered()
    if missing:
        raise UncoverableError(
            f"elements {missing} lie in no achievable subset", tuple(missing)
        )
    m, k = family.ground_size, len(family.sets)
    if m == 0:
        return CoverResult(value=0.0, y=np.zeros(k), q=np.zeros(k), mu=np.zeros(0))
    a = np.zeros((m, k))
    for j, s in enumerate(family.sets):
        for i in s:
            a[i, j] = 1.0
    res = lp_solve(c=-np.ones(k), a_ub=-a, b_ub=-np.ones(m))
    y = np.clip(res.x, 0.0, None)
    value = float(y.sum())
    mu = np.clip(res.y_ub, 0.0, None)
    q = y / value if value > 0 else np.zeros(k)
    return CoverResult(value=value, y=y, q=q, mu=mu)


def greedy_cover(family: CoverFamily) -> list[int]:
    """Greedy integer cover (max new coverage, first index on ties)."""
    uncovered = set(range(family.ground_size))
    chosen: list[int] = []
    while uncovered:
        best_j, best_gain = -1, 0
        for j, s in enumerate(family.sets):
            gain = len(s & uncovered)
            if gain > best_gain:
                best_j, best_gain = j, gain
        if best_j < 0:
            raise UncoverableError(
                f"greedy cover stuck with {sorted(uncovered)} uncovered",
                tuple(sorted(uncovered)),
            )
        chosen.append(best_j)
        uncovered -= family.sets[best_j]
    return chosen


def exact_min_cover(family: CoverFamily) -> list[int]:
    """Smallest integer cover by branch and bound (greedy seed, pruning)."""
    missing = family.uncovered()
    if missing:
        raise UncoverableError(
            f"elements {missing} lie in no achievable subset", tuple(missing)
        )
    best = greedy_cover(family)
    sets = family.sets
    cover_of = [family.covering(i) for i in range(family.ground_size)]
    max_size = max((len(s) for s in sets), default=1)

    def recurse(uncovered: frozenset, chosen: list[int], best_list: list[int]) -> list[int]:
        if not uncovered:
            return list(chosen)
        lower = len(chosen) + math.ceil(len(uncovered) / max_size)
        if lower >= len(best_list):
            return best_list
        pivot = min(uncovered, key=lambda i: len(cover_of[i]))
        for j in cover_of[pivot]:
            chosen.append(j)
            best_list = recurse(uncovered - sets[j], chosen, best_list)
            chosen.pop()
        return best_list

    return recurse(frozenset(range(family.ground_size)), [], best)
