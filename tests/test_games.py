"""LP solver, zero-sum games, margins, and cover machinery.

The LP is cross-checked two independent ways: vertex enumeration on small
programs (shares no code with the simplex) and KKT certificates on larger
ones (primal/dual feasibility plus a zero duality gap prove optimality).
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqlab import (
    DomainMismatchError,
    FiniteDistribution,
    FiniteDomain,
    GuardExceededError,
    InfeasibleError,
    K1,
    KV,
    Measure,
    NumericalError,
    UnboundedError,
    UncoverableError,
    achievable_subsets,
    biclique,
    crsd,
    exact_min_cover,
    fractional_cover,
    greedy_cover,
    kbar1,
    line_problem,
    lp_solve,
    max_margin,
    mixture,
    verify_cover_family,
    zero_sum,
)
from sqlab.games import (
    STRICT_EPS,
    CoverFamily,
    GameResult,
    _margin_bracket,
    family_of,
    shared_families,
)

from tests.util import brute_force_lp, random_dists, small_domain


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------


def _random_bounded_lp(rng, n, m, box=5.0):
    """A feasible bounded LP: random rows, RHS looser than a random interior
    point, and box rows x_i <= box to force boundedness."""
    a = rng.uniform(-1.0, 1.0, size=(m, n))
    x0 = rng.uniform(0.0, 1.0, size=n)
    b = a @ x0 + rng.uniform(0.1, 1.0, size=m)
    a_full = np.vstack([a, np.eye(n)])
    b_full = np.concatenate([b, np.full(n, box)])
    c = rng.uniform(-1.0, 1.0, size=n)
    return c, a_full, b_full


@pytest.mark.parametrize("n,m,seed", [(3, 3, 0), (4, 5, 1), (5, 4, 2), (6, 6, 3), (6, 6, 4)])
def test_lp_matches_vertex_enumeration(n, m, seed):
    rng = np.random.default_rng(seed)
    c, a, b = _random_bounded_lp(rng, n, m)
    res = lp_solve(c, a_ub=a, b_ub=b)
    brute_val, _ = brute_force_lp(c, a, b)
    assert brute_val is not None
    assert res.value == pytest.approx(brute_val, abs=1e-7)
    # reported point is feasible and attains the value
    assert np.all(a @ res.x <= b + 1e-8)
    assert np.all(res.x >= -1e-9)
    assert float(c @ res.x) == pytest.approx(res.value, abs=1e-8)


@pytest.mark.parametrize("n,m,seed", [(8, 8, 10), (10, 10, 11), (12, 9, 12)])
def test_lp_kkt_certificates_on_larger_programs(n, m, seed):
    rng = np.random.default_rng(seed)
    c, a, b = _random_bounded_lp(rng, n, m)
    res = lp_solve(c, a_ub=a, b_ub=b)
    # primal feasibility
    assert np.all(a @ res.x <= b + 1e-8) and np.all(res.x >= -1e-9)
    # dual feasibility: y >= 0 and A^T y >= c (reduced costs non-negative)
    assert np.all(res.y_ub >= -1e-9)
    assert np.all(a.T @ res.y_ub >= c - 1e-7)
    # zero duality gap proves both optimal
    assert float(b @ res.y_ub) == pytest.approx(res.value, abs=1e-7)


def test_lp_known_duals():
    # max x1 + x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6
    res = lp_solve([1.0, 1.0], a_ub=np.array([[1.0, 2.0], [3.0, 1.0]]), b_ub=[4.0, 6.0])
    assert res.value == pytest.approx(2.8)
    assert np.allclose(res.x, [1.6, 1.2], atol=1e-8)
    assert np.allclose(res.y_ub, [0.4, 0.2], atol=1e-7)


def test_lp_equality_constraints():
    # max y s.t. x + 2y = 1, x,y >= 0  ->  y = 0.5 at x = 0
    res = lp_solve([0.0, 1.0], a_eq=np.array([[1.0, 2.0]]), b_eq=[1.0])
    assert res.value == pytest.approx(0.5)
    assert np.allclose(res.x, [0.0, 0.5], atol=1e-9)
    # dual of the equality row: value = b_eq . y_eq
    assert float(np.dot([1.0], res.y_eq)) == pytest.approx(0.5, abs=1e-7)


def test_lp_infeasible_and_unbounded():
    with pytest.raises(InfeasibleError):
        lp_solve([1.0], a_ub=np.array([[1.0], [-1.0]]), b_ub=[1.0, -2.0])  # x<=1, x>=2
    with pytest.raises(UnboundedError):
        lp_solve([1.0, 0.0], a_ub=np.array([[0.0, 1.0]]), b_ub=[1.0])


def test_lp_degenerate_does_not_cycle():
    # classic degeneracy: multiple tight rows at the optimum
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    res = lp_solve([1.0, 1.0], a_ub=a, b_ub=[1.0, 1.0, 1.0])
    assert res.value == pytest.approx(1.0)


def _random_integer_lp(rng):
    """A small LP with integer data, <= and = rows, and one of three
    right-hand-side shapes: every row tight at an integer point with zero
    coordinates (a degenerate vertex), a mix of tight and slack rows, or
    arbitrary (often negative, often infeasible) values. Half get box rows."""
    n = int(rng.integers(1, 6))
    m_ub, m_eq = int(rng.integers(0, 6)), int(rng.integers(0, 3))
    c = rng.integers(-3, 4, n).astype(float)
    a_ub = rng.integers(-3, 4, (m_ub, n)).astype(float)
    a_eq = rng.integers(-2, 3, (m_eq, n)).astype(float)
    x0 = rng.integers(0, 3, n) * (rng.random(n) < 0.6)
    shape = int(rng.integers(3))
    if shape == 0:
        b_ub, b_eq = a_ub @ x0, a_eq @ x0
    elif shape == 1:
        b_ub, b_eq = a_ub @ x0 + rng.integers(0, 3, m_ub), a_eq @ x0
    else:
        b_ub, b_eq = rng.integers(-3, 4, m_ub), rng.integers(-2, 3, m_eq)
    if rng.random() < 0.5:
        a_ub = np.vstack([a_ub, np.eye(n)])
        b_ub = np.concatenate([b_ub, np.full(n, 4.0)])
    return c, a_ub, np.asarray(b_ub, dtype=float), a_eq, np.asarray(b_eq, dtype=float)


def _highs(linprog, c, a_ub, b_ub, a_eq, b_eq, upper=None):
    """("infeasible" | "unbounded" | "optimal", value) from HiGHS. Feasibility
    is settled first with a zero objective: HiGHS's presolve can report an
    unbounded program as infeasible."""
    rows = dict(
        A_ub=a_ub if len(b_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=a_eq if len(b_eq) else None,
        b_eq=b_eq if len(b_eq) else None,
        bounds=(0, None) if upper is None else [(0, u if u < np.inf else None) for u in upper],
        method="highs",
    )
    feasible = linprog(np.zeros_like(c), **rows)
    assert feasible.status in (0, 2), feasible.message
    if feasible.status == 2:
        return "infeasible", None
    res = linprog(-c, **rows)
    if res.status != 0:
        return "unbounded", None
    return "optimal", -res.fun


@pytest.mark.parametrize("seed", range(4))
def test_lp_agrees_with_highs_on_integer_programs(seed):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(900 + seed)
    seen = set()
    for _ in range(150):
        c, a_ub, b_ub, a_eq, b_eq = _random_integer_lp(rng)
        status, value = _highs(linprog, c, a_ub, b_ub, a_eq, b_eq)
        seen.add(status)
        if status == "infeasible":
            with pytest.raises(InfeasibleError):
                lp_solve(c, a_ub, b_ub, a_eq, b_eq)
        elif status == "unbounded":
            with pytest.raises(UnboundedError):
                lp_solve(c, a_ub, b_ub, a_eq, b_eq)
        else:
            assert lp_solve(c, a_ub, b_ub, a_eq, b_eq).value == pytest.approx(value, abs=1e-7)
    assert seen == {"infeasible", "unbounded", "optimal"}


def _random_bounded_integer_lp(rng):
    """``_random_integer_lp`` plus upper bounds: each variable gets an
    integer bound in 0..3 (0 pins it at 0) or none."""
    c, a_ub, b_ub, a_eq, b_eq = _random_integer_lp(rng)
    upper = np.where(rng.random(c.size) < 0.7, rng.integers(0, 4, c.size), np.inf)
    return c, a_ub, b_ub, a_eq, b_eq, upper


def _bounds_as_rows(c, a_ub, b_ub, upper):
    """The same program with one x_j <= upper_j row per finite bound."""
    boxed = np.flatnonzero(upper < np.inf)
    rows = np.eye(len(c))[boxed]
    return np.vstack([a_ub, rows]), np.concatenate([b_ub, upper[boxed]])


@pytest.mark.parametrize("seed", range(4))
def test_bounded_lp_agrees_with_highs_and_with_bounds_as_rows(seed):
    """Upper bounds as simplex bounds: HiGHS's status and value, a certified
    point inside the box, and the vertex the same program reaches with the
    bounds written as rows (the bounded kernel makes that tableau's pivots)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(2100 + seed)
    seen = set()
    for _ in range(150):
        c, a_ub, b_ub, a_eq, b_eq, upper = _random_bounded_integer_lp(rng)
        status, value = _highs(linprog, c, a_ub, b_ub, a_eq, b_eq, upper)
        seen.add(status)
        if status == "infeasible":
            with pytest.raises(InfeasibleError):
                lp_solve(c, a_ub, b_ub, a_eq, b_eq, upper=upper)
            continue
        if status == "unbounded":
            with pytest.raises(UnboundedError):
                lp_solve(c, a_ub, b_ub, a_eq, b_eq, upper=upper)
            continue
        res = lp_solve(c, a_ub, b_ub, a_eq, b_eq, upper=upper)
        assert res.value == pytest.approx(value, abs=1e-7)
        assert np.all(res.x >= -1e-9) and np.all(res.x <= upper + 1e-9)
        assert np.all(res.y_upper >= 0) and not np.any(res.y_upper[upper == np.inf])
        rows = lp_solve(c, *_bounds_as_rows(c, a_ub, b_ub, upper), a_eq, b_eq)
        assert res.value == pytest.approx(rows.value, abs=1e-9)
        assert np.allclose(res.x, rows.x, atol=1e-9)
    assert seen == {"infeasible", "unbounded", "optimal"}


def test_bounds_alone_flip_every_gaining_variable():
    """No rows: each variable with a positive cost flips to its bound, and
    the bound duals are the costs."""
    res = lp_solve([2.0, -1.0, 0.5], upper=[3.0, 4.0, 1.0])
    assert res.value == 6.5
    assert res.x.tolist() == [3.0, 0.0, 1.0]
    assert res.y_upper.tolist() == [2.0, 0.0, 0.5]
    with pytest.raises(UnboundedError):
        lp_solve([1.0, 1.0], upper=[1.0, np.inf])


def test_small_coefficient_programs_keep_their_ratio_test():
    """Pivot entries are judged against their column's scale: a program
    written with coefficients of 1e-8 is bounded, with or without bounds."""
    assert lp_solve([1.0], a_ub=[[1e-8]], b_ub=[1.0]).value == pytest.approx(1e8, rel=1e-12)
    assert lp_solve([1.0], a_ub=[[1e-8]], b_ub=[1.0], upper=[5e7]).value == pytest.approx(5e7, rel=1e-12)
    # a + 2b <= 1, 3a + b <= 1 in units of 1e8, b <= 0.4: optimum at (0.2, 0.4)
    a_ub = [[1e-8, 2e-8], [3e-8, 1e-8]]
    for upper in (None, [3e7, 4e7]):
        res = lp_solve([1.0, 1.0], a_ub=a_ub, b_ub=[1.0, 1.0], upper=upper)
        assert res.value == pytest.approx(6e7, rel=1e-12)
        assert res.x == pytest.approx([2e7, 4e7], rel=1e-12)


def test_lp_rejects_bad_upper_bounds():
    with pytest.raises(ValueError):
        lp_solve([1.0, 1.0], upper=[1.0])
    with pytest.raises(ValueError):
        lp_solve([1.0], upper=[np.nan])
    with pytest.raises(InfeasibleError):
        lp_solve([1.0, 1.0], upper=[1.0, -0.5])


# max x + y subject to x + y <= 1 and x = y: value 1 at (1/2, 1/2)
_FINITE_LP = {
    "c": [1.0, 1.0], "a_ub": [[1.0, 1.0]], "b_ub": [1.0], "a_eq": [[1.0, -1.0]], "b_eq": [0.0],
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("arg", [*_FINITE_LP, "payoff"])
def test_lp_and_games_reject_non_finite_input(arg, bad):
    """A NaN or an infinity in any argument of ``lp_solve``, or in a payoff
    matrix, raises ValueError before the simplex runs, instead of a NaN or
    infinite value or an error that names another fault."""
    program = {k: np.array(v, dtype=float) for k, v in _FINITE_LP.items()}
    assert lp_solve(**program).value == pytest.approx(1.0)
    payoff = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert zero_sum(payoff).value == pytest.approx(0.5)
    with pytest.raises(ValueError):
        if arg == "payoff":
            payoff[0, 0] = bad
            zero_sum(payoff)
        else:
            program[arg].flat[0] = bad
            lp_solve(**program)


def _pivot_reference(t, row, col):
    """Row-by-row pivot, the reference for the vectorized ``_pivot``."""
    t[row] /= t[row, col]
    for i in range(t.shape[0]):
        if i != row and t[i, col] != 0.0:
            t[i] -= t[i, col] * t[row]


def _run_simplex_reference(t, basis, allowed, box):
    """Scalar Bland's-rule loop, the reference for the vectorized
    ``_run_simplex`` on programs without bounds. It keeps the textbook
    absolute cut, a pivot entry above 1e-9, where the kernel judges an entry
    against its column's scale; ``box`` must hold no finite bound."""
    assert not np.isfinite(box[0]).any()
    m = t.shape[0] - 1
    while True:
        entering = next((j for j in range(t.shape[1] - 1) if allowed[j] and t[-1, j] < -1e-9), -1)
        if entering < 0:
            return
        leaving, best_ratio = -1, np.inf
        for i in range(m):
            coef = t[i, entering]
            if coef > 1e-9:
                ratio = t[i, -1] / coef
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12 and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            raise UnboundedError("objective is unbounded above")
        _pivot_reference(t, leaving, entering)
        basis[leaving] = entering


def _box_without_bounds(t, basis):
    """The ``box`` that ``lp_solve`` passes ``_run_simplex`` for a program
    without finite bounds: no bound, both ranks of each column its index,
    the starting basis as the identity columns and each column's largest
    written entry as its scale."""
    width = t.shape[1] - 1
    return (np.full(width, np.inf), np.tile(np.arange(width), (2, 1)), basis.copy(),
            np.abs(t[:-1, :-1]).max(axis=0))


def test_ratio_test_ties_go_to_the_smallest_basis_index():
    """Textbook Bland on near-ties: among the ratios within 1e-12 of the
    minimum, the row whose basic variable has the smallest index leaves."""
    from sqlab.games import _run_simplex

    def tableau():
        # Rows 0-2 hold basic variables 1, 5 and 9; column 0 enters with
        # ratios 1.1e-12, 0.5e-12 and 0 (in row order).
        t = np.zeros((4, 11))
        t[:3, 0] = 1.0
        t[[0, 1, 2], [1, 5, 9]] = 1.0
        t[:3, -1] = [1.1e-12, 0.5e-12, 0.0]
        t[-1, 0] = -1.0
        return t, np.array([1, 5, 9])

    t, basis = tableau()
    _run_simplex(t, basis, np.ones(10, dtype=bool), _box_without_bounds(t, basis))
    assert basis.tolist() == [1, 0, 9]
    # A running best carried row by row ends on basis 9 instead: the chain
    # of near-ties spans more than 1e-12.
    t, basis = tableau()
    _run_simplex_reference(t, basis, np.ones(10, dtype=bool), _box_without_bounds(t, basis))
    assert basis.tolist() == [1, 5, 0]


def test_vectorized_kernel_repeats_the_reference_pivots(monkeypatch):
    """Same pivots and same arithmetic: every result is bit-for-bit equal.
    These programs have no bounds, so ``lp_solve`` passes the kernel a box
    without a finite bound, and its scale-relative cut keeps every row that
    the reference's absolute 1e-9 cut keeps."""
    from sqlab import games

    rng = np.random.default_rng(1234)
    programs = [_random_integer_lp(rng) for _ in range(300)]

    def outcomes():
        out = []
        for c, a_ub, b_ub, a_eq, b_eq in programs:
            try:
                res = lp_solve(c, a_ub, b_ub, a_eq, b_eq)
            except (InfeasibleError, UnboundedError) as exc:
                out.append(type(exc))
            else:
                out.append(np.concatenate([[res.value], res.x, res.y_ub, res.y_eq]).tobytes())
        return out

    fast = outcomes()
    monkeypatch.setattr(games, "_pivot", _pivot_reference)
    monkeypatch.setattr(games, "_run_simplex", _run_simplex_reference)
    assert outcomes() == fast
    assert InfeasibleError in fast and UnboundedError in fast
    assert any(isinstance(o, bytes) for o in fast)


# ---------------------------------------------------------------------------
# zero-sum games
# ---------------------------------------------------------------------------


def test_matching_pennies():
    res = zero_sum(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(res.row_strategy, [0.5, 0.5], atol=1e-7)
    assert np.allclose(res.col_strategy, [0.5, 0.5], atol=1e-7)


def test_known_2x2_game():
    res = zero_sum(np.array([[2.0, 0.0], [1.0, 3.0]]))
    assert res.value == pytest.approx(1.5)
    assert np.allclose(res.row_strategy, [0.5, 0.5], atol=1e-7)
    assert np.allclose(res.col_strategy, [0.75, 0.25], atol=1e-7)


@pytest.mark.parametrize("seed", range(5))
def test_antisymmetric_games_have_value_zero(seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.0, 1.0, size=(5, 5))
    res = zero_sum(r - r.T)
    assert res.value == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("seed,shape", [(0, (4, 6)), (1, (6, 4)), (2, (7, 7)), (3, (2, 9))])
def test_game_strategies_are_mutual_best_responses(seed, shape):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-3.0, 3.0, size=shape)
    res = zero_sum(m)
    # the row mixture guarantees >= value against every pure column,
    # the column mixture caps the payoff at <= value against every pure row
    assert float(np.min(res.row_strategy @ m)) >= res.value - 1e-7
    assert float(np.max(m @ res.col_strategy)) <= res.value + 1e-7
    assert res.row_strategy.sum() == pytest.approx(1.0)
    assert res.col_strategy.sum() == pytest.approx(1.0)


def _zero_sum_reference(matrix):
    """zero_sum with one LP column per payoff row, repeated rows included:
    the full-width solve the distinct-row solve must repeat."""
    m = np.asarray(matrix, dtype=float)
    shift = 1.0 - float(m.min())
    n_rows, n_cols = m.shape
    res = lp_solve(c=-np.ones(n_rows), a_ub=-(m + shift).T, b_ub=-np.ones(n_cols))
    dual = np.clip(res.y_ub, 0.0, None)
    return GameResult(
        value=1.0 / -res.value - shift,
        row_strategy=res.x / res.x.sum(),
        col_strategy=dual / dual.sum(),
    )


def _highs_game_value(linprog, m):
    """max v over row mixtures x subject to (x^T M)_j >= v for every column."""
    n_rows, n_cols = m.shape
    res = linprog(
        np.r_[np.zeros(n_rows), -1.0],
        A_ub=np.hstack([-m.T, np.ones((n_cols, 1))]),
        b_ub=np.zeros(n_cols),
        A_eq=np.r_[np.ones(n_rows), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * n_rows + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def _assert_distinct_row_solve_is_exact(m):
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = zero_sum(m)
    ref = _zero_sum_reference(m)
    assert res.value == ref.value
    assert np.array_equal(res.col_strategy, ref.col_strategy)
    assert np.array_equal(res.row_strategy, ref.row_strategy)
    first = {}
    for i, row in enumerate(map(tuple, m.tolist())):
        first.setdefault(row, i)
    repeat = np.ones(len(m), dtype=bool)
    repeat[list(first.values())] = False
    assert not np.any(res.row_strategy[repeat])
    assert res.value == pytest.approx(_highs_game_value(linprog, m), abs=1e-9)


def _sign_payoff(dists, d0):
    """The K1 crsd game written out: |<sigma, D_i - D0>| for every domain
    sign row sigma with last entry +1 (rows) and every member (columns)."""
    diff = np.array([d.weights - d0.weights for d in dists])
    n = diff.shape[1]
    sigmas = np.array([(*signs, 1.0) for signs in itertools.product((1.0, -1.0), repeat=n - 1)])
    return np.abs(sigmas @ diff.T)


def _crsd_payoff(problem, kappa, monkeypatch):
    """The widest payoff matrix of the crsd game: the K1 sign table (crsd
    itself never builds it), or the KV vertex game crsd hands to zero_sum."""
    from sqlab import dimension

    if kappa == K1:
        return _sign_payoff(problem.dists, problem.reference)
    seen = []
    monkeypatch.setattr(dimension, "zero_sum", lambda m: seen.append(m) or zero_sum(m))
    dimension.crsd(list(problem.dists), problem.reference, kappa)
    (payoff,) = seen
    return payoff


# The instances of the nine ``sqlab dims`` benchmark reports (crsd does not
# depend on tau; biclique(5, k) has 32 domain points, past the 2^16 guard,
# and never reaches the game), then the KV vertex game. The K1 sign tables
# (up to 32,768 rows, 160 of them distinct) are zero_sum's widest real games.
_GAME_INSTANCES = [
    (biclique, (3, 1), K1), (biclique, (3, 2), K1), (biclique, (4, 1), K1),
    (biclique, (4, 3), K1), (line_problem, (2,), K1), (biclique, (3, 1), KV),
]


@pytest.mark.parametrize(
    "generator,params,kappa",
    _GAME_INSTANCES,
    ids=[f"{g.__name__}{params}-{kappa}".replace(" ", "") for g, params, kappa in _GAME_INSTANCES],
)
def test_distinct_row_game_repeats_the_full_width_solve_on_crsd_games(
    generator, params, kappa, monkeypatch
):
    payoff = _crsd_payoff(generator(*params, kind="decision"), kappa, monkeypatch)
    _assert_distinct_row_solve_is_exact(payoff)


@pytest.mark.parametrize("seed", range(12))
def test_distinct_row_game_repeats_the_full_width_solve_on_repeated_rows(seed):
    """A few distinct rows, each repeated and interleaved with the others, up
    to 300 rows in all; every third seed draws small integers, whose games
    are degenerate. Summing the value over the distinct rows alone changes
    its last bits on some of these games."""
    rng = np.random.default_rng(1500 + seed)
    k, n_cols = int(rng.integers(2, 9)), int(rng.integers(2, 7))
    if seed % 3:
        base = rng.uniform(-2.0, 2.0, size=(k, n_cols))
    else:
        base = rng.integers(-2, 3, size=(k, n_cols)).astype(float)
    _assert_distinct_row_solve_is_exact(base[rng.integers(k, size=int(rng.integers(k, 300)))])


def test_distinct_row_game_stays_exact_when_key_ties_keep_copies(monkeypatch):
    """With the plain row sum as the sort key, a row and its reverse tie and
    interleave in key order, so some copies stay in the LP. They are never
    entered: every game still repeats the full-width solve bit for bit."""
    from sqlab import games

    widths = []
    solve = games.lp_solve
    monkeypatch.setattr(games, "lp_solve", lambda c, **rows: widths.append(len(c)) or solve(c, **rows))
    monkeypatch.setattr(games, "_row_keys", lambda m: m.sum(axis=1))
    kept_copies = 0
    for seed in range(12):
        rng = np.random.default_rng(1600 + seed)
        k, n_cols = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        base = rng.integers(-2, 3, size=(k, n_cols)).astype(float)
        base = np.vstack([base, base[:, ::-1]])
        m = base[rng.integers(len(base), size=60)]
        _assert_distinct_row_solve_is_exact(m)
        distinct = len({tuple(row) for row in m.tolist()})
        assert widths[-1] >= distinct
        kept_copies += widths[-1] - distinct
    assert kept_copies > 0


# The six K1 games of the ``dims`` reports at their references.
_CRSD_INSTANCES = [
    (biclique, (3, 1)), (biclique, (3, 2)), (biclique, (4, 1)),
    (biclique, (4, 3)), (biclique, (4, 2)), (line_problem, (2,)),
]
_CRSD_IDS = [f"{g.__name__}{params}".replace(" ", "") for g, params in _CRSD_INSTANCES]


def _assert_crsd_matches_highs(dists, d0):
    """K1 crsd against HiGHS over every domain sign row, within 1e-9
    relative, and its certificate against the full sign table: the hardest
    measure's best response is at most the value, the query mixture's worst
    member at least the value."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    payoff = _sign_payoff(dists, d0)
    rep = crsd(dists, d0)
    cert = rep.certificate
    v = cert["game_value"]
    assert rep.value == 1.0 / v
    assert v == pytest.approx(_highs_game_value(linprog, payoff), rel=1e-9)
    assert float((payoff @ cert["hardest_measure"]).max()) <= v * (1 + 1e-9)
    diff = np.array([d.weights - d0.weights for d in dists])
    queries, mix = cert["queries"], cert["query_mixture"]
    assert np.array_equal(np.abs(queries), np.ones_like(queries))
    assert mix.min() >= 0 and mix.sum() == pytest.approx(1.0, abs=1e-12)
    assert float((mix @ np.abs(queries @ diff.T)).min()) >= v * (1 - 1e-9)
    return rep


@pytest.mark.parametrize("generator,params", _CRSD_INSTANCES, ids=_CRSD_IDS)
def test_k1_crsd_matches_highs_at_the_dims_references(generator, params):
    problem = generator(*params, kind="decision")
    _assert_crsd_matches_highs(list(problem.dists), problem.reference)


@pytest.mark.parametrize("generator,params", _CRSD_INSTANCES, ids=_CRSD_IDS)
def test_k1_crsd_matches_highs_at_member_mixture_centers(generator, params):
    """Seeded Dirichlet mixtures of the members as centers: the hardest
    measure is no longer uniform, so the cutting planes run."""
    problem = generator(*params, kind="decision")
    dists = list(problem.dists)
    w = np.array([d.weights for d in dists])
    for seed in range(4):
        mix = np.random.default_rng(1700 + seed).dirichlet(np.ones(len(dists)))
        _assert_crsd_matches_highs(dists, FiniteDistribution(problem.domain, mix @ w))


def test_k1_crsd_matches_highs_with_more_members_than_points():
    """m = 12 members on |X| = 5 points: the best responses scan the 16
    domain sign rows instead of 2^11 member patterns."""
    dists, d0 = random_dists(np.random.default_rng(1800), 5, 12)
    _assert_crsd_matches_highs(dists, d0)


@pytest.mark.parametrize("generator,params", _CRSD_INSTANCES, ids=_CRSD_IDS)
def test_kbar1_is_the_k1_crsd_best_response_value(generator, params):
    """``norms.kbar1(mu)`` and the K1 crsd best responses at mu come from one
    scan, ``norms._k1_scan``, at the uniform measure and at seeded Dirichlet
    measures: kbar1's value is the scan's value bit for bit. crsd scores the
    queries the scan returns by the query-axis payoff |<sigma, g_i>| @ mu,
    which sums in another order: it agrees within 1e-12 relative but not
    bit for bit (at the uniform measure biclique(3,2) and biclique(4,2)
    differ in the last bit), and crsd keeps it because its game values are
    the ones the master LP and the certificate re-evaluate."""
    from sqlab.dimension import _BRACKET_TOL
    from sqlab.norms import _k1_scan

    problem = generator(*params, kind="decision")
    dists, d0 = list(problem.dists), problem.reference
    g = np.array([d.weights - d0.weights for d in dists])
    m = len(dists)
    measures = [np.full(m, 1.0 / m)]
    measures += [np.random.default_rng(1900 + seed).dirichlet(np.ones(m)) for seed in range(4)]
    for mu in measures:
        scanned, queries = _k1_scan(g, mu, _BRACKET_TOL)
        value = kbar1(Measure.from_weights(mu), dists, d0).value
        assert value == scanned
        assert value == pytest.approx(float((np.abs(queries @ g.T) @ mu).max()), rel=1e-12)


def test_crsd_makes_no_lp_on_the_dims_instances(monkeypatch):
    """The six dims games close at the pure-strategy bracket: no master LP,
    no zero_sum."""
    from sqlab import dimension, games

    calls = []
    solve = games.lp_solve
    spy = lambda *args, **rows: calls.append(1) or solve(*args, **rows)  # noqa: E731
    monkeypatch.setattr(games, "lp_solve", spy)
    monkeypatch.setattr(dimension, "lp_solve", spy)
    for generator, params in _CRSD_INSTANCES:
        problem = generator(*params, kind="decision")
        rep = crsd(list(problem.dists), problem.reference)
        assert len(rep.certificate["queries"]) == 1
    assert calls == []


def test_crsd_cutting_planes_refuse_a_master_that_breaks_its_own_rows(monkeypatch):
    """A master LP whose point violates a row it was given would bring the
    same cut back forever; crsd raises NumericalError instead."""
    from sqlab import dimension
    from sqlab.games import LPResult

    def broken(c, a_ub, b_ub, a_eq, b_eq):
        k, n = a_ub.shape
        x = np.zeros(n)
        x[0] = 1.0
        return LPResult(0.0, x, np.full(k, 1.0 / k), np.zeros(1), np.zeros(n))

    monkeypatch.setattr(dimension, "lp_solve", broken)
    dists, d0 = random_dists(np.random.default_rng(1801), 4, 3)
    with pytest.raises(NumericalError, match="repeat a query"):
        crsd(dists, d0)


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------


def _dist(weights):
    w = np.asarray(weights, dtype=float)
    return FiniteDistribution(small_domain(len(w)), w)


def test_singleton_margin_is_l1_distance():
    d = _dist([0.7, 0.2, 0.1])
    d0 = _dist([1 / 3, 1 / 3, 1 / 3])
    res = max_margin([d], d0)
    l1 = float(np.abs(d.weights - d0.weights).sum())
    assert res.value == pytest.approx(l1)
    # the optimal query is the sign vector of the difference
    assert float(res.query @ (d.weights - d0.weights)) == pytest.approx(l1)


def test_mirror_pair_margins():
    d0 = _dist([0.5, 0.5])
    d1 = _dist([0.7, 0.3])
    d2 = _dist([0.3, 0.7])  # the mirror image of d1 through d0
    same_side = max_margin([d1, d2], d0, signs=[1, 1])
    assert same_side.value == pytest.approx(0.0, abs=1e-9)
    opposite = max_margin([d1, d2], d0, signs=[1, -1])
    assert opposite.value == pytest.approx(0.4)
    with pytest.raises(ValueError):
        max_margin([d1, d2], d0, signs=[1])


def test_empty_margin_is_infinite():
    d0 = _dist([0.5, 0.5])
    assert max_margin([], d0).value == np.inf


@pytest.mark.parametrize("seed", range(4))
def test_margin_certificate_on_random_subsets(seed):
    rng = np.random.default_rng(seed)
    dists, d0 = random_dists(rng, n_points=4, n_dists=3)
    res = max_margin(dists, d0)
    assert np.all(np.abs(res.query) <= 1.0 + 1e-9)
    margins = np.array([(d.weights - d0.weights) @ res.query for d in dists])
    assert float(margins.min()) >= res.value - 1e-8
    # the adversary mixture certifies near-optimality: no query can beat the
    # L1 norm of the mixed difference
    mixed = sum(w * (d.weights - d0.weights) for w, d in zip(res.mixture, dists))
    assert res.value <= float(np.abs(mixed).sum()) + 1e-7


@pytest.mark.parametrize("seed", range(3))
def test_margin_agrees_with_highs_against_mw_centers(seed):
    """The LP shape randomized search makes: signed subsets of biclique(4,2)
    against a center that is a multiplicative-weights mixture of the family."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    dists = list(biclique(4, 2).dists)
    n = len(dists[0].weights)
    rng = np.random.default_rng(700 + seed)
    for _ in range(25):
        log_w = -0.5 * rng.integers(0, 8, len(dists))
        w = np.exp(log_w - log_w.max())
        center = FiniteDistribution(dists[0].domain, w @ np.array([d.weights for d in dists]) / w.sum())
        k = int(rng.integers(2, 6))
        members = sorted(rng.choice(len(dists), k, replace=False))
        signs = [int(s) for s in rng.choice([-1, 1], k)]
        res = max_margin([dists[i] for i in members], center, signs)
        # HiGHS: maximize t s.t. t <= s_D <phi, D - D0> for each member, phi in [-1, 1]^X
        g = np.array([s * (dists[i].weights - center.weights) for s, i in zip(signs, members)])
        ref = linprog(
            np.r_[np.zeros(n), -1.0],
            A_ub=np.hstack([-g, np.ones((k, 1))]),
            b_ub=np.zeros(k),
            bounds=[(-1.0, 1.0)] * n + [(None, None)],
            method="highs",
        )
        assert ref.status == 0
        assert res.value == pytest.approx(-ref.fun, abs=1e-7)
        assert float((g @ res.query).min()) >= res.value - 1e-8


def test_margin_lp_keeps_the_box_as_bounds(monkeypatch):
    """k margin rows and n + 1 columns; 0 <= phi + 1 <= 2 is the bounds."""
    from sqlab import games

    shapes = []
    solve = games.lp_solve
    monkeypatch.setattr(
        games, "lp_solve",
        lambda c, **rows: shapes.append((rows["a_ub"].shape, rows["upper"].tolist())) or solve(c, **rows),
    )
    dists, d0 = random_dists(np.random.default_rng(5), n_points=6, n_dists=3)
    max_margin(dists, d0, [1, -1, 1])
    assert shapes == [((3, 7), [2.0] * 6 + [math.inf])]


def test_margin_stress_fixture_solves_to_its_highs_value():
    """The first of the 16,000 programs of ``tests/lp_stress.py`` on which
    the dense-tableau kernel, with the box kept as 64 rows, raised
    ``NumericalError`` (its dual point violated y >= 0). The value matches
    HiGHS within 1e-9, and the query and the mixture certify it to 1e-12."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    record = json.loads((Path(__file__).parent / "fixtures" / "max_margin_stress_first_failure.json").read_text())
    domain = small_domain(len(record["center_weights"]))
    d0 = FiniteDistribution(domain, np.array(record["center_weights"]))
    dists = [FiniteDistribution(domain, np.array(w)) for w in record["member_weights"]]
    res = max_margin(dists, d0, record["signs"])
    g = np.array([s * (d.weights - d0.weights) for s, d in zip(record["signs"], dists)])
    assert abs(res.value - _highs_margin(linprog, g)) <= 1e-9
    assert float((g @ res.query).min()) >= res.value - 1e-12
    assert float(np.abs(res.mixture @ g).sum()) <= res.value + 1e-12


# ---------------------------------------------------------------------------
# achievable subsets
# ---------------------------------------------------------------------------


def test_achievable_subsets_concrete():
    d0 = _dist([0.5, 0.5])
    dists = [_dist([0.9, 0.1]), _dist([0.1, 0.9]), _dist([0.6, 0.4])]
    family = achievable_subsets(dists, d0, tau=0.3)
    assert family.kappa == K1
    # the opposite-side pair is jointly achievable; the 0.2-margin dist is not
    assert frozenset({0, 1}) in family.sets
    assert family.uncovered() == [2]
    verify_cover_family(dists, d0, family)
    # maximality: no set contains another
    for s in family.sets:
        assert not any(s < t for t in family.sets if t is not s)
    for phi in family.witnesses:
        assert np.all(np.abs(phi) <= 1.0 + 1e-9)
    assert achievable_subsets([], d0, tau=0.3).sets == ()
    # no member clears the radius: nothing to pool and nothing achievable
    assert achievable_subsets(dists, d0, tau=2.0).sets == ()


def test_achievable_subsets_kv_vertex_family():
    rng = np.random.default_rng(7)
    dists, d0 = random_dists(rng, n_points=4, n_dists=3)
    family = achievable_subsets(dists, d0, tau=0.05, kappa=KV)
    assert family.kappa == KV
    for phi in family.witnesses:
        assert set(np.unique(phi)) <= {0.0, 1.0}
    verify_cover_family(dists, d0, family)


def test_achievable_subsets_guard():
    d0 = _dist([0.5, 0.5])
    dists = [_dist([0.5 + 0.01 * (i + 1), 0.5 - 0.01 * (i + 1)]) for i in range(21)]
    with pytest.raises(GuardExceededError):
        achievable_subsets(dists, d0, tau=0.001)


def test_margins_and_families_refuse_members_from_another_domain():
    """Weights are compared position by position, so a member must live on
    the center's domain: one of the same size would give a wrong family
    silently, one of another size a broadcast error. In a store, a member
    with the weight bytes of a stored one is refused before the lookup."""
    d0 = _dist([0.5, 0.3, 0.2])
    member = _dist([0.1, 0.2, 0.7])
    same_size = FiniteDistribution(FiniteDomain(("a", "b", "c")), member.weights)
    other_size = _dist([0.25, 0.25, 0.25, 0.25])
    for stranger in (same_size, other_size):
        dists = [member, stranger]
        with pytest.raises(DomainMismatchError):
            max_margin(dists, d0)
        for kappa in (K1, KV):
            with pytest.raises(DomainMismatchError):
                achievable_subsets(dists, d0, 0.2, kappa=kappa)
        with pytest.raises(DomainMismatchError):
            family_of(dists, d0, 0.2)
    with shared_families():
        family_of([member], d0, 0.2)
        with pytest.raises(DomainMismatchError):
            family_of([same_size], d0, 0.2)


def _achievable_subsets_reference(dists, d0, tau):
    """The K1 family from one ``max_margin`` LP per candidate signed subset:
    the walk without closure pruning or pooled certification, kept to pin
    the pruned walk's sets and their order."""
    threshold = tau + STRICT_EPS
    frontier = []
    for i, d in enumerate(dists):
        res = max_margin([d], d0)
        if res.value >= threshold:
            frontier.append((((i, 1),), res.query))
    witnesses = {}
    while frontier:
        for signed, phi in frontier:
            witnesses.setdefault(frozenset(i for i, _ in signed), phi)
        grown = []
        for signed, _ in frontier:
            for j in range(signed[-1][0] + 1, len(dists)):
                for sign in (1, -1):
                    cand = signed + ((j, sign),)
                    res = max_margin([dists[i] for i, _ in cand], d0, [s for _, s in cand])
                    if res.value >= threshold:
                        grown.append((cand, res.query))
        frontier = grown
    maximal = [s for s in witnesses if not any(s < t for t in witnesses)]
    maximal.sort(key=lambda s: (len(s), sorted(s)))
    return CoverFamily(
        ground_size=len(dists),
        sets=tuple(maximal),
        witnesses=tuple(witnesses[s] for s in maximal),
        tau=tau,
    )


def _assert_same_family(dists, d0, tau):
    family = achievable_subsets(dists, d0, tau)
    reference = _achievable_subsets_reference(dists, d0, tau)
    assert family.sets == reference.sets
    verify_cover_family(dists, d0, family)
    verify_cover_family(dists, d0, reference)


def _kv_families_reference(dists, d0, taus):
    """The KV vertex family at each radius in ``taus``, one binary vertex
    query at a time with one scalar square-root-scale gap per member (the
    per-vertex loop the one-product family replaced), kept to pin that
    family's sets, order and witnesses."""
    n = len(d0.domain)
    vertices = []
    for bits in range(1, 2**n):
        phi = np.array([(bits >> i) & 1 for i in range(n)], dtype=float)
        root = math.sqrt(max(d0.expectation(phi), 0.0))
        gaps = [abs(math.sqrt(max(d.expectation(phi), 0.0)) - root) for d in dists]
        vertices.append((phi, gaps))
    families = []
    for tau in taus:
        best = {}
        for phi, gaps in vertices:
            covered = frozenset(i for i, gap in enumerate(gaps) if gap >= tau + STRICT_EPS)
            if covered and covered not in best:
                best[covered] = phi
        maximal = [s for s in best if not any(s < t for t in best)]
        maximal.sort(key=lambda s: (len(s), sorted(s)))
        families.append(CoverFamily(
            ground_size=len(dists),
            sets=tuple(maximal),
            witnesses=tuple(best[s] for s in maximal),
            tau=tau,
            kappa=KV,
        ))
    return families


_KV_INSTANCES = [
    (biclique, (3, 1)), (biclique, (3, 2)), (biclique, (4, 1)), (biclique, (4, 2)),
    (biclique, (4, 3)), (line_problem, (2,)),
]
_KV_TAUS = (0.05, 0.1, 0.15, 0.2)


@pytest.mark.parametrize(
    "generator,params",
    _KV_INSTANCES,
    ids=[f"{g.__name__}{params}".replace(" ", "") for g, params in _KV_INSTANCES],
)
def test_kv_family_repeats_the_per_vertex_loop(generator, params):
    """The same maximal sets, in the same order, with bit-identical vertex
    witnesses, at every radius."""
    problem = generator(*params, kind="decision")
    dists, d0 = list(problem.dists), problem.reference
    references = _kv_families_reference(dists, d0, _KV_TAUS)
    for tau, reference in zip(_KV_TAUS, references):
        family = achievable_subsets(dists, d0, tau, kappa=KV)
        assert family.sets == reference.sets
        assert len(family.witnesses) == len(reference.witnesses)
        for phi, ref_phi in zip(family.witnesses, reference.witnesses):
            assert np.array_equal(phi, ref_phi)
        verify_cover_family(dists, d0, family)


def test_kv_family_repeats_the_per_vertex_loop_past_one_packed_byte():
    """Twelve members: each hit row packs into two bytes, and the family
    still has the loop's sets, order and witnesses."""
    dists, d0 = random_dists(np.random.default_rng(12), 7, 12, alpha=0.5)
    taus = (0.15, 0.25, 0.35)
    for tau, reference in zip(taus, _kv_families_reference(dists, d0, taus)):
        family = achievable_subsets(dists, d0, tau, kappa=KV)
        assert family.sets == reference.sets and len(family.sets) > 1
        assert all(np.array_equal(a, b) for a, b in zip(family.witnesses, reference.witnesses))


# The nine ``sqlab dims`` benchmark instances, then biclique(4,2) and line(3).
_FAMILY_INSTANCES = [
    (biclique, (3, 1), 0.2), (biclique, (3, 2), 0.2), (biclique, (4, 1), 0.1),
    (biclique, (4, 1), 0.2), (biclique, (4, 3), 0.2), (biclique, (5, 1), 0.1),
    (biclique, (5, 4), 0.2), (line_problem, (2,), 0.1), (line_problem, (2,), 0.2),
    (biclique, (4, 2), 0.2), (line_problem, (3,), 0.2),
]


@pytest.mark.parametrize(
    "generator,params,tau",
    _FAMILY_INSTANCES,
    ids=[f"{g.__name__}{params}-{tau}".replace(" ", "") for g, params, tau in _FAMILY_INSTANCES],
)
def test_pruned_walk_repeats_the_one_lp_per_candidate_family(generator, params, tau):
    """The same maximal sets, in the same order, with bit-identical
    witnesses."""
    problem = generator(*params, kind="decision")
    _assert_same_family(list(problem.dists), problem.reference, tau)


@pytest.mark.parametrize("seed,tau", [(0, 0.2), (1, 0.25), (2, 0.25)])
def test_pruned_walk_repeats_the_family_at_mw_centers(seed, tau, monkeypatch):
    """The families randomized search builds: the far targets of
    biclique(6,2) against a multiplicative-weights mixture center. Each
    center has 14 far targets; at tau 0.25 their family has 39-60 maximal
    sets, which the reference walk enumerates in about a second, against
    ten at tau 0.2."""
    from sqlab import solvers

    problem = biclique(6, 2)
    dist_mat = np.array([d.weights for d in problem.dists])
    rng = np.random.default_rng(900 + seed)
    log_w = -0.5 * rng.integers(0, 8, problem.n_dists)
    w = np.exp(log_w - log_w.max())
    calls = []
    build = solvers.achievable_subsets

    def spy(dists, d0, tau, kappa=K1):
        calls.append((dists, d0, tau))
        return build(dists, d0, tau, kappa=kappa)

    monkeypatch.setattr(solvers, "achievable_subsets", spy)
    solvers.margin_cover(problem, tau, randomized=True)(w @ dist_mat / w.sum())
    (far, center, far_tau), = calls
    assert len(far) == 14
    _assert_same_family(far, center, far_tau)


@given(data=st.data())
def test_pruned_walk_repeats_the_family_on_random_instances(data):
    n = data.draw(st.integers(2, 8))
    m = data.draw(st.integers(1, 6))
    weights = st.lists(st.integers(1, 10), min_size=n, max_size=n).map(lambda c: np.array(c) / sum(c))
    dists = [_dist(data.draw(weights)) for _ in range(m)]
    d0 = _dist(data.draw(weights))
    tau = data.draw(st.floats(0.01, 0.8))
    _assert_same_family(dists, d0, tau)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 4), (6, 5)])
def test_top_families_keep_their_witness_bytes(n, k):
    """Each family is the one set of all members. The golden was written by
    the walk before the top check existed, so the check returns its witness
    bit for bit."""
    golden = json.loads((_GOLDEN / "families_top_tau0.2.json").read_text())[f"biclique_{n}_{k}"]
    problem = biclique(n, k, kind="decision")
    family = achievable_subsets(list(problem.dists), problem.reference, 0.2)
    assert [sorted(s) for s in family.sets] == golden["sets"] == [list(range(problem.n_dists))]
    assert [[float(v).hex() for v in phi] for phi in family.witnesses] == golden["witnesses"]


@given(data=st.data())
def test_top_check_repeats_the_walk_on_random_instances(data):
    """The family with the top check equals the family of the walk without
    it: the same sets and the same witness bytes."""
    from sqlab import games

    n = data.draw(st.integers(2, 8))
    m = data.draw(st.integers(2, 6))
    weights = st.lists(st.integers(1, 10), min_size=n, max_size=n).map(lambda c: np.array(c) / sum(c))
    dists = [_dist(data.draw(weights)) for _ in range(m)]
    d0 = _dist(data.draw(weights))
    tau = data.draw(st.floats(0.01, 0.8))
    family = achievable_subsets(dists, d0, tau)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(games, "_top_witness", lambda table, pool, threshold: None)
        walked = achievable_subsets(dists, d0, tau)
    assert family.sets == walked.sets
    assert [phi.tobytes() for phi in family.witnesses] == [phi.tobytes() for phi in walked.witnesses]


def _assert_restrict_repeats_the_walk(dists, d0, tau, keeps):
    """Each cut of the family of ``dists`` lists the sets a fresh walk over
    the kept members lists, in the same order, with the same uncovered
    members, and with witnesses that still separate what they keep."""
    full = achievable_subsets(dists, d0, tau)
    for keep in keeps:
        sub = [dists[i] for i in keep]
        cut, fresh = full.restrict(keep), achievable_subsets(sub, d0, tau)
        assert (cut.ground_size, cut.tau, cut.kappa) == (fresh.ground_size, fresh.tau, fresh.kappa)
        assert cut.sets == fresh.sets
        assert cut.uncovered() == fresh.uncovered()
        verify_cover_family(sub, d0, cut)


# The rsd_search instances, biclique(4,1) at a radius where the mixture
# center leaves members uncovered, and the 386-set family of biclique(6,2).
_RESTRICT_INSTANCES = [
    (biclique, (4, 2), 0.2), (line_problem, (3,), 0.2), (biclique, (4, 1), 0.15),
    (line_problem, (2,), 0.1), (biclique, (4, 1), 0.2), (biclique, (6, 2), 0.3),
]


@pytest.mark.parametrize("center", ["reference", "mixture"])
@pytest.mark.parametrize(
    "generator,params,tau",
    _RESTRICT_INSTANCES,
    ids=[f"{g.__name__}{params}-{tau}".replace(" ", "") for g, params, tau in _RESTRICT_INSTANCES],
)
def test_restricted_family_repeats_a_fresh_walk(generator, params, tau, center):
    """Seeded random keeps, each in a random order (members are renumbered
    in the order of ``keep``)."""
    problem = generator(*params, kind="decision")
    dists = list(problem.dists)
    d0 = problem.reference if center == "reference" else mixture(dists)
    rng = np.random.default_rng(len(dists))
    keeps = [rng.permutation(len(dists))[: rng.integers(1, len(dists) + 1)].tolist()
             for _ in range(4)]
    _assert_restrict_repeats_the_walk(dists, d0, tau, [list(range(len(dists))), *keeps])


def test_restrict_keeps_uncovered_members_uncovered():
    """Member 1 lies within tau of the center; the other two do not."""
    dists = [_dist([0.7, 0.2, 0.1]), _dist([0.34, 0.33, 0.33]), _dist([0.1, 0.2, 0.7])]
    d0 = _dist([1 / 3, 1 / 3, 1 / 3])
    full = achievable_subsets(dists, d0, 0.2)
    assert full.uncovered() == [1]
    assert full.restrict([2, 1]).uncovered() == [1]
    assert full.restrict([1]).sets == ()
    _assert_restrict_repeats_the_walk(dists, d0, 0.2, [[2, 1], [1, 0], [1], [0, 2]])
    assert full.restrict([]).sets == ()
    with pytest.raises(ValueError):
        full.restrict([0, 0])
    with pytest.raises(ValueError):
        full.restrict([len(dists)])


@given(data=st.data())
def test_restricted_family_repeats_a_fresh_walk_on_random_instances(data):
    n = data.draw(st.integers(2, 8))
    m = data.draw(st.integers(1, 6))
    weights = st.lists(st.integers(1, 10), min_size=n, max_size=n).map(lambda c: np.array(c) / sum(c))
    dists = [_dist(data.draw(weights)) for _ in range(m)]
    d0 = _dist(data.draw(weights))
    tau = data.draw(st.floats(0.01, 0.8))
    keep = data.draw(st.permutations(range(m)).flatmap(lambda p: st.integers(0, m).map(lambda k: p[:k])))
    _assert_restrict_repeats_the_walk(dists, d0, tau, [keep])


# ---------------------------------------------------------------------------
# the report-scoped family store
# ---------------------------------------------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """(member count, tau, kappa) of every ``achievable_subsets`` walk."""
    from sqlab import games

    seen = []
    enumerate_family = games.achievable_subsets

    def spy(dists, d0, tau, kappa=K1):
        seen.append((len(dists), tau, kappa))
        return enumerate_family(dists, d0, tau, kappa=kappa)

    monkeypatch.setattr(games, "achievable_subsets", spy)
    return seen


def _biclique_4_2():
    problem = biclique(4, 2, kind="decision")
    return list(problem.dists), problem.reference


def test_family_of_enumerates_every_call_outside_a_store(walks):
    dists, d0 = _biclique_4_2()
    first, second = family_of(dists, d0, 0.2), family_of(dists, d0, 0.2)
    assert walks == [(6, 0.2, K1), (6, 0.2, K1)]
    assert first is not second and first.sets == second.sets


def test_family_of_serves_the_ground_and_its_cuts_from_one_walk(walks):
    """The whole ground gets the stored family itself; a reordered subset
    gets its cut, which lists the sets a fresh walk does."""
    dists, d0 = _biclique_4_2()
    keep = [4, 1, 3]
    with shared_families():
        full = family_of(dists, d0, 0.2)
        assert family_of(list(dists), d0, 0.2) is full
        cut = family_of([dists[i] for i in keep], d0, 0.2)
    assert walks == [(6, 0.2, K1)]
    assert cut.sets == achievable_subsets([dists[i] for i in keep], d0, 0.2).sets
    verify_cover_family([dists[i] for i in keep], d0, cut)


def test_family_of_keys_center_tau_and_kappa_apart(walks):
    dists, d0 = _biclique_4_2()
    with shared_families():
        for center, tau, kappa in [(d0, 0.2, K1), (d0, 0.3, K1), (d0, 0.2, KV),
                                   (mixture(dists), 0.2, K1)]:
            family = family_of(dists, center, tau, kappa)
            assert family.sets == achievable_subsets(dists, center, tau, kappa).sets
        # each key once, however often it is asked for again
        for center, tau, kappa in [(d0, 0.2, K1), (d0, 0.3, K1), (d0, 0.2, KV)]:
            family_of(dists[:3], center, tau, kappa)
    assert walks == [(6, 0.2, K1), (6, 0.3, K1), (6, 0.2, KV), (6, 0.2, K1)]


def test_family_of_walks_again_for_a_repeated_member(walks):
    """A request that names one weight vector twice has no distinct indices
    in any stored ground, so each such request is enumerated afresh, as
    outside a store."""
    from sqlab import rsd_decision, sd_decision

    dists, d0 = _biclique_4_2()
    repeated = [dists[0], dists[2], dists[0]]
    with shared_families():
        family_of(dists, d0, 0.2)
        scoped = family_of(repeated, d0, 0.2)
        values = (rsd_decision(repeated, d0, 0.2).value, sd_decision(repeated, d0, 0.2).value)
    assert walks == [(6, 0.2, K1)] + [(3, 0.2, K1)] * 3
    assert scoped.sets == achievable_subsets(repeated, d0, 0.2).sets
    assert values == (rsd_decision(repeated, d0, 0.2).value, sd_decision(repeated, d0, 0.2).value)


def test_family_of_keeps_nothing_from_a_walk_that_raises(walks):
    dom = small_domain(2)
    dists = [FiniteDistribution(dom, np.array([0.9, 0.1]))] * 21
    d0 = FiniteDistribution.uniform(dom)
    with shared_families():
        for _ in range(2):
            with pytest.raises(GuardExceededError):
                family_of(dists, d0, 0.001)
    assert len(walks) == 2


def test_a_store_serves_only_its_own_thread(walks):
    import threading

    dists, d0 = _biclique_4_2()
    with shared_families():
        family_of(dists, d0, 0.2)
        other = threading.Thread(target=family_of, args=(dists, d0, 0.2))
        other.start()
        other.join(timeout=60)
        assert not other.is_alive()
        family_of(dists, d0, 0.2)
    assert len(walks) == 2


def test_nested_store_blocks_share_the_outer_store(walks):
    """An inner block joins the outer store, which ends with the outer block."""
    dists, d0 = _biclique_4_2()
    with shared_families():
        with shared_families():
            inner = family_of(dists, d0, 0.2)
        assert family_of(dists, d0, 0.2) is inner
    assert family_of(dists, d0, 0.2) is not inner
    assert len(walks) == 2


@given(data=st.data())
def test_margin_bracket_holds_on_random_signed_subsets(data):
    """The uniform mixture's sign query bounds the max-margin LP value from
    below and the mixture's l1 norm from above."""
    n = data.draw(st.integers(2, 8))
    m = data.draw(st.integers(1, 6))
    weights = st.lists(st.integers(1, 10), min_size=n, max_size=n).map(lambda c: np.array(c) / sum(c))
    dists = [_dist(data.draw(weights)) for _ in range(m)]
    d0 = _dist(data.draw(weights))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
    g = np.array([s * (d.weights - d0.weights) for s, d in zip(signs, dists)])
    lower, upper, phi = _margin_bracket(g)
    value = max_margin(dists, d0, signs).value
    assert lower <= value + 1e-9
    assert value <= upper + 1e-9
    assert lower == float((g @ phi).min()) and set(np.unique(phi)) <= {-1.0, 1.0}


def _highs_margin(linprog, g):
    """max t over phi in [-1,1]^n subject to <phi, g_i> >= t for every row."""
    k, n = g.shape
    res = linprog(
        np.r_[np.zeros(n), -1.0],
        A_ub=np.hstack([-g, np.ones((k, 1))]),
        b_ub=np.zeros(k),
        bounds=[(-1.0, 1.0)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("block", range(6))
def test_achievable_family_agrees_with_highs(block):
    """Every signed subset (first member +1) of 60 seeded small families is
    solved by HiGHS; its maximal achievable sets must be sqlab's family.
    tau sits midway between two HiGHS margins at least 1e-4 apart, so no
    set lies within solver tolerance of the threshold."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    from itertools import combinations, product

    for seed in range(10 * block, 10 * block + 10):
        rng = np.random.default_rng(1300 + seed)
        m = 3 + seed % 3
        dists, d0 = random_dists(rng, n_points=3 + seed % 4, n_dists=m)
        diff = np.array([d.weights - d0.weights for d in dists])
        margins = {}
        for k in range(1, m + 1):
            for members in combinations(range(m), k):
                for tail in product((1, -1), repeat=k - 1):
                    signs = np.array((1, *tail), dtype=float)
                    margins[members, tuple(signs)] = _highs_margin(linprog, signs[:, None] * diff[list(members)])
        values = np.unique(np.round(list(margins.values()), 9))
        gaps = np.flatnonzero(np.diff(values) > 1e-4)
        cut = int(gaps[rng.integers(len(gaps))])
        tau = float(values[cut] + values[cut + 1]) / 2
        achievable = {frozenset(s) for (s, _), v in margins.items() if v >= tau + STRICT_EPS}
        expected = {s for s in achievable if not any(s < t for t in achievable)}
        family = achievable_subsets(dists, d0, tau)
        assert set(family.sets) == expected, seed
        verify_cover_family(dists, d0, family)


def _count_calls(monkeypatch, name):
    """A one-item list that counts the calls to ``games.<name>``."""
    from sqlab import games

    calls = [0]
    solve = getattr(games, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(games, name, counted)
    return calls


def test_line_3_decision_cover_makes_few_margin_lps(monkeypatch):
    """One LP per candidate made 9,423 max_margin calls here, and the walk
    without the LP-free bracket 412."""
    from sqlab.solvers import decision_cover

    calls = _count_calls(monkeypatch, "max_margin")
    family, cover = decision_cover(line_problem(3, kind="decision"), 0.2)
    assert calls[0] <= 239
    assert family.sets == (frozenset(range(9)),)


def _assert_top_family_makes_only_singleton_calls(monkeypatch, n, k, members):
    """One singleton's sign query separates every member of biclique(n,k)
    at tau 0.2, so the top check settles the family from the singletons'
    margins alone: no settle and no LP."""
    problem = biclique(n, k, kind="decision")
    calls = _count_calls(monkeypatch, "max_margin")
    lps = _count_calls(monkeypatch, "lp_solve")
    dists = list(problem.dists)
    family = achievable_subsets(dists, problem.reference, 0.2)
    assert calls[0] == problem.n_dists == members
    assert lps[0] == 0
    assert family.sets == (frozenset(range(members)),)
    verify_cover_family(dists, problem.reference, family)


def test_biclique_5_4_family_makes_few_margin_lps(monkeypatch):
    """One LP per candidate made 121 max_margin calls here, and the walk
    without the top check 20, 15 of them LPs."""
    _assert_top_family_makes_only_singleton_calls(monkeypatch, 5, 4, 5)


@pytest.mark.parametrize("n,k,members", [(3, 2, 3), (4, 3, 4), (6, 4, 15)])
def test_top_families_make_only_the_singleton_margin_calls(n, k, members, monkeypatch):
    """On biclique(6,4) the walk without the top check ran for more than
    ten minutes."""
    _assert_top_family_makes_only_singleton_calls(monkeypatch, n, k, members)


def test_biclique_6_2_family_at_tau_0_3_makes_no_settle_lp(monkeypatch):
    """The LP-free bracket settles every candidate here: the only margin
    calls are the 15 singletons' sign queries, and no LP is solved (the walk
    without the bracket made 1,826 settle LPs, and witness LPs after the
    walk once made 386 more). Every witness is a pooled or bracket sign
    query."""
    problem = biclique(6, 2, kind="decision")
    calls = _count_calls(monkeypatch, "max_margin")
    lps = _count_calls(monkeypatch, "lp_solve")
    dists = list(problem.dists)
    family = achievable_subsets(dists, problem.reference, 0.3)
    assert len(family.sets) == 386
    assert calls[0] == problem.n_dists == 15
    assert lps[0] == 0
    assert all(np.array_equal(np.abs(phi), np.ones_like(phi)) for phi in family.witnesses)
    verify_cover_family(dists, problem.reference, family)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def _pairwise_family():
    sets = (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
    witnesses = tuple(np.zeros(2) for _ in sets)
    return CoverFamily(ground_size=3, sets=sets, witnesses=witnesses, tau=0.1)


def test_fractional_cover_known_value():
    cover = fractional_cover(_pairwise_family())
    assert cover.value == pytest.approx(1.5)
    assert np.allclose(cover.y, 0.5, atol=1e-8)
    assert cover.q.sum() == pytest.approx(1.0)
    # dual packing certificate: each set holds at most unit mass, total = value
    family = _pairwise_family()
    for s in family.sets:
        assert sum(cover.mu[i] for i in s) <= 1.0 + 1e-7
    assert cover.mu.sum() == pytest.approx(cover.value, abs=1e-7)


def test_integer_covers():
    family = _pairwise_family()
    exact = exact_min_cover(family)
    greedy = greedy_cover(family)
    assert len(exact) == 2
    assert len(greedy) == 2
    covered = set()
    for j in exact:
        covered |= family.sets[j]
    assert covered == {0, 1, 2}


def test_uncoverable_reports_indices():
    family = CoverFamily(
        ground_size=3,
        sets=(frozenset({0, 1}),),
        witnesses=(np.zeros(2),),
        tau=0.1,
    )
    assert family.uncovered() == [2]
    with pytest.raises(UncoverableError) as info:
        fractional_cover(family)
    assert info.value.indices == (2,)
    with pytest.raises(UncoverableError):
        exact_min_cover(family)
    with pytest.raises(UncoverableError):
        greedy_cover(family)


def _assert_cover_lps_match_highs(family):
    """``fractional_cover`` and the hardest-measure LP (min over measures mu
    of max_S mu(S)) within 1e-9 of HiGHS."""
    from sqlab.dimension import _hardest_measure_lp

    linprog = pytest.importorskip("scipy.optimize").linprog
    m, k = family.ground_size, len(family.sets)
    a = np.zeros((m, k))
    for j, s in enumerate(family.sets):
        a[sorted(s), j] = 1.0
    cover = linprog(np.ones(k), A_ub=-a, b_ub=-np.ones(m), method="highs")
    hardest = linprog(
        np.r_[np.zeros(m), 1.0],
        A_ub=np.hstack([a.T, -np.ones((k, 1))]),
        b_ub=np.zeros(k),
        A_eq=np.r_[np.ones(m), 0.0][None, :],
        b_eq=[1.0],
        method="highs",
    )
    assert cover.status == 0 and hardest.status == 0
    assert fractional_cover(family).value == pytest.approx(cover.fun, abs=1e-9)
    assert _hardest_measure_lp(family)[0] == pytest.approx(hardest.fun, abs=1e-9)


@given(data=st.data())
def test_cover_chain_on_random_families(data):
    """fractional <= exact <= greedy, all covers actually cover, and both
    cover LPs agree with HiGHS."""
    ground = data.draw(st.integers(2, 6))
    n_sets = data.draw(st.integers(1, 6))
    sets = []
    for _ in range(n_sets):
        members = data.draw(
            st.sets(st.integers(0, ground - 1), min_size=1, max_size=ground)
        )
        sets.append(frozenset(members))
    family = CoverFamily(
        ground_size=ground,
        sets=tuple(sets),
        witnesses=tuple(np.zeros(1) for _ in sets),
        tau=0.1,
    )
    if family.uncovered():
        with pytest.raises(UncoverableError):
            fractional_cover(family)
        return
    frac = fractional_cover(family)
    exact = exact_min_cover(family)
    greedy = greedy_cover(family)
    assert frac.value <= len(exact) + 1e-7
    assert len(exact) <= len(greedy)
    for chosen in (exact, greedy):
        covered = set()
        for j in chosen:
            covered |= family.sets[j]
        assert covered == set(range(ground))
    _assert_cover_lps_match_highs(family)


_DIMS_GOLDEN_INSTANCES = [
    (biclique, (3, 1), 0.2), (biclique, (4, 3), 0.2), (line_problem, (2,), 0.1),
    (line_problem, (3,), 0.2), (biclique, (4, 1), 0.1), (biclique, (4, 2), 0.2),
    (biclique, (6, 2), 0.3), (biclique, (4, 1), 0.15),
]


@pytest.mark.parametrize(
    "generator,params,tau",
    _DIMS_GOLDEN_INSTANCES,
    ids=[f"{g.__name__}{p}-tau{tau}".replace(" ", "") for g, p, tau in _DIMS_GOLDEN_INSTANCES],
)
def test_cover_lps_match_highs_on_the_dims_golden_families(generator, params, tau):
    """The K1 reference family of every instance with a ``dims`` golden
    report (the KV reports' instances included): both cover LPs within
    1e-9 of HiGHS."""
    problem = generator(*params, kind="decision")
    _assert_cover_lps_match_highs(achievable_subsets(list(problem.dists), problem.reference, tau))


# ---------------------------------------------------------------------------
# seeded reports
# ---------------------------------------------------------------------------

_GOLDEN = Path(__file__).parent / "golden"


_BICLIQUE_4_2 = ["--gen", "biclique", "--n", "4", "--k", "2"]


def _golden_case(argv, golden, id=None):
    return pytest.param(argv, golden, id=id or golden)


@pytest.mark.parametrize(
    "argv,golden",
    [
        # The three dims cases keep the ids they had when the test took
        # generator flags and tau separately.
        _golden_case(
            ["dims", "--gen", "biclique", "--n", "3", "--k", "1", "--kind", "decision", "--tau", "0.2"],
            "dims_biclique_3_1_tau0.2.json",
            id="flags0-0.2-dims_biclique_3_1_tau0.2.json",
        ),
        _golden_case(
            ["dims", "--gen", "biclique", "--n", "4", "--k", "3", "--kind", "decision", "--tau", "0.2"],
            "dims_biclique_4_3_tau0.2.json",
            id="flags1-0.2-dims_biclique_4_3_tau0.2.json",
        ),
        _golden_case(
            ["dims", "--gen", "line", "--p", "2", "--kind", "decision", "--tau", "0.1"],
            "dims_line_2_tau0.1.json",
            id="flags2-0.1-dims_line_2_tau0.1.json",
        ),
        _golden_case(
            ["dims", "--gen", "line", "--p", "3", "--kind", "decision", "--tau", "0.2"],
            "dims_line_3_decision_tau0.2.json",
        ),
        # The search kind on line(3) with --beta: sd_decision, kappa1_frac
        # and rsd_search's uniform-domain center all read the reference
        # family that rsd_decision enumerated.
        _golden_case(
            ["dims", "--gen", "line", "--p", "3", "--tau", "0.2", "--beta", "0.9"],
            "dims_line_3_tau0.2_beta0.9.json",
        ),
        # The K1 crsd game on 16 points, closed at its pure-strategy
        # bracket, and the KV vertex game, solved by zero_sum.
        _golden_case(
            ["dims", "--gen", "biclique", "--n", "4", "--k", "1", "--kind", "decision", "--tau", "0.1"],
            "dims_biclique_4_1_tau0.1.json",
        ),
        _golden_case(
            ["dims", "--gen", "biclique", "--n", "3", "--k", "1", "--kind", "decision", "--tau", "0.2",
             "--kappa", "kv"],
            "dims_biclique_3_1_kv_tau0.2.json",
        ),
        # The KV vertex family and game on a 16-point domain.
        _golden_case(
            ["dims", *_BICLIQUE_4_2, "--kind", "decision", "--kappa", "kv", "--tau", "0.2"],
            "dims_biclique_4_2_kv_tau0.2.json",
        ),
        # 386 maximal sets of a 15-member family, every candidate settled
        # without a margin LP, and sd_decision over 2^15 subfamilies.
        _golden_case(
            ["dims", "--gen", "biclique", "--n", "6", "--k", "2", "--kind", "decision", "--tau", "0.3"],
            "dims_biclique_6_2_tau0.3.json",
        ),
        # The search-kind and verifiable-kind reports: rsd_search (value
        # 1.0 and 3.0, both won at the uniform-domain center),
        # rsd_verifiable and rsd_optimizing.
        _golden_case(
            ["dims", *_BICLIQUE_4_2, "--tau", "0.2"],
            "dims_biclique_4_2_tau0.2.json",
        ),
        _golden_case(
            ["dims", "--gen", "biclique", "--n", "4", "--k", "1", "--tau", "0.15"],
            "dims_biclique_4_1_tau0.15.json",
        ),
        _golden_case(
            ["dims", *_BICLIQUE_4_2, "--kind", "verifiable", "--tau", "0.2", "--eps", "0.1"],
            "dims_biclique_4_2_verifiable_tau0.2.json",
        ),
        _golden_case(
            ["solve", "--gen", "line", "--p", "5", "--tau", "0.2", "--trials", "20", "--seed", "1"],
            "solve_line_5_tau0.2.json",
        ),
        _golden_case(
            ["solve", *_BICLIQUE_4_2, "--kappa", "kv", "--tau", "0.15", "--trials", "3", "--seed", "4"],
            "solve_biclique_4_2_kv_tau0.15.json",
        ),
        _golden_case(
            ["solve", *_BICLIQUE_4_2, "--tau", "0.2", "--mode", "rand", "--delta", "0.1",
             "--trials", "3", "--seed", "1"],
            "solve_biclique_4_2_rand_tau0.2.json",
        ),
        _golden_case(
            ["solve", *_BICLIQUE_4_2, "--kind", "verifiable", "--tau", "0.2", "--theta", "0.3",
             "--trials", "10", "--seed", "2"],
            "solve_biclique_4_2_verifiable_theta0.3.json",
        ),
        _golden_case(
            ["solve", *_BICLIQUE_4_2, "--kind", "verifiable", "--tau", "0.2", "--eps", "0.2",
             "--trials", "5", "--seed", "2"],
            "solve_biclique_4_2_verifiable_eps0.2.json",
        ),
        _golden_case(
            ["solve", *_BICLIQUE_4_2, "--kind", "decision", "--tau", "0.2", "--delta", "0.1",
             "--trials", "10", "--seed", "5"],
            "solve_biclique_4_2_decision_tau0.2.json",
        ),
        # sampled answers: +-1 rows on line(7), off any dyadic grid, and the
        # real-valued LP witnesses of rand mode on biclique(4,2)
        _golden_case(
            ["solve", "--gen", "line", "--p", "7", "--tau", "0.2", "--strategy", "sampled",
             "--samples", "6451", "--trials", "20", "--seed", "1"],
            "solve_line_7_sampled_tau0.2.json",
        ),
        _golden_case(
            ["solve", *_BICLIQUE_4_2, "--tau", "0.2", "--mode", "rand", "--delta", "0.1",
             "--strategy", "sampled", "--samples", "2000", "--trials", "5", "--seed", "4"],
            "solve_biclique_4_2_rand_sampled_tau0.2.json",
        ),
        _golden_case(
            ["stream", "--gen", "biclique", "--n", "6", "--k", "2", "--tau", "0.2", "--delta", "0.1",
             "--trials", "20", "--seed", "7"],
            "stream_biclique_6_2_tau0.2.json",
        ),
        # the benchmark's two MW instances: search on line(11), whose
        # uniform mixture sums to exactly 1, and the stream on biclique(8,2)
        _golden_case(
            ["solve", "--gen", "line", "--p", "11", "--tau", "0.2", "--trials", "5", "--seed", "1"],
            "solve_line_11_tau0.2.json",
        ),
        _golden_case(
            ["stream", "--gen", "biclique", "--n", "8", "--k", "2", "--tau", "0.2", "--delta", "0.1",
             "--trials", "5", "--seed", "7"],
            "stream_biclique_8_2_tau0.2.json",
        ),
        # biclique(4,2) members are on a dyadic grid, biclique(6,2) members
        # are not: the two stream reports pin both ways of counting samples
        _golden_case(
            ["stream", *_BICLIQUE_4_2, "--tau", "0.2", "--delta", "0.1", "--trials", "20", "--seed", "7"],
            "stream_biclique_4_2_tau0.2.json",
        ),
    ],
)
def test_dims_reports_are_byte_identical_to_golden(argv, golden, capsys):
    """Seeded CLI reports must not move. The dims reports pass through
    the simplex kernel (the max-margin LPs, both cover LPs and the KV crsd
    game LP) and the K1 crsd bracket, so a changed pivot sequence or a
    changed floating-point operation shows up there; the solve and stream reports
    pin every solver's trajectory (search in both modes and both scales,
    verifiable with solved and stuck runs, optimizing, decision and the
    streaming solver)."""
    from sqlab.cli import main

    assert main(argv) == 0
    assert capsys.readouterr().out == (_GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "argv,golden",
    [
        _golden_case(
            ["solve", "--gen", "line", "--p", "7", "--tau", "0.2", "--trials", "20", "--seed", "1"],
            "solve_line_7_tau0.2.csv",
        ),
        _golden_case(
            ["stream", "--gen", "line", "--p", "5", "--tau", "0.2", "--delta", "0.1",
             "--trials", "20", "--seed", "3"],
            "stream_line_5_tau0.2.csv",
        ),
    ],
)
def test_csv_reports_are_byte_identical_to_golden(argv, golden, tmp_path):
    """The per-trial rows of ``--out X.csv``: the column order, the CRLF line
    endings, the quoting and the cell formats, byte for byte."""
    from sqlab.cli import main

    path = tmp_path / golden
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == (_GOLDEN / golden).read_bytes()
