"""Multiplicative-weights solvers: regret, universal search, decision,
verification, threshold optimization, and the heavy-point learner."""

import math

import numpy as np
import pytest

from sqlab import (
    FiniteDistribution,
    FiniteDomain,
    K1,
    KV,
    ProblemSpec,
    QueryFn,
    SEARCH,
    VERIFIABLE,
    average_regret,
    biclique,
    decision_cover,
    learn_with_heavy_points,
    margin_cover,
    mixture,
    pac_lift,
    solve_decision_sampled,
    solve_optimizing,
    solve_search_universal,
    solve_verifiable,
    update_budget,
)
from sqlab.core import DECISION
from sqlab.oracles import (
    OracleSession,
    edge_answers,
    exact_answers,
    reference_answers,
    sampled_answers,
    stat,
    vroot,
)
from sqlab.solvers import MWState, _first_trigger


# ---------------------------------------------------------------------------
# shared instances
# ---------------------------------------------------------------------------


DOM = FiniteDomain(("x", "y", "z"))
D1 = FiniteDistribution(DOM, (0.7, 0.2, 0.1))
D2 = FiniteDistribution(DOM, (0.1, 0.2, 0.7))
D3 = FiniteDistribution(DOM, (0.1, 0.8, 0.1))
D0 = FiniteDistribution.uniform(DOM)


def search_problem():
    return ProblemSpec(
        kind=SEARCH,
        domain=DOM,
        dists=(D1, D2, D3),
        solutions=("a", "b", "c"),
        validity=np.eye(3, dtype=bool),
    )


def decision_problem():
    return ProblemSpec(
        kind=DECISION,
        domain=DOM,
        dists=(D1, D2, D3),
        solutions=("not-reference",),
        validity=np.ones((1, 3), dtype=bool),
        reference=D0,
    )


def verifiable_problem(threshold=0.3):
    verify = {
        "a": QueryFn.indicator(DOM, ["x"]),
        "b": QueryFn.indicator(DOM, ["z"]),
        "c": QueryFn.indicator(DOM, ["y"]),
    }
    return ProblemSpec.with_threshold_validity(
        kind=VERIFIABLE,
        domain=DOM,
        dists=(D1, D2, D3),
        solutions=("a", "b", "c"),
        verify=verify,
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# multiplicative weights
# ---------------------------------------------------------------------------


def test_mw_hand_step():
    state = MWState.start([0.5, 0.5], gamma=0.5)
    stepped = state.update([1.0, -1.0])
    assert np.allclose(stepped.weights, [0.25, 0.75])
    # start() normalizes raw weights
    assert np.allclose(MWState.start([1.0, 1.0], 0.5).weights, [0.5, 0.5])


def test_mw_parameter_validation():
    with pytest.raises(ValueError):
        MWState.start([0.5, 0.5], gamma=1.0)
    with pytest.raises(ValueError):
        MWState.start([0.5, 0.5], gamma=0.0)
    with pytest.raises(ValueError):
        MWState.start([0.5, 0.5], gamma=0.5).update([2.0, 0.0])


def test_mw_alternating_regret_frozen():
    gamma, steps = 0.1, 300
    state = MWState.start(np.ones(2), gamma)
    history, losses = [], []
    for t in range(steps):
        z = np.array([1.0, -1.0]) if t % 2 == 0 else np.array([-1.0, 1.0])
        history.append(state.weights)
        losses.append(z)
        state = state.update(z)
    regret = average_regret(history, losses)
    # the alternating adversary drives the regret to exactly gamma/2
    assert regret == pytest.approx(0.05, abs=1e-12)
    assert regret <= gamma


@pytest.mark.parametrize("seed,m,gamma", [(0, 4, 0.2), (1, 9, 0.35), (2, 16, 0.12)])
def test_mw_regret_bound_on_random_losses(seed, m, gamma):
    rng = np.random.default_rng(seed)
    steps = math.ceil(4.0 * math.log(m) / gamma**2)
    state = MWState.start(np.ones(m), gamma)
    history, losses = [], []
    for _ in range(steps):
        z = rng.uniform(-1.0, 1.0, size=m)
        history.append(state.weights)
        losses.append(z)
        state = state.update(z)
    assert average_regret(history, losses) <= gamma


def test_mw_update_matches_the_checked_constructor():
    """The successor an update builds is the one the public constructor
    would build from the renormalized weights, bit for bit and read-only."""
    rng = np.random.default_rng(3)
    state = MWState.start(rng.random(7), gamma=0.3)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, size=7)
        w = state.weights * (1.0 - state.gamma * z)
        checked = MWState(weights=w / w.sum(), gamma=state.gamma, step=state.step + 1)
        state = state.update(z)
        assert state.weights.tobytes() == checked.weights.tobytes()
        assert (state.gamma, state.step) == (checked.gamma, checked.step)
        assert not state.weights.flags.writeable


def test_mw_update_keeps_its_checks():
    state = MWState.start([0.5, 0.5], gamma=0.5)
    with pytest.raises(ValueError):
        state.update([1.0, 0.0, 0.0])  # shape
    with pytest.raises(ValueError):
        state.update([1.0 + 1e-9, 0.0])  # range
    # a weight that underflows to 0 breaks positivity
    tiny = MWState(weights=np.array([5e-324, 1.0]), gamma=0.5)
    with pytest.raises(ValueError):
        tiny.update([1.0, -1.0])


def test_update_budget_values():
    assert update_budget(math.log(3), 0.2, K1) == 989
    assert update_budget(math.log(3), 0.2, KV) == 222469
    with pytest.raises(ValueError):
        update_budget(1.0, 0.2, "bogus")


# ---------------------------------------------------------------------------
# the margin cover oracle
# ---------------------------------------------------------------------------


def test_margin_cover_at_uniform_mixture():
    prob = search_problem()
    oracle = margin_cover(prob, tau=0.2)
    t = mixture([D1, D2, D3]).weights
    step = oracle(t)
    # every member is 0.8 away from the mixture, so nothing is close and the
    # first solution is proposed; its two unserved members get witnesses
    assert step.solution_index == 0
    assert step.targets == (1, 2)
    assert step.unservable == ()
    for i, phi in zip(step.targets, step.queries):
        gap = abs(float((prob.dists[i].weights - t) @ phi))
        assert gap > 0.2


@pytest.mark.parametrize("kappa", [K1, KV])
@pytest.mark.parametrize("randomized", [False, True])
def test_margin_cover_without_far_members_gives_an_empty_block(kappa, randomized):
    # at radius 2 every member is close, so no witness is needed; no
    # solution serves all three, so the best-overlap proposal leaves two
    prob = search_problem()
    step = margin_cover(prob, tau=2.0, kappa=kappa, randomized=randomized)(
        mixture([D1, D2, D3]).weights
    )
    assert step.queries.shape == (0, len(prob.domain))
    assert step.targets == ()
    assert step.unservable == (1, 2)


def test_k1_witnesses_match_the_per_member_rule():
    """The vectorized margins and signs equal the one-member-at-a-time
    rule: |d - t|_1 and sign(d - t) with ties (d == t) signed +1."""
    from sqlab.solvers import _k1_witnesses

    rng = np.random.default_rng(3)
    dist_mat = rng.dirichlet(np.ones(9), size=6)
    t = rng.dirichlet(np.ones(9))
    dist_mat[2] = t  # an exact tie on every element
    dist_mat[4, :3] = t[:3]
    gaps, witness_rows = _k1_witnesses(dist_mat, t)
    rows = [0, 2, 4, 5]
    block = witness_rows(rows)
    assert block.shape == (4, 9)
    for j, i in enumerate(rows):
        diff = dist_mat[i] - t
        assert gaps[i] == np.abs(diff).sum()
        assert np.array_equal(block[j], np.where(diff >= 0, 1.0, -1.0))
    assert gaps[2] == 0.0 and np.all(block[1] == 1.0)
    assert witness_rows([]).shape == (0, 9)


def test_margin_cover_randomized_mode():
    prob = search_problem()
    oracle = margin_cover(prob, tau=0.2, randomized=True)
    step = oracle(mixture([D1, D2, D3]).weights)
    assert step.solution_index == 0
    assert step.d >= 1.0
    assert step.query_measure.sum() == pytest.approx(1.0)
    # each target group lists real distribution indices
    for group in step.targets:
        assert set(group) <= {0, 1, 2}


# ---------------------------------------------------------------------------
# universal search
# ---------------------------------------------------------------------------


def test_universal_search_exact_oracle_frozen_run():
    prob = search_problem()
    session = OracleSession(stat(0.2 / 3.0), exact_answers(), D2, np.random.default_rng(0))
    rep = solve_search_universal(prob, 0.2, session, kappa=K1)
    assert rep.outcome == "solved"
    assert rep.solution == "b"
    assert rep.queries == 12
    assert rep.updates == 10
    assert rep.updates <= update_budget(math.log(3), 0.2, K1)
    assert rep.valid_answer_fraction == 1.0
    assert not rep.theorem_violation


def test_universal_search_solves_every_member():
    prob = search_problem()
    for i, (true, expect) in enumerate(zip((D1, D2, D3), ("a", "b", "c"))):
        session = OracleSession(stat(0.2 / 3.0), exact_answers(), true, np.random.default_rng(i))
        rep = solve_search_universal(prob, 0.2, session, kappa=K1)
        assert rep.outcome == "solved"
        assert rep.solution == expect


def test_universal_search_randomized_mode():
    prob = search_problem()
    session = OracleSession(stat(0.2 / 3.0), exact_answers(), D1, np.random.default_rng(1))
    rep = solve_search_universal(
        prob, 0.2, session, mode="rand", delta=0.1, rng=np.random.default_rng(2)
    )
    assert rep.outcome == "solved"
    assert rep.solution == "a"
    # reproducible under the same seeds
    session2 = OracleSession(stat(0.2 / 3.0), exact_answers(), D1, np.random.default_rng(1))
    rep2 = solve_search_universal(
        prob, 0.2, session2, mode="rand", delta=0.1, rng=np.random.default_rng(2)
    )
    assert rep2.solution == rep.solution and rep2.queries == rep.queries


def test_universal_search_sqrt_scale():
    prob = search_problem()
    session = OracleSession(vroot(0.15 / 3.0), exact_answers(), D3, np.random.default_rng(3))
    rep = solve_search_universal(prob, 0.15, session, kappa=KV)
    assert rep.outcome == "solved"
    assert rep.solution == "c"
    assert rep.updates <= update_budget(math.log(3), 0.15, KV)


def test_universal_search_edge_adversary_terminates_correctly():
    """Boundary-valid answers cannot break the solver: all answers are valid,
    so it must finish inside the budget with an acceptable output."""
    prob = search_problem()
    for direction in (+1, -1):
        session = OracleSession(stat(0.2 / 3.0), edge_answers(direction), D2,
                                np.random.default_rng(4))
        rep = solve_search_universal(prob, 0.2, session, kappa=K1)
        assert rep.valid_answer_fraction == 1.0
        assert rep.outcome == "solved"
        assert rep.solution == "b"
        assert not rep.theorem_violation


class _RecordingSession(OracleSession):
    """OracleSession that keeps the value vector of each query it answers.

    A row of a block counts only once its answer is consumed: the rows a
    scan never reaches were not asked and are not recorded.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.vectors = []

    def scan(self, block, stop=None):
        j, answers = super().scan(block, stop)
        rows = [q.values if isinstance(q, QueryFn) else np.asarray(q, dtype=float) for q in block]
        self.vectors += [np.array(vals) for vals in rows[: len(answers)]]
        return j, answers


def _first_trigger_per_row(t_vec, block, session, kappa, tau):
    """The trigger rule asked one row at a time, with the gap in ``math``."""
    expected = block @ t_vec
    for j, q in enumerate(block):
        v = session.query(q)
        e = float(expected[j])
        if kappa == K1:
            gap = abs(e - v)
        else:
            gap = abs(math.sqrt(max(e, 0.0)) - math.sqrt(max(v, 0.0)))
        if gap > 2.0 * tau / 3.0:
            return j, (1.0 if e > v else -1.0)
    return None


@pytest.mark.parametrize("kappa", [K1, KV])
@pytest.mark.parametrize("mode", ["exact", "sampled", "edge+1", "edge-1"])
def test_first_trigger_scan_matches_the_per_row_rule(kappa, mode):
    """``_first_trigger`` over ``OracleSession.scan`` finds the row, the
    sign and the recorded transcript of the scalar per-row rule."""
    prob = biclique(4, 2)
    tau = 0.2
    spec = stat(tau / 3.0) if kappa == K1 else vroot(tau / 3.0)
    strategy = {
        "exact": exact_answers(),
        "sampled": sampled_answers(60),
        "edge+1": edge_answers(+1),
        "edge-1": edge_answers(-1),
    }[mode]
    rng = np.random.default_rng(8)
    for trial in range(12):
        # mixtures from the true member itself to a random point,
        # so that scans stop early, late and never
        truth = prob.dists[trial % prob.n_dists]
        lam = trial / 11.0
        t_vec = (1.0 - lam) * truth.weights + lam * rng.dirichlet(np.ones(len(prob.domain)))
        block = (rng.random((9, len(prob.domain))) < 0.5).astype(float)
        if kappa == K1:
            block = 2.0 * block - 1.0
        one = OracleSession(spec, strategy, truth, np.random.default_rng(trial))
        twin = OracleSession(spec, strategy, truth, np.random.default_rng(trial))
        assert _first_trigger(t_vec, block, one.scan, kappa, tau) == _first_trigger_per_row(
            t_vec, block, twin, kappa, tau
        )
        assert one.transcript.entries == twin.transcript.entries
        assert one.samples_used == twin.samples_used


def test_universal_search_reference_adversary_transcript_property():
    """If the oracle answers from the reference D0 and the solver still
    outputs f, the transcript must contain, for every distribution f does
    not serve, a query separating it from D0 by more than tau/3.

    (Those dists keep margin > tau from the final mixture while the mixture
    tracks answers to within 2 tau/3 — the triangle inequality leaves tau/3.)
    """
    prob = search_problem()
    tau = 0.2
    session = _RecordingSession(stat(tau / 3.0), reference_answers(D0), D1,
                                np.random.default_rng(0))
    rep = solve_search_universal(prob, tau, session, kappa=K1)
    assert rep.outcome == "solved"
    f_idx = prob.solutions.index(rep.solution)
    served = set(prob.solved_dist_indices(f_idx))
    for i, d in enumerate(prob.dists):
        if i in served:
            continue
        best = max(abs(float((d.weights - D0.weights) @ v)) for v in session.vectors)
        assert best > tau / 3.0, f"far dist {i} never separated from the reference"


def test_universal_search_session_validation():
    prob = search_problem()
    with pytest.raises(ValueError):
        solve_search_universal(prob, 0.2, OracleSession(vroot(0.05), exact_answers(), D1),
                               kappa=K1)
    with pytest.raises(ValueError):
        solve_search_universal(prob, 0.2, OracleSession(stat(0.1), exact_answers(), D1),
                               kappa=K1)  # tolerance looser than tau/3
    with pytest.raises(ValueError):
        solve_search_universal(prob, 0.2, OracleSession(stat(0.2 / 3), exact_answers(), D1),
                               mode="rand")  # rand needs delta and rng


def _kl_for_budget(budget, tau):
    """A KL bound whose K1 update budget ceil(36 KL / tau^2) is ``budget``."""
    return (budget - 0.5) * tau**2 / 36.0


@pytest.mark.parametrize("budget,outcome", [(3, "solved"), (2, "budget_exceeded")])
def test_universal_search_budget_rule(budget, outcome):
    """biclique(4,2) member 0 needs exactly 3 updates: a budget of 3 lets the
    confirming step run and solve; with 2, the third trigger ends the run
    unapplied, and on exact answers that contradicts the theorem."""
    prob = biclique(4, 2)
    tau = 0.2
    session = OracleSession(stat(tau / 3.0), exact_answers(), prob.dists[0], np.random.default_rng(0))
    rep = solve_search_universal(prob, tau, session, kl_bound=_kl_for_budget(budget, tau))
    assert update_budget(_kl_for_budget(budget, tau), tau) == budget
    assert (rep.outcome, rep.updates) == (outcome, budget)
    assert rep.queries == (20 if outcome == "solved" else 15)
    assert rep.theorem_violation == (outcome == "budget_exceeded")
    assert rep.details == ({} if outcome == "solved" else {"budget": budget})
    if outcome == "solved":
        assert rep.solution == prob.solutions[0]


# ---------------------------------------------------------------------------
# decision
# ---------------------------------------------------------------------------


def test_decision_solver_exact_answers_both_verdicts():
    prob = decision_problem()
    session = OracleSession(stat(0.1), exact_answers(), D2, np.random.default_rng(5))
    rep = solve_decision_sampled(prob, 0.2, 0.1, session, np.random.default_rng(6))
    assert rep.solution == "not-reference"
    assert rep.details["witness_budget"] == 3
    session = OracleSession(stat(0.1), exact_answers(), D0, np.random.default_rng(7))
    rep0 = solve_decision_sampled(prob, 0.2, 0.1, session, np.random.default_rng(8))
    # exact answers at the reference can never trip a witness
    assert rep0.solution == "reference"


def test_decision_solver_precomputed_cover_is_equivalent():
    prob = decision_problem()
    cover = decision_cover(prob, 0.2)
    for seed in range(6):
        s1 = OracleSession(stat(0.1), exact_answers(), D3, np.random.default_rng(seed))
        r1 = solve_decision_sampled(prob, 0.2, 0.1, s1, np.random.default_rng(seed + 100))
        s2 = OracleSession(stat(0.1), exact_answers(), D3, np.random.default_rng(seed))
        r2 = solve_decision_sampled(prob, 0.2, 0.1, s2, np.random.default_rng(seed + 100),
                                    cover=cover)
        assert r1.solution == r2.solution
        assert r1.queries == r2.queries


def test_decision_solver_family_detection_rate():
    """With exact answers the only failure mode is the cover sample missing
    the true member, which happens with probability at most delta."""
    from sqlab import biclique

    prob = biclique(4, 2, kind="decision")
    cover = decision_cover(prob, 0.2)
    hits = 0
    trials = 40
    for t in range(trials):
        rng = np.random.default_rng([42, t])
        true = prob.dists[int(rng.integers(prob.n_dists))]
        session = OracleSession(stat(0.1), exact_answers(), true, rng)
        rep = solve_decision_sampled(prob, 0.2, 0.1, session, rng, cover=cover)
        hits += rep.solution == "not-reference"
    # expectation >= 0.9; 31/40 sits 2.6 sigma below it
    assert hits >= 31


def test_decision_solver_validation():
    prob = decision_problem()
    with pytest.raises(ValueError):
        solve_decision_sampled(prob, 0.2, 0.1,
                               OracleSession(stat(0.2), exact_answers(), D1),
                               np.random.default_rng(0))  # oracle looser than tau/2
    with pytest.raises(ValueError):
        solve_decision_sampled(prob, 0.2, 1.5,
                               OracleSession(stat(0.1), exact_answers(), D1),
                               np.random.default_rng(0))
    with pytest.raises(ValueError):
        solve_decision_sampled(search_problem(), 0.2, 0.1,
                               OracleSession(stat(0.1), exact_answers(), D1),
                               np.random.default_rng(0))  # no reference


# ---------------------------------------------------------------------------
# verifiable search
# ---------------------------------------------------------------------------


def test_verifiable_accepts_a_certified_solution():
    prob = verifiable_problem(threshold=0.3)
    session = OracleSession(stat(0.1), exact_answers(), D1, np.random.default_rng(9))
    rep = solve_verifiable(prob, theta=0.3, tau=0.3, session=session)
    assert rep.outcome == "solved"
    assert rep.solution == "b"
    # acceptance certifies D[phi_f] <= theta + tau on valid answers
    certified = float(D1.weights @ prob.verify[rep.solution].values)
    assert certified <= 0.3 + 0.3 + 1e-12
    assert not rep.theorem_violation


def test_verifiable_stuck_is_legal():
    """A theta too small for the instance leaves the solver stuck: no
    candidate passes the threshold and no witness triggers an update. That
    is a legal outcome (the instance is not verifiably well-posed at this
    radius), not a theorem violation."""
    prob = verifiable_problem(threshold=0.15)
    session = OracleSession(stat(0.1), exact_answers(), D1, np.random.default_rng(9))
    rep = solve_verifiable(prob, theta=0.15, tau=0.3, session=session)
    assert rep.outcome == "stuck"
    assert rep.solution is None
    assert not rep.theorem_violation
    assert rep.valid_answer_fraction == 1.0


@pytest.mark.parametrize("budget,outcome", [(7, "solved"), (6, "budget_exceeded")])
def test_verifiable_budget_rule(budget, outcome):
    """Member 3 of verifiable biclique(4,2) is accepted after exactly 7
    updates; one fewer allowed update turns the run into a theorem
    violation (unlike ``stuck``, which is legal)."""
    prob = biclique(4, 2, kind=VERIFIABLE)
    tau = 0.2
    session = OracleSession(stat(tau / 3.0), exact_answers(), prob.dists[3], np.random.default_rng(0))
    rep = solve_verifiable(prob, 0.3, tau, session, kl_bound=_kl_for_budget(budget, tau))
    assert (rep.outcome, rep.updates) == (outcome, budget)
    assert rep.theorem_violation == (outcome == "budget_exceeded")
    if outcome == "solved":
        assert rep.details == {"theta": 0.3}
    else:
        assert rep.solution is None
        assert rep.details == {"budget": budget, "theta": 0.3}


def test_verifiable_requires_verify_queries():
    with pytest.raises(ValueError):
        solve_verifiable(search_problem(), theta=0.3, tau=0.3,
                         session=OracleSession(stat(0.1), exact_answers(), D1))


# ---------------------------------------------------------------------------
# threshold optimization
# ---------------------------------------------------------------------------


def _optimizing_problem():
    dom = FiniteDomain((0, 1))
    dx = FiniteDistribution(dom, (0.5, 0.5))
    verify = {"p": QueryFn.indicator(dom, [0]), "q": QueryFn.indicator(dom, [1])}
    return ProblemSpec.with_threshold_validity(
        kind=VERIFIABLE, domain=dom, dists=(dx,), solutions=("p", "q"),
        verify=verify, threshold=0.6,
    ), dx


def test_optimizing_probe_count_and_value():
    prob, dx = _optimizing_problem()
    tau = 0.5
    session = OracleSession(stat(tau / 4.0), exact_answers(), dx, np.random.default_rng(10))
    rep = solve_optimizing(prob, eps=0.5, tau=tau, session=session)
    assert rep.outcome == "solved"
    # both solutions measure exactly 0.5; the binary search homes in on it
    assert rep.details["theta_hat"] == pytest.approx(0.5, abs=tau)
    assert rep.details["probes"] == math.ceil(math.log2(4.0 / tau))
    certified = float(dx.weights @ prob.verify[rep.solution].values)
    assert certified <= rep.details["theta_hat"] + tau + 1e-12


def test_optimizing_session_validation():
    prob, dx = _optimizing_problem()
    with pytest.raises(ValueError):
        solve_optimizing(prob, eps=0.5, tau=0.5,
                         session=OracleSession(stat(0.2), exact_answers(), dx))


# ---------------------------------------------------------------------------
# the heavy-point learner
# ---------------------------------------------------------------------------


def _grid_marginal_and_target(p):
    base = FiniteDomain(tuple((z1, z2) for z1 in range(p) for z2 in range(p)))
    marginal = FiniteDistribution.uniform(base)
    target = {(z1, z2): (1 if z2 == z1 else -1) for z1 in range(p) for z2 in range(p)}
    return base, marginal, target


def test_learner_all_points_heavy():
    base, marginal, target = _grid_marginal_and_target(3)
    joint = pac_lift(marginal, target)
    eps = 0.3
    session = OracleSession(stat(eps**2 / 13.0), exact_answers(), joint,
                            np.random.default_rng(11))
    rep = learn_with_heavy_points(marginal, [], eps, session)
    assert rep.outcome == "solved"
    labels, via = rep.solution
    assert via is None
    true_labels = np.array([target[e] for e in base.elements], dtype=float)
    error = float(np.sum(marginal.weights[labels != true_labels]))
    assert error == 0.0
    # 9 heavy point queries plus the disagreement check
    assert rep.queries == 10
    assert rep.queries <= 12 / eps**2 + 2 / eps + 2


def test_learner_candidate_branch():
    """Light positive mass forces the concept-candidate path: 23 on-line
    points at 0.02 sit just under the heavy cutoff eps^2/12, ten off-line
    points at 0.054 are heavy. Only the true line carries enough positive
    mass outside the heavy set to qualify as a candidate."""
    p, eps = 23, 0.5
    base = FiniteDomain(tuple((z1, z2) for z1 in range(p) for z2 in range(p)))
    on_line = [(z1, z1) for z1 in range(p)]                  # the line z2 = z1
    off_heavy = [(z1, (z1 + 1) % p) for z1 in range(10)]     # off-line, heavy
    weights = np.zeros(len(base))
    for z in on_line:
        weights[base.index_of(z)] = 0.02
    for z in off_heavy:
        weights[base.index_of(z)] = 0.054
    marginal = FiniteDistribution(base, weights)
    assert 0.02 < eps**2 / 12.0 < 0.054

    def line_labels(a1, a2):
        return np.array(
            [1.0 if (a1 * z1 + a2) % p == z2 else -1.0 for (z1, z2) in base.elements]
        )

    target = {e: (1 if (e[0] % p) == e[1] else -1) for e in base.elements}
    joint = pac_lift(marginal, target)
    concepts = [((a1, a2), line_labels(a1, a2))
                for a1, a2 in [(2, 3), (0, 5), (1, 0), (1, 1), (4, 4)]]
    session = OracleSession(stat(eps**2 / 13.0), exact_answers(), joint,
                            np.random.default_rng(12))
    rep = learn_with_heavy_points(marginal, concepts, eps, session)
    assert rep.outcome == "solved"
    labels, via = rep.solution
    assert via == (1, 0)
    assert rep.details["candidates"] == 1
    true_labels = np.array([target[e] for e in base.elements], dtype=float)
    error = float(np.sum(marginal.weights[labels != true_labels]))
    assert error == 0.0
    # 10 heavy queries + the first disagreement + one candidate check
    assert rep.queries == 12
    assert rep.queries <= 12 / eps**2 + 2 / eps + 2


def test_learner_trivial_eps():
    base, marginal, target = _grid_marginal_and_target(2)
    joint = pac_lift(marginal, target)
    session = OracleSession(stat(0.05), exact_answers(), joint, np.random.default_rng(0))
    rep = learn_with_heavy_points(marginal, [], 1.0, session)
    labels, via = rep.solution
    assert rep.queries == 0
    assert np.all(labels == -1.0)


def test_learner_stuck_without_candidates():
    """High residual error and no qualifying concept: the learner reports
    stuck, and — answers all being valid — flags the broken precondition."""
    p, eps = 23, 0.5
    base = FiniteDomain(tuple((z1, z2) for z1 in range(p) for z2 in range(p)))
    on_line = [(z1, z1) for z1 in range(p)]
    off_heavy = [(z1, (z1 + 1) % p) for z1 in range(10)]
    weights = np.zeros(len(base))
    for z in on_line:
        weights[base.index_of(z)] = 0.02
    for z in off_heavy:
        weights[base.index_of(z)] = 0.054
    marginal = FiniteDistribution(base, weights)
    target = {e: (1 if (e[0] % p) == e[1] else -1) for e in base.elements}
    joint = pac_lift(marginal, target)
    session = OracleSession(stat(eps**2 / 13.0), exact_answers(), joint,
                            np.random.default_rng(13))
    rep = learn_with_heavy_points(marginal, [], eps, session)
    assert rep.outcome == "stuck"
    assert rep.theorem_violation


def test_learner_tolerance_validation():
    base, marginal, target = _grid_marginal_and_target(2)
    joint = pac_lift(marginal, target)
    session = OracleSession(stat(0.1), exact_answers(), joint, np.random.default_rng(0))
    with pytest.raises(ValueError):
        learn_with_heavy_points(marginal, [], 0.3, session)  # 0.1 > eps^2/13


# ---------------------------------------------------------------------------
# run report payloads
# ---------------------------------------------------------------------------


def test_run_report_payload():
    prob = search_problem()
    session = OracleSession(stat(0.2 / 3.0), exact_answers(), D2, np.random.default_rng(0))
    rep = solve_search_universal(prob, 0.2, session, kappa=K1)
    payload = rep.payload(seed=7)
    assert payload["seed"] == 7
    assert payload["outcome"] == "solved"
    assert payload["queries"] == rep.queries
    assert payload["theorem_violation"] is False
