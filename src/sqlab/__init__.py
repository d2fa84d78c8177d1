"""sqlab: a laboratory for statistical-query algorithms over finite domains.

Explicit finite distributions, the four oracle types (STAT, VSTAT, VROOT,
ONE_STAT) with adversarial answer strategies, discrimination norms and
their certificates, zero-sum-game and covering LPs, statistical dimensions,
multiplicative-weights solvers, problem-family generators, and a streaming
variant with bit-level memory accounting.
"""

from .core import (
    DECISION,
    K1,
    KV,
    SEARCH,
    SIGNED,
    UNIT,
    VERIFIABLE,
    FiniteDomain,
    FiniteDistribution,
    Measure,
    ProblemSpec,
    QueryFn,
    bayes_error,
    kl_divergence,
    likelihood_hat,
    mixture,
    pac_lift,
)
from .errors import (
    DomainMismatchError,
    GuardExceededError,
    InfeasibleError,
    NumericalError,
    OracleMismatchError,
    SqlabError,
    StreamExhaustedError,
    SupportError,
    TheoremViolationError,
    UnboundedError,
    UncoverableError,
)
from .oracles import (
    ONE_STAT,
    STAT,
    VROOT,
    VSTAT,
    AnswerStrategy,
    OracleSession,
    OracleSpec,
    Transcript,
    bridge_pair,
    bridge_value,
    edge_answers,
    exact_answers,
    one_stat,
    one_stat_spec,
    reference_answers,
    sampled_answers,
    stat,
    tolerance,
    validate,
    vroot,
    vstat,
)
from .games import (
    CoverFamily,
    CoverResult,
    GameResult,
    LPResult,
    MarginResult,
    achievable_subsets,
    exact_min_cover,
    fractional_cover,
    greedy_cover,
    lp_solve,
    max_margin,
    verify_cover_family,
    zero_sum,
)
from .norms import (
    EXACT,
    LOWER_BOUND,
    UPPER_BOUND,
    NormReport,
    kappa1_frac,
    kbar1,
    kbar2,
    kbar2_spectral,
    kbarv,
    rho,
)
from .dimension import (
    DimensionReport,
    combined_relation_audit,
    crsd,
    det_cover,
    rand_to_det,
    rsd_decision,
    rsd_optimizing,
    rsd_search,
    rsd_verifiable,
    sd_decision,
    simple_lower_bound,
)
from .solvers import (
    MWState,
    RunReport,
    average_regret,
    learn_with_heavy_points,
    margin_cover,
    decision_cover,
    solve_decision_sampled,
    solve_optimizing,
    solve_search_universal,
    solve_verifiable,
    update_budget,
)
from .problems import (
    biclique,
    biclique_conj_value,
    biclique_parity_value,
    conj_query,
    line_audit,
    line_closed_forms,
    line_labels,
    line_marginal,
    line_problem,
    parity_query,
)
from .streaming import SampleStream, replay_weights, stream_requirements, stream_solve

__version__ = "0.1.0"
