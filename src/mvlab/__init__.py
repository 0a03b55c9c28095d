"""mvlab: stochastic-dominance rules, the mean-variance criterion, and
Monte Carlo agreement experiments between the two."""

__version__ = "0.1.0"

from .distributions import (
    Family,
    FamilyParams,
    GEVParams,
    LaplaceParams,
    MomentSummary,
    MomentTarget,
    NormalParams,
    SkewNormalParams,
    StableParams,
    gls_coefficients,
    moments,
    population_moments,
    sample,
    solve_params_for_moments,
)
from .dominance import (
    DiscreteLottery,
    DominanceVerdict,
    EmpiricalDistribution,
    Order,
    Relation,
    ecdf,
    fsd_test,
    load_lottery,
    mvc_test,
    necessary_screen,
    quadratic_dominance_test,
    satisfies_mv,
    ssd_test,
    tsd_test,
)
from .empirical import (
    DecileAssignment,
    ReturnsTable,
    build_deciles,
    cross_decile_analysis,
    load_returns,
)
from .errors import (
    DomainError,
    GenerationError,
    InfeasibleTargetError,
    IngestionError,
    MvlabError,
    ParameterError,
    UnsupportedFamilyError,
    UsageError,
)
from .rng import spawn_rng
from .simulation import (
    PairOutcome,
    ScenarioReport,
    ScenarioSpec,
    correlation_study,
    default_scenarios,
    evaluate_pair,
    generate_mv_pair,
    load_scenario_config,
    pair_results,
    run_scenario,
    run_scenarios,
    scenario_config_text,
)
from .utilities import (
    Expansion,
    QuadraticApprox,
    UtilityFamily,
    UtilitySpec,
    approx_table,
    ara,
    clamped_utility,
    expected_quadratic,
    expected_utility,
    over_clamp_budget,
    panel_expected_utility,
    sample_expected_utility,
    table6_panel,
    taylor2,
    utility_derivatives,
    utility_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
