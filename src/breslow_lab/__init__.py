"""Proportional hazards numerics: partial likelihood fitting, the baseline
cumulative hazard estimator, its influence-function linearization, and a
seeded Monte Carlo lab that measures the convergence rates involved."""

from .breslow import (
    BaselineCumHazEstimate,
    PluginACurve,
    a_n_curve,
    breslow_plugin,
    breslow_traditional,
)
from .coxfit import (
    STATUS_CONVERGED,
    STATUS_MAX_ITERATIONS,
    STATUS_SEPARATION,
    STATUS_SINGULAR,
    CoxFit,
    fit_mple,
    log_partial_likelihood,
    score_and_information,
    score_residuals,
)
from .data import (
    DataError,
    SurvivalDataset,
    load_csv,
    save_csv,
    validate_dataset,
)
from .experiments import (
    ExperimentValidityError,
    RateExperimentResult,
    coupling_remainder_experiment,
    fit_loglog_slope,
    linearization_remainder_experiment,
    parse_config,
    replication_seed,
    risk_deviation_experiment,
)
from .linearize import (
    DecompositionReport,
    InfluenceMatrix,
    VarianceCurves,
    default_m_plugin,
    remainder_decomposition,
    variance_estimate,
    xi_plugin,
    xi_truth,
    xi_truth_mean,
)
from .quadrature import PanelAntiderivative, QuadratureError
from .risk import (
    EXP_OVERFLOW,
    ExpOverflowError,
    RiskAggregates,
    build_aggregates,
    d1_n,
    d2_n,
    phi_n,
)
from .stepfun import StepCurve
from .truth import (
    BaselineHazard,
    CovariateLaw,
    Discrete,
    Product,
    TruncatedNormal,
    TruthModel,
    bernoulli,
    constant_hazard,
    generate_dataset,
    no_covariate_truth,
    reference_truth,
    weibull_hazard,
)

__version__ = "0.1.0"
