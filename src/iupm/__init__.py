"""IUPM estimation from limiting dilution assays with deep viral sequencing.

Data from a serial limiting dilution assay (wells positive/negative at known
cell inputs), optionally augmented with per-well lineage detections from deep
sequencing of a subset of positive wells, determines the concentration of
infected cells per million.  This package provides maximum-likelihood and
bias-corrected estimators with Wald inference, an overdispersed alternative
with a boundary likelihood-ratio test, an imperfect-assay extension working
on per-well data, and a reproducible Monte Carlo study harness.
"""

from .assay import (
    AssayDataError,
    DilutionLevelData,
    ErrorRates,
    MultiDilutionAssay,
    ValidationReport,
    WellAssay,
    WellRecord,
    parse_assay,
    parse_summary_json,
    parse_wells_csv,
    restrict_to_detected,
    summarize_well_assay,
    summarize_wells,
    to_summary_json,
    validate,
    wells_to_csv,
)
from .bias import (
    BiasComponents,
    a_matrices,
    bias_correct,
    bias_term,
    fit_bc_mle,
    third_derivative_expectations,
)
from .imperfect import (
    ImperfectFitError,
    ImperfectModel,
    fit_imperfect,
    imperfect_gradient,
    imperfect_log_likelihood,
    well_joint_prob,
    well_marginal_prob,
)
from .inference import (
    FisherInfo,
    FitResult,
    SingularInformationError,
    covariance,
    expected_m,
    expected_y,
    fisher_information,
    fisher_information_multi,
    fit_mle,
    multi_gradient,
    multi_log_likelihood,
    observed_information,
    wald_ci,
)
from .negbin import (
    IdentifiabilityError,
    LrtResult,
    NBFit,
    fit_negbin,
    lrt_from_loglik,
    lrt_overdispersion,
    nb_log_likelihood,
    nb_zero_prob,
)
from .optimize import OptOptions, OptResult, maximize, maximize_box
from .poisson import (
    ExtremeOutcome,
    classify_extreme,
    closed_form_full_udsa,
    closed_form_no_udsa,
    gradient,
    hessian,
    log_likelihood,
)
from .simulate import (
    BC_MLE_WITH_UDSA,
    BC_MLE_WITHOUT_UDSA,
    IMPERFECT_MLE,
    MLE_WITH_UDSA,
    MLE_WITHOUT_UDSA,
    NB_MLE,
    PERFECT_ASSUMED_MLE,
    SimLevel,
    SimMetrics,
    SimScenario,
    allocate_rates,
    lrt_power_study,
    run_study,
    scenario_from_json,
    scenario_to_json,
    simulate_level,
)
from .special import chi2_1_upper_tail, log_binom, log1mexp, nint, normal_quantile

__version__ = "0.1.0"
