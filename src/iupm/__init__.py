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
    WellAssay,
    parse_summary_json,
    parse_wells_csv,
    restrict_to_detected,
    summarize_well_assay,
    to_summary_json,
    validate,
    wells_to_csv,
)
from .bias import (
    a_matrices,
    bias_correct,
    bias_term,
)
from .imperfect import (
    ImperfectFitError,
    ImperfectModel,
    ImpossibleDataError,
    fit_imperfect,
)
from .inference import (
    FitResult,
    LevelPass,
    SingularInformationError,
    covariance,
    fisher_information_multi,
    fit_mle,
    wald_ci,
)
from .negbin import (
    IdentifiabilityError,
    LrtResult,
    NBFit,
    fit_negbin,
    lrt_from_loglik,
    lrt_overdispersion,
)
from .poisson import (
    ExtremeOutcome,
    classify_extreme,
    closed_form_full_udsa,
    closed_form_no_udsa,
    gradient,
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
    scenario_to_json,
    simulate_level,
    study_from_json,
)
from .special import chi2_1_upper_tail, log1mexp, nint, normal_quantile

__version__ = "0.1.0"
