"""Count-only fits of the bundled subject summaries against published values.

Point estimates (plain and bias-corrected) reproduce the published table at
two decimal places for all seventeen subjects.  Intervals are asserted only
where the log-scale Wald construction coincides with the published interval
at that rounding; the published package used a test-inversion interval for
the others.
"""

import pytest

from iupm import bias_correct, fit_mle
from helpers import load_subjects, subject_assay

PUBLISHED = {
    # subject: (mle, bc_mle)
    "C1": (0.05, 0.04),
    "C2": (0.07, 0.07),
    "C3": (0.12, 0.12),
    "C4": (0.14, 0.14),
    "C5": (0.15, 0.14),
    "C6": (0.18, 0.17),
    "C7": (0.22, 0.22),
    "C8": (0.41, 0.40),
    "C9": (0.44, 0.42),
    "C10": (0.54, 0.52),
    "C11": (0.62, 0.58),
    "C12": (0.94, 0.90),
    "C13": (1.24, 1.12),
    "C14": (1.82, 1.54),
    "C15": (2.49, 2.08),
    "C16": (2.52, 2.18),
    "C17": (3.49, 3.08),
}

WALD_CI_MATCHES = {
    "C1": (0.02, 0.12),
    "C2": (0.03, 0.15),
    "C3": (0.05, 0.29),
    "C4": (0.06, 0.32),
    "C5": (0.06, 0.36),
    "C7": (0.13, 0.36),
    "C8": (0.27, 0.62),
}


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_point_estimates_match_published_table(name):
    assay = subject_assay(load_subjects()[name])
    mle_p, bc_p = PUBLISHED[name]
    fit = fit_mle(assay)
    bc = bias_correct(fit)
    assert round(fit.iupm, 2) == mle_p
    assert round(bc.iupm, 2) == bc_p
    assert bc.iupm <= fit.iupm  # the correction removes upward small-sample bias


@pytest.mark.parametrize("name", sorted(WALD_CI_MATCHES))
def test_wald_intervals_where_they_coincide(name):
    assay = subject_assay(load_subjects()[name])
    fit = fit_mle(assay)
    assert (round(fit.ci[0], 2), round(fit.ci[1], 2)) == WALD_CI_MATCHES[name]
