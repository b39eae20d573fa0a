"""Hypothesis tests: Welch's t and Kolmogorov-Smirnov normality.

Section IV-D compares the bandwidth of two concurrent applications
when they share all four OSTs versus none: "A Welch two-sample t-test
was applied to compare the two groups (after testing normality with
the Kolmogorov-Smirnov test and assuming different variances) and
resulted in a p-value of 0.9031".  These wrappers run exactly that
procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from ..errors import AnalysisError

__all__ = ["KS_MIN_SAMPLES", "TestResult", "WELCH_MIN_SAMPLES", "welch_ttest", "ks_normality"]

# The smallest samples each test accepts (per group for Welch).
WELCH_MIN_SAMPLES = 2
KS_MIN_SAMPLES = 4


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test."""

    name: str
    statistic: float
    pvalue: float
    detail: str = ""

    def rejects_at(self, alpha: float = 0.05) -> bool:
        """True when the null hypothesis is rejected at level ``alpha``."""
        if not 0 < alpha < 1:
            raise AnalysisError(f"alpha must be in (0, 1), got {alpha}")
        return self.pvalue < alpha


def _sample(values: object, minimum: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < minimum:
        raise AnalysisError(f"{what} needs >= {minimum} samples, got {arr.size}")
    if np.any(~np.isfinite(arr)):
        raise AnalysisError(f"{what}: non-finite values in sample")
    return arr


def welch_ttest(a: object, b: object) -> TestResult:
    """Welch's two-sample t-test (unequal variances), two-sided."""
    x = _sample(a, WELCH_MIN_SAMPLES, "Welch t-test")
    y = _sample(b, WELCH_MIN_SAMPLES, "Welch t-test")
    stat, p = sps.ttest_ind(x, y, equal_var=False)
    # Welch-Satterthwaite degrees of freedom, reported for completeness.
    vx, vy = x.var(ddof=1) / x.size, y.var(ddof=1) / y.size
    if vx + vy > 0:
        df = (vx + vy) ** 2 / (vx**2 / (x.size - 1) + vy**2 / (y.size - 1))
    else:
        df = float(x.size + y.size - 2)
    return TestResult(
        name="welch-t",
        statistic=float(stat),
        pvalue=float(p),
        detail=f"df={df:.1f}, means {x.mean():.1f} vs {y.mean():.1f}",
    )


def ks_normality(values: object) -> TestResult:
    """Kolmogorov-Smirnov test against a fitted normal (Lilliefors-style).

    The location and scale are estimated from the sample, as the paper
    does before applying Welch's test.  (With estimated parameters the
    plain KS p-value is conservative; that is the direction that makes
    "normality not rejected" a safe conclusion.)
    """
    arr = _sample(values, KS_MIN_SAMPLES, "KS normality test")
    sigma = arr.std(ddof=1)
    if sigma == 0:
        raise AnalysisError("KS normality test on a constant sample")
    stat, p = sps.kstest(arr, "norm", args=(arr.mean(), sigma))
    return TestResult(name="ks-normality", statistic=float(stat), pvalue=float(p))
