"""40-digit references for the two tail probabilities of ``scrublang.stats``,
by mpmath: the two-sided Student t p as the regularized incomplete beta
function, and the two-sided standard normal p as erfc."""

from __future__ import annotations

import mpmath

DIGITS = 40


def student_t_p(t: float, df: int) -> float:
    """Two-sided p of Student t ``t`` with ``df`` degrees of freedom:
    I_x(df/2, 1/2) at x = df / (df + t^2), taken on the exact value of ``t``."""
    with mpmath.workdps(DIGITS):
        t2 = mpmath.mpf(t) ** 2
        half = mpmath.mpf(1) / 2
        return float(mpmath.betainc(df * half, half, 0, df / (df + t2), regularized=True))


def normal_p(z: float) -> float:
    """Two-sided p of standard normal ``z``: erfc(|z| / sqrt(2)), taken on the
    exact value of ``z``."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.erfc(abs(mpmath.mpf(z)) / mpmath.sqrt(2)))


def erfc(x: float) -> float:
    """erfc of the exact value of ``x``."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.erfc(mpmath.mpf(x)))
