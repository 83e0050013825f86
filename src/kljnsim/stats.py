"""Closed-form attack statistics: Eve's calibration, attack probabilities, comparison error and confidence intervals.

Its records are named tuples, exported with ``_asdict``; the module imports
neither numpy nor ``dataclasses``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .circuit import NetworkConfig, NoiseSpec, analytic_mean_square_currents

Z99 = 2.576  # two-sided 99% normal quantile, used for every interval in the reports
# The absolute error of exact_attack_probabilities' quadrature is at most 2e-15: against scipy's quad
# at 400 random (a, b, rho), rho up to 1 - 1e-12 included.  A rate five times that, 1e-14, is still
# within the error of 0, and any Monte Carlo run tells it from 0 only after some 1e14 trials.
QUADRATURE_ABS_ERROR = 1e-14
# A comparison's form alpha*u**2 + beta*w**2 whose eigenvalues lambda+ and |lambda-| sum to less than
# one rounding (2**-52) of |alpha|*c.c + |beta|*d.d, the sizes of the squares it sums, is 0 to within
# that rounding: its sign is noise, and Eve's comparison there never answers.  Exactly 0 on a loop
# without a shunt; about 1e-117 on a network whose readings are proportional to far below rounding.
COMPARISON_ROUNDING = 2.0**-52


def ratio_or_nan(num: float, den: float) -> float:
    """``num / den``, or NaN (written as null in a report) without a denominator."""
    return num / den if den else math.nan


class EveCalibration(NamedTuple):
    """Eve's public-knowledge constants.

    ``norm_constant`` is the reciprocal of the theoretical mean-square
    current at the high-resistance end; after scaling, that end has unit
    mean square and the low-resistance end sits at ``threshold``.
    """

    norm_constant: float
    threshold: float


def calibrate(net: NetworkConfig, noise: NoiseSpec) -> EveCalibration:
    """Derive Eve's constants from the published circuit values.

    All resistances and the effective temperature are public, so both
    numbers are theoretical.  Pad symmetry makes the calibration identical
    for the two secure orientations.
    """
    m = analytic_mean_square_currents(net, noise)
    return EveCalibration(
        norm_constant=1.0 / min(m.ms_alice, m.ms_bob),
        threshold=m.ratio,
    )


def chi2_cdf_1(x: float) -> float:
    """CDF of the square of a standard normal (chi-squared, one degree of freedom).

    Equals erf(sqrt(x/2)); monotone nondecreasing on x >= 0.
    """
    return math.erf(math.sqrt(0.5 * x))


class AttackProbabilities(NamedTuple):
    """Outcome probabilities of the single-measurement threshold comparison."""

    p_success: float
    p_error: float
    p_no_answer: float
    expected_measurements: float
    conditional_fidelity: float


def analytic_attack_probabilities(ratio: float) -> AttackProbabilities:
    """Per-trial probabilities when the two mean squares differ by ``ratio`` (larger over smaller, so >= 1).

    The threshold sits at the larger normalized mean square.  One trial
    succeeds when the strong end alone exceeds it, errs when the weak end
    alone does, and gives no answer when both land on the same side.
    ``expected_measurements`` is the mean number of trials until some
    answer arrives; ``conditional_fidelity`` is the chance that answer is
    right.
    """
    p_weak_below = chi2_cdf_1(ratio)  # weak end has unit mean square
    p_strong_below = chi2_cdf_1(1.0)  # threshold sits at the strong end's mean square
    p_success = p_weak_below * (1.0 - p_strong_below)
    p_error = (1.0 - p_weak_below) * p_strong_below
    p_no_answer = p_weak_below * p_strong_below + (1.0 - p_weak_below) * (1.0 - p_strong_below)
    return _attack_probabilities(p_success, p_error, p_no_answer)


def _attack_probabilities(p_success: float, p_error: float, p_no_answer: float) -> AttackProbabilities:
    """The record of one trial's three outcome probabilities, with the mean trials to an answer and its fidelity."""
    p_answer = p_success + p_error
    return AttackProbabilities(
        p_success=p_success,
        p_error=p_error,
        p_no_answer=p_no_answer,
        expected_measurements=1.0 / p_answer if p_answer > 0 else math.inf,
        conditional_fidelity=ratio_or_nan(p_success, p_answer),
    )


@functools.cache
def _gauss_legendre() -> tuple[tuple[float, float], ...]:
    """The 64 (node, weight) pairs of Gauss-Legendre quadrature on [-1, 1], built once on first use.

    Each node is a root of the Legendre polynomial P_64, found by Newton's
    method from the asymptotic guess cos(pi*(i - 1/4)/(n + 1/2)); its weight
    is 2/((1 - x**2)*P_64'(x)**2) (Numerical Recipes, section 4.6).
    """
    n = 64
    pairs = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            slope = n * (x * p - p_prev) / (x * x - 1.0)
            step = p / slope
            x -= step
            if abs(step) < 1e-15:
                break
        weight = 2.0 / ((1.0 - x * x) * slope * slope)
        pairs += [(x, weight), (-x, weight)]
    return tuple(pairs)


def _integral(f: Callable[[float], float], lo: float, hi: float) -> float:
    """The integral of ``f`` over [lo, hi] by 64-point Gauss-Legendre."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * sum(w * f(mid + half * x) for x, w in _gauss_legendre())


def _scaled_moments(record: tuple) -> tuple[float, int, float, int, float, float]:
    """A transfer record's second moments, each end's entries scaled by a power of two so that none overflows.

    Returns ``(ms_a, e_a, ms_b, e_b, cov, det)``: Alice's entries are scaled
    by 2**-e_a so that the larger lies in [0.5, 1), Bob's likewise; ms_a and
    ms_b are the scaled mean squares (the true ones times 4**-e), cov the
    scaled covariance and det the scaled determinant aa*bb - ab*ba.
    """
    e_a = math.frexp(max(abs(record[0]), abs(record[1])))[1]
    e_b = math.frexp(max(abs(record[2]), abs(record[3])))[1]
    aa, ab = math.ldexp(record[0], -e_a), math.ldexp(record[1], -e_a)
    ba, bb = math.ldexp(record[2], -e_b), math.ldexp(record[3], -e_b)
    return aa * aa + ab * ab, e_a, ba * ba + bb * bb, e_b, aa * ba + ab * bb, aa * bb - ab * ba


def end_correlation(record: tuple) -> float:
    """The correlation of the two end currents that a transfer record gives for one reading instant.

    With i_alice = aa*z_a + ab*z_b and i_bob = ba*z_a + bb*z_b
    (:func:`~kljnsim.circuit.transfer`), it is (aa*ba + ab*bb) over the root
    of the two mean squares aa**2 + ab**2 and ba**2 + bb**2.
    """
    ms_a, _, ms_b, _, cov, _ = _scaled_moments(record)
    return cov / math.sqrt(ms_a * ms_b)


def mean_square_ratio(record: tuple) -> float:
    """Alice's mean-square end current over Bob's, as a transfer record gives them, series elements kept.

    On the LH record (Alice's end holds the low resistor) it is the ratio of
    the low-resistor end to the high-resistor end.  Each end's scale comes
    back as a power of two, so neither mean square overflows.
    """
    ms_a, e_a, ms_b, e_b, _, _ = _scaled_moments(record)
    return math.ldexp(ms_a / ms_b, 2 * (e_a - e_b))


def _inside(cut: float) -> float:
    """P(|Z| < cut) for a standard normal Z."""
    return math.erf(cut / math.sqrt(2.0))


def exact_attack_probabilities(record: tuple, cal: EveCalibration) -> AttackProbabilities:
    """Eve's per-trial probabilities on one secure connection's transfer ``record``, both ends read at one instant.

    ``record`` is :func:`~kljnsim.circuit.transfer`'s, source RMS folded in
    (an entry of :func:`~kljnsim.circuit.connection_records`), and ``cal``
    is Eve's calibration in amperes.  The two readings are standard normals
    Z_s and Z_w scaled by the root mean squares of the strong end (the larger
    mean square, the low resistor's) and of the weak end, with correlation
    rho (:func:`end_correlation`); series elements are kept.  An end's reading
    exceeds the threshold when |Z| exceeds its cut sqrt(threshold /
    (norm_constant * mean square)): ``a`` at the strong end, ``b`` at the
    weak end.  With sigma = sqrt(1 - rho**2), the chance that neither
    exceeds is the integral over |z| < b of
    phi(z) * [Phi((a - rho*z)/sigma) - Phi((-a - rho*z)/sigma)], by
    64-point Gauss-Legendre (Genz, Stat. Comput. 14:251 (2004)); a trial
    succeeds with P(|Z_w| < b) minus that, and errs with P(|Z_s| < a) minus
    that.  Readings that are proportional (sigma = 0, as on a loop without
    a shunt, whose two readings are the same) take the limit: P(|Z| <
    min(a, b)) for neither, so identical readings give exact zeros, an
    infinite mean number of trials and a NaN fidelity.  A rate smaller than
    the quadrature's error (``QUADRATURE_ABS_ERROR``) is returned as 0, so
    readings proportional to far below rounding give those zeros too.  Pure
    Python: the quadrature nodes are built at the first call.
    """
    ms_a, e_a, ms_b, e_b, cov, det = _scaled_moments(record)
    # the cuts, with norm_constant * mean square = (norm_constant * 4**e) * scaled mean square
    cut_a = math.sqrt(cal.threshold / (math.ldexp(cal.norm_constant, 2 * e_a) * ms_a))
    cut_b = math.sqrt(cal.threshold / (math.ldexp(cal.norm_constant, 2 * e_b) * ms_b))
    a, b = min(cut_a, cut_b), max(cut_a, cut_b)  # the strong end has the larger mean square, the smaller cut
    root = math.sqrt(ms_a * ms_b)
    rho = abs(cov) / root  # the sign of rho does not change |Z_s| and |Z_w|
    sigma = abs(det) / root  # sqrt(1 - rho**2) through the determinant, which keeps its digits near rho = 1
    if sigma == 0.0:
        both_inside = _inside(a)
    else:

        def strong_inside(z: float) -> float:
            """phi(z) * P(|Z_s| < a | Z_w = z)."""
            upper, lower = (a - rho * z) / sigma, (-a - rho * z) / sigma
            density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            return density * 0.5 * (math.erf(upper / math.sqrt(2.0)) - math.erf(lower / math.sqrt(2.0)))

        # The integrand is even in z.  Phi((a - rho*z)/sigma) falls from 1 to 0 within 8 of its widths
        # sigma/rho of z = a/rho, which the nodes resolve only on a piece of its own.  A rho so small
        # that a/rho overflows leaves Phi flat over |z| < b and needs no piece (inf - inf would be NaN).
        knots = [0.0, b]
        edge = a / rho if rho > 0.0 else math.inf
        if math.isfinite(edge):
            width = 8.0 * sigma / rho
            knots = sorted({0.0, b, *(min(max(z, 0.0), b) for z in (edge - width, edge, edge + width))})
        both_inside = 2.0 * sum(_integral(strong_inside, lo, hi) for lo, hi in zip(knots, knots[1:]))
    # each rate is a difference of two numbers near 1 where the readings are nearly proportional
    p_success, p_error = (
        0.0 if abs(p) < QUADRATURE_ABS_ERROR else p for p in (_inside(b) - both_inside, _inside(a) - both_inside)
    )
    return _attack_probabilities(p_success, p_error, 1.0 - p_success - p_error)


def _stirling_remainder(a: float) -> float:
    """lgamma(a) less Stirling's (a - 1/2)*log(a) - a + log(2*pi)/2, for a > 0.

    Below 10 it is read from ``math.lgamma``, whose value there has few
    digits before the point; from 10 on it is Stirling's series up to its
    a**-9 term, whose next term is below 2e-14.
    """
    if a < 10.0:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))) / a


def _symmetric_beta(a: float, x: float, y: float) -> float:
    """The regularized incomplete beta function I_x(a, a), with ``y`` = 1 - x given to full precision.

    For x <= 1/2 it is x**a * y**a / (a * B(a, a)) times a continued
    fraction evaluated by the modified Lentz method (Numerical Recipes,
    section 6.4); above, 1 - I_y(a, a).  The prefactor is taken in log
    space as a*log(4xy) - log(4*pi*a)/2 plus the Stirling remainders of
    Gamma(2a) and Gamma(a) (:func:`_stirling_remainder`): there the large
    terms of log B(a, a) cancel by hand, where from ``math.lgamma`` alone
    they would carry its rounding, about 1e-11 at a = 5000, into the
    result.  So the far tails keep their relative accuracy.
    """
    if x > y:
        return 1.0 - _symmetric_beta(a, y, x)
    if x == 0.0:
        return 0.0
    # 4xy = 1 - (y - x)**2, in which y - x is exact for x >= 1/4
    log_4xy = math.log(4.0 * x * y) if x < 0.25 else math.log1p(-(y - x) ** 2)
    remainders = _stirling_remainder(2.0 * a) - 2.0 * _stirling_remainder(a)
    front = math.exp(a * log_4xy - 0.5 * math.log(4.0 * math.pi * a) + remainders)
    if front == 0.0:
        return 0.0
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 / (1.0 - (2.0 * a) * x / (a + 1.0) or tiny)
    fraction = d
    for m in range(1, 100_000):  # converges in O(sqrt(a)) steps
        # the fraction's even and odd coefficients, at b = a
        even = m * (a - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (2.0 * a + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for coefficient in (even, odd):
            d = 1.0 / (1.0 + coefficient * d or tiny)
            c = 1.0 + coefficient / c or tiny
            fraction *= d * c
        if abs(d * c - 1.0) < 1e-16:  # the last step moved the fraction by less than a rounding
            break
    return front * fraction


def _comparison_law(c: tuple, d: tuple, n: int, weights: tuple = (1.0, -1.0)) -> float:
    """P(sum over n readings of alpha*u**2 + beta*w**2 < 0), for linear readings u = c.z and w = d.z.

    ``c`` and ``d`` are 2-vectors and z two independent standard normals,
    drawn afresh at each reading; ``weights`` (alpha, beta) are of order
    one and of opposite signs.  (u, w) has the covariance S = [[c.c, c.d], [c.d,
    d.d]], so one reading's form is lambda+ * X - |lambda-| * Y, with X and
    Y independent chi-squared of one degree and lambda+- the eigenvalues of
    diag(alpha, beta) * S.  Over n readings the form is negative with
    probability I_x(n/2, n/2), x = |lambda-| / (lambda+ + |lambda-|).  The
    eigenvalues come from the trace and the determinant alpha*beta*(c0*d1 -
    c1*d0)**2, the smaller in magnitude as the determinant over the larger,
    from entries scaled by powers of two (:func:`_scaled_moments`), so that
    nothing cancels or overflows.  NaN when the form is 0 to within one
    rounding of the squares it sums (``COMPARISON_ROUNDING``), as it is
    identically on a loop without a shunt.
    """
    cc, e_c, dd, e_d, _, det = _scaled_moments((*c, *d))
    e = max(e_c, e_d)  # the weights absorb the scales: alpha*u**2 = (alpha * 4**e_c) * (u * 2**-e_c)**2
    alpha, beta = math.ldexp(weights[0], 2 * (e_c - e)), math.ldexp(weights[1], 2 * (e_d - e))
    half = 0.5 * (alpha * cc + beta * dd)  # half the trace
    product = alpha * beta * det * det  # the determinant, lambda+ * lambda- <= 0
    root = math.sqrt(half * half - product)
    if half >= 0.0:
        lam_plus = half + root
        lam_minus = product / lam_plus if lam_plus > 0.0 else 0.0
    else:
        lam_minus = half - root
        lam_plus = product / lam_minus
    total = lam_plus - lam_minus
    if total <= COMPARISON_ROUNDING * (abs(alpha) * cc + abs(beta) * dd):
        return math.nan
    return _symmetric_beta(0.5 * n, -lam_minus / total, lam_plus / total)


def comparison_error(record: tuple, n: int) -> float:
    """The error of Eve's current comparison over ``n`` readings of the LH transfer ``record``.

    She names the end with the larger sum of squared currents over a
    period's readings as the low resistor's.  ``record`` is the LH entry of
    :func:`~kljnsim.circuit.connection_records` (Alice's end holds the low
    resistor), read at n independent instants; the comparison errs when
    Bob's end has the larger sum, with probability I_x(n/2, n/2)
    (:func:`_comparison_law`).  NaN on a loop without a shunt, whose two
    currents are one, and wherever they are proportional to within rounding:
    the statistic is 0 there and never answers.
    """
    return _comparison_law(record[:2], record[2:4], n)


def wilson_ci(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval for ``0 <= successes <= trials``, ``trials >= 1``; always contained in [0, 1]."""
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = p + z2 / (2.0 * trials)
    radius = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    # the score interval pins its endpoints exactly at the boundaries
    lo = 0.0 if successes == 0 else max(0.0, (center - radius) / denom)
    hi = 1.0 if successes == trials else min(1.0, (center + radius) / denom)
    return lo, hi
