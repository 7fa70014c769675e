"""Point and variance estimators for residual and residence times."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from fractions import Fraction

from .core import DomainError, MomentVector, ResidenceSample, np
from .moments import sample_moments
from .taylor import MAX_ORDER, _needed_central, evaluate_expression, generate_expression


def mean_residual_steps(s: ResidenceSample) -> Fraction:
    """Expected remaining steps of the stay in progress at a random instant:
    1/2 + E[X^2]/(2 E[X]) = 1/2 + (mu2 + m^2)/(2m) on the exact plug-in
    mean m and second central moment mu2 of sample_moments."""
    mom = sample_moments(s, 2)
    return Fraction(1, 2) + (mom.central[2] + mom.mean**2) / (2 * mom.mean)


def mean_residence_steps(s: ResidenceSample) -> Fraction:
    """Average residence duration in steps: the exact plug-in mean of sample_moments."""
    return sample_moments(s, 2).mean


def var_mean_residence(s: ResidenceSample) -> Fraction:
    """Variance of the mean residence time: unbiased sample variance over N,
    mu2/(N - 1) on the exact plug-in second central moment of sample_moments."""
    n = s.n
    if n < 2:
        raise DomainError("variance of the mean needs at least two residences")
    return sample_moments(s, 2).central[2] / (n - 1)


def var_mrt_ratio(s: ResidenceSample) -> Fraction:
    """Delta-method variance of the residual-time statistic:
    ratio_variance_from_moments on the exact plug-in moments."""
    return ratio_variance_from_moments(sample_moments(s, 4), s.n)


def ratio_variance_rows(x: np.ndarray, x2: np.ndarray, m1: np.ndarray, m2: np.ndarray):
    """Float delta-method estimator for each row of x, one sample per row.

    x2 = x*x, and m1, m2 are the row means of x and x2.  Algebraically
    (m4 - 2*m2*m3/m1 + m2^3/m1^2) / (4*N*m1^2), evaluated here as a mean of
    squares, which is the identical quantity and cannot go negative under
    rounding.
    """
    n = x.shape[1]
    resid = np.multiply((m2 / m1)[:, None], x)
    np.subtract(x2, resid, out=resid)
    np.multiply(resid, resid, out=resid)
    return resid.mean(axis=1) / (4.0 * n * m1 * m1)


def ratio_variance_from_moments(mom: MomentVector, n: int) -> Fraction:
    """The same delta-method estimator from the mean and central moments 2..4, exactly.

    With d = x - mean and a = mean - mu2/mean, the residual x^2 - (m2/m1)*x
    is d^2 + a*d - mu2, so the mean of its square is
    mu4 + 2*a*mu3 + a^2*mu2 - mu2^2.
    """
    if n < 1:
        raise DomainError("N must be >= 1")
    m1 = mom.mean
    mu2, mu3, mu4 = _needed_central((2, 3, 4), mom.central).values()
    a = m1 - mu2 / m1
    bracket = mu4 + 2 * a * mu3 + a * a * mu2 - mu2 * mu2
    return bracket / (4 * n * m1 * m1)


# estimator label -> series order, 0 standing for the delta-method ratio
_LABEL_ORDERS = {"ratio": 0, **{f"taylor{m}": m for m in range(1, MAX_ORDER + 1)}}


def _series_order(label: str) -> int:
    """Order of a 'taylorM' label (M in 1..8), or 0 for 'ratio'."""
    if label not in _LABEL_ORDERS:
        raise DomainError(f"unknown estimator label {label!r}")
    return _LABEL_ORDERS[label]


def _central_order(labels) -> int:
    """Highest central order that a report with these estimator labels reads:
    4 for 'ratio', 2M for 'taylorM', and at least 2, for mrT and the
    variance of the mean."""
    return max((2 * _series_order(label) or 4 for label in labels), default=2)


def var_mrt_taylor(s: ResidenceSample, order: int = 8) -> Fraction:
    """Series variance estimator of the given order on the exact plug-in
    sample moments."""
    if not 1 <= order <= MAX_ORDER:
        raise DomainError(f"series order must lie in 1..{MAX_ORDER}")
    expr = generate_expression(order)
    return evaluate_expression(expr, sample_moments(s, max_central_order=2 * order), s.n)


def rt_autocorrelation(per_trace_rts, max_lag: int) -> list[tuple[int, float, float]]:
    """Cross-trace mean and spread of per-trace autocorrelation, lags 0..max_lag.

    A trace needs at least max_lag + 2 residences to contribute: shorter
    traces are excluded with one warning that counts them.  Constant traces
    have no defined correlation and are excluded with a warning each.
    With a single contributing trace the spread column is 0.
    """
    if max_lag < 0:
        raise DomainError("max_lag must be >= 0")
    rows, short = [], 0  # rows: lags 0..max_lag of each contributing trace
    for idx, rts in enumerate(per_trace_rts):
        if len(rts) < max_lag + 2:
            short += 1
            continue
        x = np.asarray(rts, dtype=np.float64)
        d = x - x.mean()
        # numpy's own sums, not BLAS dot products, whose last bits follow the thread count
        lags = [float(np.add.reduce(d[: len(d) - h] * d[h:])) for h in range(max_lag + 1)]
        if lags[0] == 0.0:
            warnings.warn(f"trace {idx} is constant, excluded from autocorrelation")
            continue
        rows.append([v / lags[0] for v in lags])
    if short:
        warnings.warn(
            f"{short} trace(s) with fewer than max_lag+2 residences excluded from autocorrelation"
        )
    if not rows:
        raise DomainError("no usable trace for the requested lags")
    out = []
    for h, vals in enumerate(zip(*rows)):
        arr = np.asarray(vals)
        sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        out.append((h, float(arr.mean()), sd))
    return out


@dataclass(frozen=True)
class EstimateReport:
    """Point estimates and uncertainties in steps and, when dt is given, time units.

    Lowercase mrt fields describe the mean residual time (expected wait to
    stay completion); capitalized mRT fields describe the mean residence
    time.  Per-method dicts are keyed by estimator label, e.g. "ratio" or
    "taylor8".
    """

    n: int
    dt: float | None
    methods: tuple[str, ...]
    mrt_steps: float
    mrt_var_steps: dict[str, float]
    mrt_sd_steps: dict[str, float]
    mRT_steps: float
    mRT_var_steps: float
    mRT_sd_steps: float
    mrt_time: float | None = None
    mrt_var_time: dict[str, float] | None = None
    mrt_sd_time: dict[str, float] | None = None
    mRT_time: float | None = None
    mRT_var_time: float | None = None
    mRT_sd_time: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def build_report(
    s: ResidenceSample,
    dt: float | None = None,
    methods: tuple[str, ...] = ("ratio", "taylor8"),
) -> EstimateReport:
    """Assemble point estimates and per-method uncertainties, with unit conversion.

    Every number is computed exactly and rounded to a float once: residual-
    and residence-time values scale by dt, their variances by dt squared,
    and each sd is the correctly rounded square root of its exact variance.
    A dt that is not positive and finite, a negative variance from any
    estimator (a defect) and a value past float64's range each raise
    DomainError naming it.
    """
    if dt is not None and not 0 < dt < math.inf:
        raise DomainError(f"dt must be positive and finite, got {dt}")
    # the top order first, so that every estimator below slices its moments from it
    sample_moments(s, _central_order(methods))
    mrt_var: dict[str, Fraction] = {}
    for label in methods:
        order = _series_order(label)
        value = var_mrt_taylor(s, order) if order else var_mrt_ratio(s)
        if value < 0:
            raise DomainError(f"estimator {label} produced a negative variance")
        mrt_var[label] = value
    mrt, residence = mean_residual_steps(s), mean_residence_steps(s)
    residence_var = var_mean_residence(s)
    units = {"steps": 1} if dt is None else {"steps": 1, "time": Fraction(dt)}
    exact = {}  # each field's exact value; an sd field holds the variance it roots
    for unit, c in units.items():
        var, rvar = {k: v * c * c for k, v in mrt_var.items()}, residence_var * c * c
        exact.update({f"mrt_{unit}": mrt * c, f"mrt_var_{unit}": var, f"mrt_sd_{unit}": var,
                      f"mRT_{unit}": residence * c, f"mRT_var_{unit}": rvar, f"mRT_sd_{unit}": rvar})
    fields = {}
    for name, value in exact.items():
        rounded = {}
        for key, x in value.items() if isinstance(value, dict) else [(None, value)]:
            try:
                rounded[key] = _rounded_sqrt(x) if "_sd_" in name else float(x)
            except OverflowError:  # JSON has no infinity
                where = name if key is None else f"{name}[{key!r}]"
                at = f" at dt={dt!r}" if name.endswith("_time") else ""
                raise DomainError(f"{where} = inf is not finite{at}") from None
        fields[name] = rounded if isinstance(value, dict) else rounded[None]
    return EstimateReport(n=s.n, dt=dt, methods=tuple(methods), **fields)


def _rounded_sqrt(x: Fraction) -> float:
    """The float nearest sqrt(x) for an exact x >= 0, rounded once.

    r = floor(sqrt(x) * 2^k) has at least 56 bits, so every rounding
    boundary of a float lies on an integer in units of 2^-k.  sqrt(x) * 2^k
    is then r itself or lies strictly between r and r + 1, where r + 1/2
    rounds the same way.
    """
    p, q = x.as_integer_ratio()
    k = max(0, (112 - p.bit_length() + q.bit_length()) // 2 + 1)
    r = math.isqrt(p * 4**k // q)
    return float(Fraction(2 * r + (r * r * q != p * 4**k), 2 ** (k + 1)))
