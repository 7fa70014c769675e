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


def mean_residual_steps(s: ResidenceSample, exact: bool = False):
    """Expected remaining steps of the stay in progress at a random instant.

    Equals 1/2 + sum(x^2)/(2*sum(x)).  Integer accumulation keeps the ratio
    exact until the final division, whatever the magnitudes.
    """
    total, squares = _step_sums(s, exact)
    if exact:
        return Fraction(1, 2) + Fraction(squares, 2 * total)
    return 0.5 + squares / (2.0 * total)


def mean_residence_steps(s: ResidenceSample, exact: bool = False):
    """Average residence duration in steps."""
    total, _ = _step_sums(s, exact)
    if exact:
        return Fraction(total, s.n)
    return total / s.n


def _step_sums(s: ResidenceSample, exact: bool) -> tuple[int, int]:
    """sum(x) and sum(x^2) as Python ints.

    Below n*max(x)^2 < 2^53 every partial sum of the float array is an
    integer that float64 holds exactly, so its sums are the integer sums.
    Exact mode never converts to float.
    """
    if not exact:
        a = s.floats
        if s.n * int(a.max()) ** 2 < 2**53:
            return int(a.sum()), int(a @ a)
    return sum(s.steps), sum(x * x for x in s.steps)


def var_mean_residence(s: ResidenceSample, exact: bool = False):
    """Variance of the mean residence time: unbiased sample variance over N."""
    n = s.n
    if n < 2:
        raise DomainError("variance of the mean needs at least two residences")
    if exact:
        total = sum(s.steps)
        num = sum((n * x - total) ** 2 for x in s.steps)
        return Fraction(num, n**3 * (n - 1))
    return float(s.floats.var(ddof=1) / n)


def var_mrt_ratio(s: ResidenceSample, exact: bool = False):
    """Delta-method variance of the residual-time statistic.

    Exact mode evaluates ratio_variance_from_moments on the rational plug-in
    moments; float mode is ratio_variance_rows on a single row.
    """
    if exact:
        return ratio_variance_from_moments(sample_moments(s, 4, exact=True), s.n)
    x = s.floats[None, :]
    x2 = x * x
    return float(ratio_variance_rows(x, x2, x.mean(axis=1), x2.mean(axis=1))[0])


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


def ratio_variance_from_moments(mom: MomentVector, n: int):
    """The same delta-method estimator from the mean and central moments 2..4.

    With d = x - mean and a = mean - mu2/mean, the residual x^2 - (m2/m1)*x
    is d^2 + a*d - mu2, so the mean of its square is
    mu4 + 2*a*mu3 + a^2*mu2 - mu2^2.
    """
    if n < 1:
        raise DomainError("N must be >= 1")
    m1 = mom.mean
    mu2, mu3, mu4 = _needed_central((2, 3, 4), mom.central, lambda v: v).values()
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


def var_mrt_taylor(s: ResidenceSample, order: int = 8, exact: bool = False):
    """Series variance estimator of the given order on plug-in sample moments."""
    if not 1 <= order <= MAX_ORDER:
        raise DomainError(f"series order must lie in 1..{MAX_ORDER}")
    expr = generate_expression(order)
    mom = sample_moments(s, max_central_order=2 * order, exact=exact)
    return evaluate_expression(expr, mom, s.n)


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
        denom = float(np.dot(d, d))
        if denom == 0.0:
            warnings.warn(f"trace {idx} is constant, excluded from autocorrelation")
            continue
        rows.append([float(np.dot(d[: len(d) - h], d[h:]) / denom) for h in range(max_lag + 1)])
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

    Residual- and residence-time values scale by dt, their variances by
    dt squared.  A negative variance from any estimator is a defect and is
    rejected rather than propagated into a square root; a dt-scaled value
    that overflows float64 raises DomainError naming it.
    """
    if dt is not None and not dt > 0:
        raise DomainError("dt must be positive")
    mrt = mean_residual_steps(s)
    mrt_var: dict[str, float] = {}
    for label in methods:
        order = _series_order(label)
        value = float(var_mrt_taylor(s, order) if order else var_mrt_ratio(s))
        if value < 0:
            raise DomainError(f"estimator {label} produced a negative variance")
        mrt_var[label] = value
    mrt_sd = {k: math.sqrt(v) for k, v in mrt_var.items()}
    residence = mean_residence_steps(s)
    residence_var = float(var_mean_residence(s))
    scaled = {}
    if dt is not None:
        scaled = dict(
            mrt_time=float(mrt) * dt,
            mrt_var_time={k: v * dt * dt for k, v in mrt_var.items()},
            mrt_sd_time={k: v * dt for k, v in mrt_sd.items()},
            mRT_time=float(residence) * dt,
            mRT_var_time=residence_var * dt * dt,
            mRT_sd_time=math.sqrt(residence_var) * dt,
        )
        # json.dumps would print an overflow as Infinity, which is not JSON
        for name, value in scaled.items():
            for key, x in value.items() if isinstance(value, dict) else [(None, value)]:
                if not math.isfinite(x):
                    where = name if key is None else f"{name}[{key!r}]"
                    raise DomainError(f"{where} = {x!r} is not finite at dt={dt!r}")
    return EstimateReport(
        n=s.n,
        dt=dt,
        methods=tuple(methods),
        mrt_steps=float(mrt),
        mrt_var_steps=mrt_var,
        mrt_sd_steps=mrt_sd,
        mRT_steps=float(residence),
        mRT_var_steps=residence_var,
        mRT_sd_steps=math.sqrt(residence_var),
        **scaled,
    )
