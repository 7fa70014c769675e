"""Shared domain types for residence-time estimation.

Two scalar regimes coexist throughout the package: exact rationals
(fractions.Fraction) for reference computations, plain 64-bit floats
everywhere else.  All types here are immutable values.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Mapping

Scalar = Fraction | float


class DomainError(ValueError):
    """Structurally valid input outside an operation's domain."""


class ParseError(ValueError):
    """Malformed textual input."""


def _is_positive_int(x) -> bool:
    try:
        return x == int(x) and x >= 1
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class ResidenceSample:
    """Positive integer residence durations x_i, in time-step units."""

    steps: tuple[int, ...]
    dt: float | None = None

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise DomainError("sample must contain at least one residence")
        try:
            ints = tuple(map(int, steps))
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != steps or min(ints) < 1:
            # some value is bad: the slower scan names the first one
            bad = next(x for x in steps if not _is_positive_int(x))
            raise DomainError(f"residence durations must be integers >= 1, got {bad!r}")
        object.__setattr__(self, "steps", ints)
        if self.dt is not None and not self.dt > 0:
            raise DomainError("dt must be positive")

    @property
    def n(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class OccupancyTrace:
    """Binary presence sequence in temporal order, 1 = inside the region."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise DomainError("trace elements must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class MomentVector:
    """Mean plus central moments (orders >= 2) and raw moments (orders 1..4).

    exact=True means every stored value is a Fraction, otherwise floats.
    The order-1 central moment is identically zero and not stored.
    """

    mean: Scalar
    central: Mapping[int, Scalar]
    raw: Mapping[int, Scalar]
    exact: bool = False

    def __post_init__(self):
        if any(m < 2 for m in self.central):
            raise DomainError("central moment orders start at 2")
        if 2 in self.central and self.central[2] < 0:
            raise DomainError("second central moment cannot be negative")


@dataclass(frozen=True)
class DistributionSpec:
    """Shifted geometric on {1,2,...} or discrete uniform on {a,...,b}."""

    kind: str
    p: Fraction | None = None
    a: int | None = None
    b: int | None = None

    def __post_init__(self):
        if self.kind == "geom":
            if self.p is None or not 0 < self.p < 1:
                raise DomainError("geometric parameter p must satisfy 0 < p < 1")
            object.__setattr__(self, "p", Fraction(self.p))
        elif self.kind == "uniform":
            if self.a is None or self.b is None or not 1 <= self.a <= self.b:
                raise DomainError("uniform bounds must satisfy 1 <= a <= b")
            object.__setattr__(self, "a", int(self.a))
            object.__setattr__(self, "b", int(self.b))
        else:
            raise DomainError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def geometric(cls, p) -> "DistributionSpec":
        return cls(kind="geom", p=Fraction(p))

    @classmethod
    def uniform(cls, a: int, b: int) -> "DistributionSpec":
        return cls(kind="uniform", a=a, b=b)

    @classmethod
    def parse(cls, text: str) -> "DistributionSpec":
        """Parse 'geom:p=<rational>' or 'uniform:a=<int>,b=<int>'."""
        try:
            kind, _, rest = text.partition(":")
            fields = dict(part.split("=", 1) for part in rest.split(",") if part)
            if kind == "geom":
                return cls.geometric(Fraction(fields["p"]))
            if kind == "uniform":
                return cls.uniform(int(fields["a"]), int(fields["b"]))
            raise ValueError(f"unknown kind {kind!r}")
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            # bad parameter values are usage errors at this boundary too
            raise ParseError(f"bad distribution spec {text!r}: {exc}") from exc

    def __str__(self) -> str:
        if self.kind == "geom":
            return f"geom:p={self.p}"
        return f"uniform:a={self.a},b={self.b}"


@dataclass(frozen=True)
class Term:
    """One monomial q * N^-e * mu^g * prod(mu_m^c_m)."""

    coef: Fraction
    n_exponent: int
    mu_exponent: int
    moment_powers: tuple[tuple[int, int], ...]

    def text(self) -> str:
        parts = [str(self.coef), f"N^-{self.n_exponent}"]
        if self.mu_exponent:
            parts.append(f"mu^{self.mu_exponent}")
        for m, c in self.moment_powers:
            parts.append(f"mu{m}" + (f"^{c}" if c > 1 else ""))
        return " * ".join(parts)

    def to_dict(self) -> dict:
        return {
            "coef": str(self.coef),
            "n_exponent": self.n_exponent,
            "mu_exponent": self.mu_exponent,
            "moment_powers": {str(m): c for m, c in self.moment_powers},
        }


@dataclass(frozen=True)
class VarianceExpression:
    """Sum of Term monomials approximating the variance of the residual-time statistic."""

    order: int
    terms: tuple[Term, ...]

    def text(self) -> str:
        return "\n".join(t.text() for t in self.terms)

    def to_dict(self) -> dict:
        return {"order": self.order, "terms": [t.to_dict() for t in self.terms]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def normalize_expression(expr: VarianceExpression) -> VarianceExpression:
    """Merge like terms, drop zero coefficients, restore canonical ordering."""
    acc: dict[tuple, Fraction] = {}
    for t in expr.terms:
        powers = tuple(sorted((int(m), int(c)) for m, c in t.moment_powers if c))
        if any(m < 2 or c < 0 for m, c in powers):
            raise DomainError("moment powers need order >= 2 and positive count")
        if t.n_exponent < 1:
            raise DomainError("every term must decay in N (n_exponent >= 1)")
        if sum(m * c for m, c in powers) > 2 * expr.order:
            raise DomainError("term exceeds the expression's moment order budget")
        key = (t.n_exponent, t.mu_exponent, powers)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(t.coef)
    terms = tuple(
        Term(coef=q, n_exponent=e, mu_exponent=g, moment_powers=powers)
        for (e, g, powers), q in sorted(acc.items())
        if q != 0
    )
    return VarianceExpression(order=expr.order, terms=terms)


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


def _floor_log10(fr: Fraction) -> int:
    """Largest e with 10**e <= fr, for fr > 0, computed exactly."""
    e = 0
    if fr >= 1:
        while fr >= 10:
            fr /= 10
            e += 1
    else:
        while fr < 1:
            fr *= 10
            e -= 1
    return e


def format_rational(value: Fraction | float, digits: int = 16) -> str:
    """Decimal string with the given number of significant digits.

    Rounding is round-half-even on the exact rational, so the output agrees
    with what exact decimal arithmetic would print.
    """
    if digits < 1:
        raise DomainError("digits must be >= 1")
    fr = Fraction(value)
    if fr == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    e = _floor_log10(fr)
    shift = digits - 1 - e
    q = round(fr * Fraction(10) ** shift)
    if q >= 10**digits:
        # rounding carried into a new decade: 9.99.. -> 10.0..
        q //= 10
        shift -= 1
    s = str(q)
    point = len(s) - shift
    if shift <= 0:
        return sign + s + "0" * (-shift)
    if point > 0:
        return sign + s[:point] + "." + s[point:]
    return sign + "0." + "0" * (-point) + s


def format_fixed(value: Fraction | float, decimals: int) -> str:
    """Decimal string with a fixed number of places after the point."""
    if decimals < 0:
        raise DomainError("decimals must be >= 0")
    fr = Fraction(value)
    sign = "-" if fr < 0 else ""
    q = round(abs(fr) * 10**decimals)
    s = str(q).rjust(decimals + 1, "0")
    if decimals == 0:
        return sign + s
    return sign + s[:-decimals] + "." + s[-decimals:]
