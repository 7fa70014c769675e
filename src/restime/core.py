"""Shared domain types for residence-time estimation.

Two scalar regimes coexist throughout the package: exact rationals
(fractions.Fraction) for reference computations, plain 64-bit floats
everywhere else.  All types here are immutable values.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

import numpy as np

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

    def __post_init__(self):
        steps = self.steps
        if isinstance(steps, np.ndarray) and steps.dtype == np.int64 and steps.ndim == 1:
            if steps.size and steps.min() >= 1:
                # the reader's and the sampler's array: one min checks every step,
                # and the float copy is made here, from the array, not from the tuple
                floats = steps.astype(np.float64)
                floats.flags.writeable = False
                self.__dict__["floats"] = floats
                object.__setattr__(self, "steps", tuple(steps.tolist()))
                return
            steps = steps.tolist()  # Python ints, so an error names x as a tuple would
        steps = tuple(steps)
        if not steps:
            raise DomainError("sample must contain at least one residence")
        if set(map(type, steps)) == {int}:
            ok, ints = min(steps) >= 1, steps
        else:  # bools, numpy ints and integral floats are converted
            try:
                ints = tuple(map(int, steps))
            except (TypeError, ValueError, OverflowError):
                ints = None
            ok = ints == steps and min(ints) >= 1
        if not ok:
            # some value is bad: the slower scan names the first one
            bad = next(x for x in steps if not _is_positive_int(x))
            raise DomainError(f"residence durations must be integers >= 1, got {bad!r}")
        object.__setattr__(self, "steps", ints)

    @property
    def n(self) -> int:
        return len(self.steps)

    @cached_property
    def floats(self) -> np.ndarray:
        """The steps as one read-only float64 array.

        Built on first use, or at construction from an int64 steps array.
        """
        a = np.asarray(self.steps, dtype=np.float64)
        a.flags.writeable = False
        return a


@dataclass(frozen=True)
class OccupancyTrace:
    """Binary presence sequence in temporal order, 1 = inside the region.

    Stored as bytes, one per step: 0x01 inside, 0x00 outside.  Any iterable
    whose elements equal 0 or 1 is accepted and normalised to that form.
    """

    bits: bytes

    def __post_init__(self):
        bits = self.bits
        # only exact bytes: bytes() of a numpy array reads its memory, not its elements
        if type(bits) is bytes:
            ok = not bits.translate(None, b"\x00\x01")
        else:
            bits = tuple(bits)
            try:
                # check before int(), which would also take 0.5, "1" and 1.9
                ok = {0, 1}.issuperset(bits)
            except TypeError:  # an unhashable element
                ok = False
            if ok:
                bits = bytes(map(int, bits))
        if not ok:
            raise DomainError("trace elements must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _trusted(cls, bits: bytes) -> "OccupancyTrace":
        """A trace over bytes the caller built from 0x00/0x01 only; skips the check."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "bits", bits)
        return trace

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class MomentVector:
    """Mean plus central moments (orders >= 2) and raw moments (orders 1..4).

    exact=True means every stored value is a Fraction, otherwise floats.
    The order-1 central moment is identically zero and not stored.  Float
    sample moments (moments.sample_moments with exact=False) leave raw
    empty, since no float estimator reads it.
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

    @cached_property
    def central_orders(self) -> tuple[int, ...]:
        """The central-moment orders some term uses, ascending."""
        return tuple(sorted({m for t in self.terms for m, _ in t.moment_powers}))

    @cached_property
    def _prepared_forms(self) -> dict:
        """The evaluator's prepared forms of this expression, keyed by (N, exact);
        taylor._prepared fills it."""
        return {}

    def to_dict(self) -> dict:
        return {"order": self.order, "terms": [t.to_dict() for t in self.terms]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


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

