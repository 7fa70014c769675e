"""Domain types and helpers that several modules of the package share.

Every moment and every estimate of a sample or of a reference distribution
is an exact rational (fractions.Fraction); a reported number is rounded to
a float once, in build_report.  Only the replicate kernels of mc work in
64-bit floats.  All types here are immutable values.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import cached_property
from math import gcd
from numbers import Rational
from types import MappingProxyType
from typing import Mapping


def _lazy_numpy():
    """numpy, as a module that finishes loading on its first attribute read.

    `import restime` then loads no numpy, and the pure-Python paths
    (`exact`, `gen-expr`) never do.  Every module of the package takes `np`
    from here.  A numpy already in sys.modules is returned as it is; one
    that cannot be found is imported plainly, so the error is the
    ModuleNotFoundError an eager import raises.  Once the lazy module is in
    sys.modules, a plain `import numpy` anywhere loads it at once, since the
    import system reads its __spec__.

    The first load under importlib.util.LazyLoader is not thread-safe on
    Python 3.10 and 3.11: a thread that reads an attribute while another
    is loading can see a half-built module.  The package starts no threads.
    """
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        import numpy  # raises ModuleNotFoundError, as an eager import would

        return numpy
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


class DomainError(ValueError):
    """Structurally valid input outside an operation's domain."""


class ParseError(ValueError):
    """Malformed textual input."""


def _is_integer(x) -> bool:
    """True when x equals an int: an int, a bool, a numpy integer or an integral float."""
    try:
        return x == int(x)
    except (TypeError, ValueError, OverflowError):
        return False


def _is_positive_int(x) -> bool:
    return _is_integer(x) and x >= 1


@dataclass(frozen=True, eq=False, repr=False)
class ResidenceSample:
    """Positive integer residence durations x_i, in time-step units.

    The checked steps are kept in `array`, one read-only 1-d array that the
    sample owns: int64, or object dtype holding exact Python ints when some
    step does not fit in int64; _checked_array checks the steps.  `n` and
    `histogram` read it.  `steps`, the same values as a tuple of Python
    ints, and the histogram are built on first use.
    Equality, hash and repr are those of a frozen dataclass whose one field
    is `steps`.
    """

    def __init__(self, steps):
        array = _checked_array(steps)
        if not array.size:
            raise DomainError("sample must contain at least one residence")
        if array is steps:  # the copy makes the array the sample's own
            array = steps.copy()
        array.flags.writeable = False
        self.__dict__["array"] = array

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.steps,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(steps={self.steps!r})"

    @property
    def n(self) -> int:
        return len(self.array)

    @cached_property
    def steps(self) -> tuple[int, ...]:
        """The steps as a tuple of Python ints, built on first use."""
        return tuple(self.array.tolist())

    @cached_property
    def histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct steps, ascending, and their counts, built on first use: read-only
        object arrays of Python ints, so that every estimator's sums over them are exact."""
        values, counts = (a.astype(object) for a in np.unique(self.array, return_counts=True))
        values.flags.writeable = counts.flags.writeable = False
        return values, counts


def _step_array(ints) -> np.ndarray:
    """Python ints as one 1-d array: int64, or object dtype when some value does not fit."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:  # a step past int64 stays an exact Python int
        return np.array(ints, dtype=object)


def _checked_array(steps) -> np.ndarray:
    """Steps, each an integer >= 1, as one 1-d array that may be empty.

    A 1-d int64 array whose min is >= 1 is returned as it is; anything else
    becomes a new _step_array.  DomainError names the first bad step.  The
    one check of a step, shared by ResidenceSample and write_steps_csv.
    """
    is_int64 = isinstance(steps, np.ndarray) and steps.dtype == np.int64 and steps.ndim == 1
    if is_int64 and steps.size and steps.min() >= 1:
        return steps
    # an int64 array's Python ints, so an error names x as a tuple would
    steps = tuple(steps.tolist() if is_int64 else steps)
    if steps and (set(map(type, steps)) != {int} or min(steps) < 1):
        # bools, numpy ints and integral floats are converted; the first bad value is named
        for x in steps:
            if not _is_positive_int(x):
                raise DomainError(f"residence durations must be integers >= 1, got {x!r}")
        steps = tuple(map(int, steps))
    return _step_array(steps)


@dataclass(frozen=True)
class MomentVector:
    """Mean plus central moments of orders >= 2, all Fractions.

    Each value given as an int, a Fraction or a finite float is stored as a
    Fraction of its exact value; anything else, and a mean <= 0, raises
    DomainError.  `central` is held as a read-only mapping, so the checks
    hold for the vector's life; pickle and copy rebuild the vector from a
    plain dict, but dataclasses.asdict, which deep-copies the mapping, does
    not take one.  The order-1 central moment is identically
    zero and not stored.  Every estimator reads only these: the series and the
    delta-method ratio alike.
    """

    mean: Fraction
    central: Mapping[int, Fraction]

    def __post_init__(self):
        if any(m < 2 for m in self.central):
            raise DomainError("central moment orders start at 2")
        mean = _exact_number(self.mean)
        if mean <= 0:
            raise DomainError(f"mean must be positive, got {self.mean!r}")
        central = {m: _exact_number(v) for m, v in self.central.items()}
        if central.get(2, 0) < 0:
            raise DomainError("second central moment cannot be negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "central", MappingProxyType(central))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or copied
        return MomentVector, (self.mean, dict(self.central))


def _exact_number(x) -> Fraction:
    """x as a Fraction of its exact value: x is an int, a Fraction or a finite
    float; anything else raises DomainError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (Rational, float)):
        try:
            return Fraction(x)
        except (ValueError, OverflowError):  # nan or infinite
            pass
    raise DomainError(f"moments must be ints, Fractions or finite floats, got {x!r}")


def _integer_scale(mean, values: Mapping[int, Fraction]) -> tuple[int, int, dict[int, int]]:
    """Integers (d, M, {m: B_m}) with mean = M/d and values[m] = B_m/d^m.

    mean and the values are Fractions or ints.  d starts as mean's
    denominator and, order by order, takes on the part of values[m]'s
    denominator that d^m does not yet divide.  Any such d gives the same
    exact results; this greedy one stays near the moments' own scale.
    """
    top, bottom = mean.as_integer_ratio()
    ratios = {m: v.as_integer_ratio() for m, v in sorted(values.items())}
    d = bottom
    for m, (_, q) in ratios.items():
        d *= q // gcd(q, d**m)
    return d, top * (d // bottom), {m: p * (d**m // q) for m, (p, q) in ratios.items()}


@dataclass(frozen=True)
class DistributionSpec:
    """Shifted geometric on {1,2,...} or discrete uniform on {a,...,b}."""

    kind: str
    p: Fraction | None = None
    a: int | None = None
    b: int | None = None
    # each kind's fields: the form a value must take, in ASCII digits without
    # leading zeros, and its converter (not a dataclass field)
    _FIELDS = {
        "geom": {"p": ("(0|[1-9][0-9]*)(/[1-9][0-9]*)?", Fraction)},
        "uniform": {"a": ("0|[1-9][0-9]*", int), "b": ("0|[1-9][0-9]*", int)},
    }

    def __post_init__(self):
        if self.kind == "geom":
            if self.p is None or not 0 < self.p < 1:
                raise DomainError("geometric parameter p must satisfy 0 < p < 1")
            object.__setattr__(self, "p", Fraction(self.p))
        elif self.kind == "uniform":
            a, b = self.a, self.b
            if not (_is_positive_int(a) and _is_positive_int(b) and a <= b):
                raise DomainError(f"uniform bounds must be integers 1 <= a <= b, got a={a!r}, b={b!r}")
            object.__setattr__(self, "a", int(a))
            object.__setattr__(self, "b", int(b))
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
        """Parse 'geom:p=<rational>' or 'uniform:a=<int>,b=<int>', each field once."""
        try:
            kind, _, rest = text.partition(":")
            if kind not in cls._FIELDS:
                raise ValueError(f"unknown kind {kind!r}")
            fields = {}
            for pos, part in enumerate(rest.split(",") if rest else [], start=1):
                name, eq, value = part.partition("=")
                if not part:
                    raise ValueError(f"empty field at position {pos}")
                if not eq or name in fields or name not in cls._FIELDS[kind]:
                    why = "no '=' after" if not eq else "repeated" if name in fields else "unknown"
                    raise ValueError(f"{why} field {name!r}")
                fields[name] = value
            values = {}
            for name, (form, convert) in cls._FIELDS[kind].items():
                if name not in fields:
                    raise ValueError(f"missing field {name!r}")
                if not re.fullmatch(form, fields[name]):
                    raise ValueError(f"bad value {fields[name]!r} for field {name!r}")
                values[name] = convert(fields[name])
            return cls(kind, **values)
        except ValueError as exc:
            # bad parameter values are usage errors at this boundary too
            raise ParseError(f"bad distribution spec {text!r}: {exc}") from exc

    def __str__(self) -> str:
        return f"{self.kind}:" + ",".join(f"{f}={getattr(self, f)}" for f in self._FIELDS[self.kind])


def format_rational(value: Fraction | float, digits: int = 16) -> str:
    """Decimal string with the given number of significant digits.

    The exact rational is divided in a decimal context of that precision,
    which rounds half-even once, and the quotient is padded to the full
    digit count; zero prints as 0 with digits - 1 zeros after the point.
    A NaN or infinite float raises DomainError.
    """
    if digits < 1:
        raise DomainError("digits must be >= 1")
    try:
        fr = Fraction(value)
    except (ValueError, OverflowError):
        raise DomainError(f"cannot format {value!r}: not a finite number") from None
    ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    q = ctx.divide(Decimal(fr.numerator), fr.denominator)
    # an exact quotient may be shorter than digits: pad it with trailing zeros
    q = q.quantize(Decimal((0, (1,), q.adjusted() - digits + 1)), context=ctx)
    return format(q, "f")
