"""Occupancy traces: ingestion, transient-escape filtering, residence extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, TextIO

from .core import DomainError, ParseError, ResidenceSample, np
from .core import _checked_array, _is_positive_int, _step_array

# the ASCII characters that str.split() separates tokens on
_SEPARATORS = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
# the digits 0 and 1 become the bytes 0x00 and 0x01; a raw 0x00 or 0x01 becomes
# 0xFF, so that every byte of a translated line above 0x01 marks a bad token
_TO_BITS = bytes.maketrans(b"01\x00\x01", b"\x00\x01\xff\xff")


@dataclass(frozen=True, eq=False, repr=False)
class OccupancyTrace:
    """Binary presence sequence in temporal order, 1 = inside the region.

    A trace holds only `runs`, its maximal runs in order as a pair of
    read-only arrays (uint8 values, int64 lengths).  `bits`, bytes with one
    per step (0x01 inside, 0x00 outside), is built from the runs on first
    read.  Any iterable whose elements equal 0 or 1 is accepted as bits.
    Equality, hash and repr are those of a frozen dataclass whose one field
    is `bits`.
    """

    def __init__(self, bits):
        bits = tuple(bits)
        try:
            # check before int(), which would also take 0.5, "1" and 1.9
            ok = {0, 1}.issuperset(bits)
        except TypeError:  # an unhashable element
            ok = False
        if not ok:
            raise DomainError("trace elements must be 0 or 1")
        _held(*_runs(np.frombuffer(bytes(map(int, bits)), dtype=np.uint8)), self)

    @cached_property
    def bits(self) -> bytes:
        return np.repeat(*self.runs).tobytes()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self.runs, other.runs))

    def __hash__(self) -> int:
        return hash(tuple(a.tobytes() for a in self.runs))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(bits={self.bits!r})"

    def __len__(self) -> int:
        return int(self.runs[1].sum())


def _held(values: np.ndarray, lengths: np.ndarray, trace=None) -> OccupancyTrace:
    """A trace holding runs the caller built (alternating 0/1 uint8 values, int64
    lengths >= 1), held uncopied and read-only.  Unchecked; a given trace is filled."""
    trace = object.__new__(OccupancyTrace) if trace is None else trace
    values.flags.writeable = lengths.flags.writeable = False
    trace.__dict__["runs"] = (values, lengths)
    return trace


def _runs(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of a 1-d uint8 0/1 array in order: each run's value and length."""
    if not b.size:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    bounds = np.concatenate(([0], np.flatnonzero(b[1:] != b[:-1]) + 1, [b.size]))
    return b[bounds[:-1]], np.diff(bounds)


@dataclass(frozen=True)
class FilterConfig:
    """Escape tolerance: absences of up to k-1 consecutive steps are bridged."""

    k: int = 1

    def __post_init__(self):
        if not _is_positive_int(self.k):
            raise DomainError(f"filter window k must be an integer >= 1, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))

    @classmethod
    def from_times(cls, tstar: float, dt: float) -> "FilterConfig":
        """Window from an absence threshold tstar and time step dt, k = round(tstar/dt)."""
        if not (dt > 0 and tstar > 0 and math.isfinite(tstar / dt)):
            raise DomainError("tstar and dt must be positive and tstar/dt finite")
        k = round(tstar / dt)
        if k < 1:
            raise DomainError("tstar shorter than half a time step leaves no window")
        return cls(k=k)


@dataclass(frozen=True)
class ExtractionPolicy:
    """How to treat runs touching a trace boundary: 'drop' or 'include'."""

    boundary: str = "drop"

    def __post_init__(self):
        if self.boundary not in ("drop", "include"):
            raise DomainError("boundary policy must be 'drop' or 'include'")


def parse_traces(source: Iterable[str]) -> list[OccupancyTrace]:
    """Read one trace per nonempty line of whitespace-separated 0/1 tokens."""
    traces = []
    for lineno, line in enumerate(source, start=1):
        # a non-ASCII line is rejoined with single spaces, and a non-ASCII
        # character left in a token becomes b"?", a bad byte
        raw = (line if line.isascii() else " ".join(line.split())).encode("ascii", "replace")
        b = np.frombuffer(raw.translate(_TO_BITS, _SEPARATORS), dtype=np.uint8)
        if not b.size:
            continue
        # the digits are the only bytes above b" "; two side by side make a longer token
        digit = np.frombuffer(raw, dtype=np.uint8) > ord(" ")
        if b.max() > 1 or (digit[1:] & digit[:-1]).any():
            # some token is bad: walk the tokens to name the first one
            col, tok = next((c, t) for c, t in enumerate(line.split(), start=1) if t not in ("0", "1"))
            raise ParseError(f"line {lineno}, column {col}: expected 0 or 1, got {tok!r}")
        traces.append(_held(*_runs(b)))
    return traces


def filter_transient_escapes(x: OccupancyTrace, cfg: FilterConfig) -> OccupancyTrace:
    """Bridge interior 0-runs strictly shorter than k that are bounded by 1s.

    Boundary 0-runs are never filled, and a trace with nothing to bridge
    (always so at k=1) is returned as it is.  The result treats a brief
    continuous absence as part of the surrounding stay.
    """
    values, lengths = x.runs
    # runs alternate, so a 0-run other than the first and last lies between 1s
    gap = (values == 0) & (lengths < cfg.k)
    gap[:1] = gap[-1:] = False
    if not gap.any():
        return x
    # a bridged gap becomes a 1, and a run starts wherever the value changes
    filled = values | gap
    starts = np.flatnonzero(np.concatenate(([True], filled[1:] != filled[:-1])))
    return _held(filled[starts], np.add.reduceat(lengths, starts))


def extract_residences(x: OccupancyTrace, policy: ExtractionPolicy) -> np.ndarray:
    """Lengths of maximal 1-runs in temporal order, as a 1-d int64 array.

    Under the 'drop' policy, runs touching either end of the trace are
    censored (their true duration is unknown) and omitted.
    """
    values, lengths = x.runs
    keep = values == 1
    if policy.boundary == "drop":
        keep[:1] = keep[-1:] = False
    return lengths[keep]


def per_trace_residences(
    traces: Iterable[OccupancyTrace], cfg: FilterConfig, policy: ExtractionPolicy
) -> Iterator[np.ndarray]:
    """Yield each trace's residences, after filtering, in trace order."""
    for t in traces:
        yield extract_residences(filter_transient_escapes(t, cfg), policy)


def collect_sample(
    traces: Iterable[OccupancyTrace], cfg: FilterConfig, policy: ExtractionPolicy
) -> ResidenceSample:
    """Filter each trace, extract residences, and pool them into one sample."""
    # the empty seed lets no traces at all reach the refusal below
    steps = np.concatenate([np.empty(0, np.int64), *per_trace_residences(traces, cfg, policy)])
    if not steps.size:
        raise DomainError("no residences found in the given traces")
    return ResidenceSample(steps=steps)


def write_steps_csv(steps: Iterable[int], fh: TextIO) -> None:
    """Write residence step counts one per line under a 'steps' header.

    A step that ResidenceSample refuses is refused with the same DomainError,
    before anything is written; no steps at all write the bare header.  An
    int64 array is formatted in one vectorised pass, and steps past int64 are
    joined from str(x).
    """
    steps = _checked_array(steps)
    if steps.dtype == np.int64 and steps.size:
        fh.write("steps\n" + _int64_lines(steps))
    else:
        fh.write("\n".join(["steps", *map(str, steps), ""]))


def _int64_lines(steps: np.ndarray) -> str:
    """Each int64 step >= 1 in decimal digits, one per line, each line ended by '\n'."""
    # one row per step: its digits right-aligned in `width` columns, then '\n';
    # a digit is kept when the quotient it comes from is nonzero, so no leading zero is
    width = len(str(int(steps.max())))
    chars = np.empty((steps.size, width + 1), dtype=np.uint8)
    keep = np.empty((steps.size, width + 1), dtype=bool)
    chars[:, width], keep[:, width] = ord("\n"), True
    q = steps
    for col in range(width - 1, -1, -1):
        np.not_equal(q, 0, out=keep[:, col])
        rest = q // 10
        np.subtract(q, rest * 10 - ord("0"), out=chars[:, col], casting="unsafe")
        q = rest
    return chars[keep].tobytes().decode("ascii")


def read_steps_csv(fh: TextIO) -> np.ndarray:
    """Read the CSV written by write_steps_csv from a text stream; blank lines are skipped.

    Every step must be an ASCII-digit integer >= 1.  Errors name the line in the
    file, lines ending at each '\n'.  The steps come back as one 1-d array:
    int64, or object dtype holding exact Python ints when some step does not
    fit in int64.
    """
    head, _, body = fh.read().partition("\n")
    # the common file: a bare header, then only ASCII digits and newlines
    # (a non-ASCII character becomes b"?", which fails the check)
    data = body.encode("ascii", "replace")
    if head == "steps" and not data.translate(None, b"0123456789\n"):
        steps = np.fromstring(data, dtype=np.int64, sep=" ")
        # a blank body parses to [0] and strtoll saturates at 2**63-1, so a zero
        # or a step of 10**18 or more is left to the exact pass
        if not steps.size or (steps.min() >= 1 and steps.max() < 10**18):
            return steps
    # anything else, or a bad step: the line-by-line pass names the first bad line
    return _step_array(_checked_steps([head, *body.split("\n")]))


def _checked_steps(lines: Iterable[str]) -> list[int]:
    numbered = ((lineno, ln) for lineno, ln in enumerate(map(str.strip, lines), start=1) if ln)
    if next(numbered, (0, ""))[1] != "steps":
        raise ParseError("expected a 'steps' header on the first line")
    steps = []
    for lineno, ln in numbered:
        digits = ln.removeprefix("-")
        try:
            step = int(ln) if digits.isascii() and digits.isdigit() else None
        except ValueError:  # past int()'s digit limit
            step = None
        if step is None:
            raise ParseError(f"line {lineno}: expected an integer, got {ln!r}")
        if step < 1:
            raise ParseError(f"line {lineno}: residence steps must be >= 1, got {ln!r}")
        steps.append(step)
    return steps
