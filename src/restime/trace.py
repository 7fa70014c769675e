"""Occupancy-trace ingestion, transient-escape filtering, residence extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from .core import DomainError, OccupancyTrace, ParseError, ResidenceSample
from .core import _is_positive_int, _runs, _step_array

# the ASCII characters that str.split() separates tokens on
_SEPARATORS = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
# the digits 0 and 1 become the bytes 0x00 and 0x01; a raw 0x00 or 0x01 becomes
# 0xFF, so that every byte of a translated line above 0x01 marks a bad token
_TO_BITS = bytes.maketrans(b"01\x00\x01", b"\x00\x01\xff\xff")


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
        traces.append(OccupancyTrace._from_runs(*_runs(b)))
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
    return OccupancyTrace._from_runs(filled[starts], np.add.reduceat(lengths, starts))


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

    A 1-d int64 array of steps >= 1 is formatted in one vectorised pass; any
    other iterable is joined from str(int(x)).  The bytes are the same.
    """
    is_int64 = isinstance(steps, np.ndarray) and steps.dtype == np.int64 and steps.ndim == 1
    if is_int64 and steps.size and steps.min() >= 1:
        fh.write("steps\n" + _int64_lines(steps))
    else:
        fh.write("\n".join(["steps", *map(str, map(int, steps)), ""]))


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
