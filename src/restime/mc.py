"""Samplers, replicate experiment runner, and an exact small-support reference."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import taylor
from .core import DistributionSpec, DomainError, ResidenceSample, _is_integer, np
from .estimators import _series_order, ratio_variance_rows
from .moments import row_moments


# Philox state written by replicate_stream; each call rewrites counter word 2
# and both key words, and the setter copies the values out
_STREAM_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
    "buffer": [0, 0, 0, 0],
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def replicate_stream(
    seed: int, index: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Independent deterministic stream for one replicate of one experiment.

    The stream is Philox keyed by seed, jumped index times.  A jump adds
    2**128 to the 256-bit counter, which is +1 in counter word 2, so stream
    i starts at counter [0, 0, i, 0] with nothing buffered; the 128-bit key
    is two 64-bit words, low word first.  That state is written into the
    Philox Generator rng in place and rng is returned; a Generator is built
    first only when rng is None.  The state goes through one module-level
    template, so calls must not run concurrently.
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=seed))
    state = _STREAM_STATE["state"]
    state["counter"][2] = index
    state["key"][:] = seed & (2**64 - 1), seed >> 64
    rng.bit_generator.state = _STREAM_STATE
    return rng


def _fill_row(dist: DistributionSpec, row: np.ndarray, rng: np.random.Generator) -> None:
    """Draw one row in place: final values if uniform, raw u in [0, 1) if geometric."""
    if dist.kind == "geom":
        rng.random(out=row)
    else:
        row[:] = rng.integers(dist.a, dist.b + 1, size=row.size)


def _finish_rows(dist: DistributionSpec, x: np.ndarray) -> np.ndarray:
    """Turn rows filled by _fill_row into draws, in place; returns x."""
    if dist.kind == "geom":
        # u in (0, 1] keeps the log finite; x = 1 + floor(log u / log(1-p))
        np.subtract(1.0, x, out=x)
        np.log(x, out=x)
        np.divide(x, math.log1p(-float(dist.p)), out=x)
        np.floor(x, out=x)
        np.add(x, 1.0, out=x)
    return x


def _check_drawable(dist: DistributionSpec) -> None:
    """Refuse a uniform support past 2**53: its draws are held in float64
    rows, which hold every integer only up to 2**53."""
    if dist.kind == "uniform" and dist.b > 2**53:
        raise DomainError(f"uniform draws are held as float64, exact only up to 2**53, got b={dist.b}")


def sample(dist: DistributionSpec, n: int, rng: np.random.Generator) -> ResidenceSample:
    """Draw one sample of size n from a reference distribution."""
    if n < 1:
        raise DomainError("sample size must be >= 1")
    _check_drawable(dist)
    x = np.empty(n)
    _fill_row(dist, x, rng)
    with np.errstate(all="ignore"):  # an overflow is named below instead
        _finish_rows(dist, x)
    if not np.isfinite(x).all():
        raise DomainError(f"a draw from {dist} overflows float64")
    return ResidenceSample(steps=tuple(map(int, x)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Replicate experiment: distribution, sample sizes, replicate count, seed."""

    dist: DistributionSpec
    sizes: tuple[int, ...]
    replicates: int
    seed: int
    estimators: tuple[str, ...] = ("ratio", "taylor8")

    def __post_init__(self):
        _check_drawable(self.dist)
        for n in self.sizes:
            if not _is_integer(n):
                raise DomainError(f"sample size must be an integer, got {n!r}")
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise DomainError("sizes must be a nonempty list of positive integers")
        object.__setattr__(self, "sizes", sizes)
        if not (_is_integer(self.replicates) and self.replicates >= 2):
            raise DomainError(f"need an integer number of replicates >= 2, got {self.replicates!r}")
        object.__setattr__(self, "replicates", int(self.replicates))
        if not (_is_integer(self.seed) and 0 <= int(self.seed) < 2**128):
            raise DomainError(f"seed must be an integer in 0..2**128-1, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        for label in self.estimators:
            _series_order(label)


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregates across replicates for one sample size."""

    n: int
    reference_var: float
    reference_var_se: float
    means: dict[str, float]
    ses: dict[str, float]


# a draw chunk holds at most CHUNK_ROWS replicates and about CHUNK_DRAWS draws;
# a (chunk, n) float64 array is then at most 512 KiB, so the three a chunk pass
# holds at once (x and two temporaries) fit a 2 MiB per-core L2 cache
CHUNK_ROWS = 4096
CHUNK_DRAWS = 65_536
# replicates whose moments are collected for one series evaluation; its cost is
# thousands of array ops whatever the row count, and its inputs are 8 bytes per
# row for each of the mean and the central moments
EVAL_BLOCK = 16_384
# run_experiment refuses a sample size whose predicted peak memory exceeds this
_MEMORY_LIMIT = 2 * 2**30


def _layout(n: int, r: int, labels: int, top: int) -> tuple[int, int, int]:
    """Draw chunk rows, series block rows and predicted peak bytes at sample size n.

    The peak counts float64s: 3 + labels per replicate for the results and
    their summary, top per block row for the moments, one (chunk, n) array
    for the draws and about top + 4 per chunk row for a chunk's sums and
    moments.  On top of these comes the larger of the chunk pass's two
    (chunk, n) temporaries and the series' kept powers, about 3*top + 2 per
    block row: the series runs after the chunk pass has freed its
    temporaries.
    """
    chunk = min(CHUNK_ROWS, max(16, CHUNK_DRAWS // n), r)
    block = max(1, EVAL_BLOCK // chunk) * chunk
    rows = min(block, r)
    kept = (3 + labels) * r + top * rows + chunk * n + (top + 4) * chunk
    return chunk, block, 8 * (kept + max(2 * chunk * n, (3 * top + 2) * rows))


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Reference variance of the point statistic versus estimator means.

    Replicate i always uses its own counter-based stream (seed, i), and
    per-replicate results land in arrays indexed by i, so the output is
    bit-identical for any chunk or block layout.  One Generator is
    repositioned to each replicate's stream rather than built anew.  Draws,
    moments and the ratio estimator run per chunk of replicates; each series
    is evaluated once per block of whole chunks, from the chunks' means and
    central moments.  The draw and moment buffers are bounded by the chunk
    and the block; the results are not: f_vals and one array per estimator
    label are (reps,) float64, 8 bytes per replicate each (24 with the
    CLI's two labels).  A sample size whose predicted peak (_layout)
    exceeds _MEMORY_LIMIT, 2 GiB, raises DomainError before any work.  A
    statistic, estimate or summary that is not finite at some size (draws
    near float64's range overflow) raises DomainError naming that size.
    """
    orders = [_series_order(lbl) for lbl in cfg.estimators]
    top = 2 * max(orders, default=0)
    r = cfg.replicates
    layouts = {n: _layout(n, r, len(cfg.estimators), top) for n in cfg.sizes}
    for n, (_, _, need) in layouts.items():
        if need > _MEMORY_LIMIT:
            raise DomainError(f"N={n} with {r} replicates needs about {need / 2**30:,.1f} GiB,"
                              f" past the {_MEMORY_LIMIT // 2**30} GiB memory limit")
    ratio = [lbl for lbl, order in zip(cfg.estimators, orders) if not order]
    series = [(lbl, taylor.generate_expression(order))
              for lbl, order in zip(cfg.estimators, orders) if order]
    rows = []
    rng = None
    # numpy's overflow and invalid-value warnings are off: an overflow is named per
    # sample size by one DomainError instead
    with np.errstate(all="ignore"):
        for n in cfg.sizes:
            f_vals = np.empty(r)
            est_vals = {lbl: np.empty(r) for lbl in cfg.estimators}
            chunk, block, _ = layouts[n]
            x_buf = np.empty((chunk, n))
            mean_buf = np.empty(min(block, r))
            central_buf = {m: np.empty_like(mean_buf) for m in range(2, top + 1)}
            for blo in range(0, r, block):
                bhi = min(blo + block, r)
                for lo in range(blo, bhi, chunk):
                    hi = min(lo + chunk, bhi)
                    x = x_buf[: hi - lo]
                    for i, row in enumerate(x, lo):
                        rng = replicate_stream(cfg.seed, i, rng)
                        _fill_row(cfg.dist, row, rng)
                    _finish_rows(cfg.dist, x)
                    s1 = x.sum(axis=1)
                    m1, central = row_moments(x, s1, top)
                    mean_buf[lo - blo : hi - blo] = m1
                    for m, v in central.items():
                        central_buf[m][lo - blo : hi - blo] = v
                    x2 = x * x
                    s2 = x2.sum(axis=1)
                    f_vals[lo:hi] = 0.5 + s2 / (2.0 * s1)
                    if ratio:
                        est = ratio_variance_rows(x, x2, m1, s2 / n)
                        for lbl in ratio:
                            est_vals[lbl][lo:hi] = est
                    # freed before the next chunk's row_moments, which holds two
                    # (chunk, n) temporaries beside x
                    del x2
                k = bhi - blo
                block_central = {m: v[:k] for m, v in central_buf.items()}
                for lbl, expr in series:
                    est_vals[lbl][blo:bhi] = taylor.evaluate_expression_batch(
                        expr, mean_buf[:k], block_central, n
                    )

            for what, values in (("the residual-time statistic", f_vals),
                                 *((f"estimator {lbl}", v) for lbl, v in est_vals.items())):
                if not np.isfinite(values).all():
                    raise DomainError(f"N={n}: {what} overflows float64")
            ref = float(np.var(f_vals, ddof=1))
            m4f = float(np.mean((f_vals - f_vals.mean()) ** 4))
            ref_se = math.sqrt(max(0.0, m4f - ref * ref * (r - 3) / (r - 1)) / r)
            means = {lbl: float(v.mean()) for lbl, v in est_vals.items()}
            ses = {lbl: float(v.std(ddof=1) / math.sqrt(r)) for lbl, v in est_vals.items()}
            if not np.isfinite([ref, ref_se, *means.values(), *ses.values()]).all():
                raise DomainError(f"N={n}: the replicate summary overflows float64")
            rows.append(
                ExperimentRow(
                    n=n, reference_var=ref, reference_var_se=ref_se, means=means, ses=ses
                )
            )
    return rows


# exact_variance_small refuses inputs whose work by the former recurrence over S
# (table entries times support points) exceeds this.  The packed products do far
# less work, and the guard is kept so that the same inputs are refused.  Measured
# on one x86-64 core: 0.09 s at uniform 1..50, N=40, and at most 2.1 s for the
# classes at the bound with N >= 2; the slowest accepted class is uniform
# 1..2,000,000 at N=1, about 13 s of per-sum Python work (20 s by the recurrence)
EXACT_WORK_LIMIT = 2_000_000


def exact_variance_small(dist: DistributionSpec, n: int) -> Fraction:
    """Exact variance of the residual-time statistic for small uniform cases.

    f = 1/2 + R/(2S) with S the sum and R the sum of squares of n draws, so
    E[f] and E[f^2] need, for each S, only the outcome count and the sums
    of R and R^2 over those outcomes.  These are the z^(S - n a)
    coefficients of C^n, n Q C^(n-1) and n Q4 C^(n-1) + n(n-1) Q^2 C^(n-2),
    where C, Q and Q4 are the support's polynomials in z^(x-a) with
    coefficients 1, x^2 and x^4.  Each polynomial is packed into one
    integer, one fixed-width field per coefficient, wide enough for the
    largest coefficient any product has, (b-a+1)^n (n b^2)^2; a product of
    polynomials is then one integer product (Kronecker substitution).
    The sums of f and f^2 over all outcomes are then integer sums over the
    lcm of their terms' reduced denominators, and the variance is one
    Fraction.  An input is refused before any work when its work by the
    former recurrence over S, (b-a+1) * (n + (b-a) n(n-1)/2), exceeds
    EXACT_WORK_LIMIT.
    """
    if dist.kind != "uniform":
        raise DomainError("exact enumeration needs a finite support (uniform only)")
    if n < 1:
        raise DomainError("n must be >= 1")
    w = dist.b - dist.a
    if (w + 1) * (n + w * n * (n - 1) // 2) > EXACT_WORK_LIMIT:
        raise DomainError("enumeration work exceeded the tractability guard")
    width = (((w + 1) ** n * (n * dist.b**2) ** 2).bit_length() + 7) // 8  # bytes per field

    def pack(coefs) -> int:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coefs), "little")

    def unpack(value: int) -> list[int]:
        raw = value.to_bytes((n * w + 1) * width, "little")
        return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]

    support = range(dist.a, dist.b + 1)
    c, q, q4 = pack([1] * (w + 1)), pack([x * x for x in support]), pack([x**4 for x in support])
    # C^(n-2) and C^(n-1); at n = 1 the C^(n-2) term has weight n - 1 = 0
    low2 = c ** max(n - 2, 0)
    low1 = low2 * c if n > 1 else 1
    counts = unpack(low1 * c)
    r1s = unpack(n * q * low1)
    r2s = unpack(n * (q4 * low1 + (n - 1) * q * q * low2))
    per_sum = list(zip(range(n * dist.a, n * dist.b + 1), counts, r1s, r2s))
    # the sums of f and f^2 over all outcomes, each as (numerator, denominator)
    e1, d1 = _sum_over_lcm((k * s + r1, 2 * s) for s, k, r1, _ in per_sum)
    e2, d2 = _sum_over_lcm((k * s * s + 2 * s * r1 + r2, 4 * s * s) for s, k, r1, r2 in per_sum)
    total = (w + 1) ** n
    # e2 / (d2 total) - (e1 / (d1 total))^2
    return Fraction(e2 * d1 * d1 * total - e1 * e1 * d2, d2 * (d1 * total) ** 2)


def _sum_over_lcm(pairs) -> tuple[int, int]:
    """(numerator, denominator) of the sum of the fractions p/q given as (p, q) pairs.

    Each fraction is reduced first and the sum is taken over the lcm of the
    reduced denominators, which stays small when most reduce away (at one
    draw every f is (1 + S)/2), where the lcm of every S would not.
    """
    reduced = [(p // g, q // g) for p, q in pairs for g in (math.gcd(p, q),)]
    den = math.lcm(*(q for _, q in reduced))
    return sum(p * (den // q) for p, q in reduced), den
