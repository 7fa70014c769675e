"""Sample moments and exact moments of the two reference distributions."""

from __future__ import annotations

from fractions import Fraction
from math import comb, isfinite

import numpy as np

from .core import DistributionSpec, DomainError, MomentVector, ResidenceSample
from .taylor import MAX_ORDER


def sample_moments(s: ResidenceSample, max_central_order: int = 4, exact: bool = False) -> MomentVector:
    """Plug-in moments of a sample: central orders 2..max, and raw orders 1..4 when exact.

    Central moments use the biased 1/N form throughout.  Exact mode stays
    rational; float mode is row_moments on a single row and leaves raw empty,
    and raises DomainError when a central moment overflows float64.
    """
    if max_central_order < 2:
        raise DomainError("need central moments at least to order 2")
    n = s.n
    if exact:
        total = sum(s.steps)
        mean = Fraction(total, n)
        raw = {j: Fraction(sum(x**j for x in s.steps), n) for j in range(1, 5)}
        # integer numerators n*x_i - total keep every centered power exact
        nums = [n * x - total for x in s.steps]
        central = {
            m: Fraction(sum(v**m for v in nums), n ** (m + 1))
            for m in range(2, max_central_order + 1)
        }
        return MomentVector(mean=mean, central=central, raw=raw, exact=True)
    rows = s.floats[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, central = row_moments(rows, rows.sum(axis=1), max_central_order)
    central = {m: float(v[0]) for m, v in central.items()}
    bad = [m for m, v in central.items() if not isfinite(v)]
    if bad:
        raise DomainError(f"central moment of order {bad[0]} overflows float64")
    return MomentVector(mean=float(mean[0]), central=central, raw={}, exact=False)


def row_moments(x: np.ndarray, sums: np.ndarray, max_order: int):
    """Mean and biased central moments 2..max_order of each row of x.

    sums holds the row sums of x.  Centering comes before the powers, since
    expanding raw power sums cancels catastrophically once the mean is large.
    """
    mean = sums / x.shape[1]
    central: dict[int, np.ndarray] = {}
    if max_order >= 2:
        d = x - mean[:, None]
        p = d * d
        for m in range(2, max_order + 1):
            central[m] = np.add.reduce(p, axis=1) / x.shape[1]
            if m < max_order:
                np.multiply(p, d, out=p)
    return mean, central


def _eulerian_rows(nmax: int) -> list[list[int]]:
    """Triangle of Eulerian numbers A(n, j) for rows 0..nmax."""
    rows = [[1]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        row = []
        for j in range(n):
            left = prev[j] if j < len(prev) else 0
            up = prev[j - 1] if j >= 1 else 0
            row.append((j + 1) * left + (n - j) * up)
        rows.append(row)
    return rows


def exact_moments(d: DistributionSpec, max_central_order: int = 4) -> MomentVector:
    """Exact rational moments of a reference distribution.

    Geometric raw moments come from the Eulerian-polynomial identity
    E[X^n] = A_n(1-p)/p^n; uniform ones from direct summation over the
    support.  Central moments follow by binomial transform.
    """
    if not 2 <= max_central_order <= 2 * MAX_ORDER:
        raise DomainError(f"central order must lie in 2..{2 * MAX_ORDER}")
    top = max(max_central_order, 4)
    if d.kind == "geom":
        p = Fraction(d.p)
        q = 1 - p
        rows = _eulerian_rows(top)
        raw_full = {
            n: sum(Fraction(c) * q**j for j, c in enumerate(rows[n])) / p**n
            for n in range(1, top + 1)
        }
    else:
        width = d.b - d.a + 1
        raw_full = {
            n: Fraction(sum(x**n for x in range(d.a, d.b + 1)), width)
            for n in range(1, top + 1)
        }
    mean = raw_full[1]
    central_full = central_from_raw(raw_full, mean)
    central = {m: v for m, v in central_full.items() if m <= max_central_order}
    raw = {n: raw_full[n] for n in range(1, 5)}
    return MomentVector(mean=mean, central=central, raw=raw, exact=True)


def central_from_raw(raw, mean):
    """Binomial transform raw -> central; raw must cover orders 1..max(raw)."""
    out = {}
    for m in sorted(raw):
        if m < 2:
            continue
        acc = 0
        for j in range(0, m + 1):
            rj = 1 if j == 0 else raw[j]
            acc = acc + comb(m, j) * rj * (-mean) ** (m - j)
        out[m] = acc
    return out

