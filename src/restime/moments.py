"""Sample moments and exact moments of the two reference distributions."""

from __future__ import annotations

from fractions import Fraction
from math import comb, isfinite

from .core import DistributionSpec, DomainError, MomentVector, ResidenceSample, _integer_scale, np
from .taylor import MAX_ORDER


def sample_moments(s: ResidenceSample, max_central_order: int = 4, exact: bool = False) -> MomentVector:
    """Plug-in mean and central moments of orders 2..max of a sample.

    Central moments use the biased 1/N form throughout.  Exact mode puts the
    raw power means through central_from_raw, as exact_moments does; float
    mode is row_moments on a single row, and raises DomainError when a
    central moment overflows float64.
    """
    if max_central_order < 2:
        raise DomainError("need central moments at least to order 2")
    if exact:
        return _exact_vector(_power_means(s.steps, max_central_order))
    rows = s.floats[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, central = row_moments(rows, rows.sum(axis=1), max_central_order)
    central = {m: float(v[0]) for m, v in central.items()}
    bad = [m for m, v in central.items() if not isfinite(v)]
    if bad:
        raise DomainError(f"central moment of order {bad[0]} overflows float64")
    return MomentVector(mean=float(mean[0]), central=central)


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
        # A(n, j) = (j + 1) A(n-1, j) + (n - j) A(n-1, j-1), zero outside the row
        prev = [0, *rows[-1], 0]
        rows.append([(j + 1) * prev[j + 1] + (n - j) * prev[j] for j in range(n)])
    return rows


def exact_moments(d: DistributionSpec, max_central_order: int = 4) -> MomentVector:
    """Exact rational moments of a reference distribution.

    Both read the Eulerian numbers A(n, j).  Geometric raw moments come from
    the Eulerian-polynomial identity E[X^n] = A_n(1-p)/p^n.  Uniform ones
    come from Worpitzky's identity x^n = sum_j A(n, j) C(x+j, n), whose sum
    over a..b telescopes to sum_j A(n, j) (C(b+j+1, n+1) - C(a+j, n+1)), so
    their cost does not grow with b - a.  Central moments follow by
    binomial transform.
    """
    if not 2 <= max_central_order <= 2 * MAX_ORDER:
        raise DomainError(f"central order must lie in 2..{2 * MAX_ORDER}")
    top = max_central_order
    rows = _eulerian_rows(top)
    if d.kind == "geom":
        q = 1 - d.p
        raw = {n: sum(c * q**j for j, c in enumerate(rows[n])) / d.p**n for n in range(1, top + 1)}
    else:
        a, b = d.a, d.b
        sums = {n: sum(c * (comb(b + j + 1, n + 1) - comb(a + j, n + 1)) for j, c in enumerate(rows[n]))
                for n in range(1, top + 1)}
        raw = {n: Fraction(s, b - a + 1) for n, s in sums.items()}
    return _exact_vector(raw)


def _power_means(xs, top: int) -> dict:
    """Exact raw moments of orders 1..top of the sample values xs, each weighted equally."""
    return {j: Fraction(sum(x**j for x in xs), len(xs)) for j in range(1, top + 1)}


def _exact_vector(raw: dict) -> MomentVector:
    """Exact MomentVector from raw moments of orders 1..max(raw); the raw ones are not kept."""
    return MomentVector(mean=raw[1], central=central_from_raw(raw))


def central_from_raw(raw):
    """Binomial transform raw -> central; raw must cover orders 1..max(raw).

    The values are exact (Fraction or int), and so are the Fraction
    results.  With raw_j = R_j/d^j and the mean raw_1 = M/d in integers
    (core._integer_scale), mu_m = sum_j C(m, j) R_j (-M)^(m-j) / d^m, so
    each central moment is one integer sum and one Fraction.
    """
    d, shifted, scaled = _integer_scale(raw[1], raw)
    full = {0: 1, **scaled}
    return {
        m: Fraction(sum(comb(m, j) * full[j] * (-shifted) ** (m - j) for j in range(m + 1)), d**m)
        for m in sorted(raw) if m >= 2
    }

