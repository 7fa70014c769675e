"""Independent reference implementations and helpers used only by the test suite.

Everything here is deliberately written from first principles, without
importing any package internals, so a shared bug cannot hide: finite
differences for derivative coefficients, explicit enumeration (by tuple
and by weighted multiset) for exact variances and pattern counts, a
direct double sum for the truncated series, a plain scan and a window-sum
construction for the gap filter, a plain scan for run extraction, a token
walk for trace parsing, partial sums with rigorous tail bounds for
geometric moments, a binomial transform from central to raw moments, the
delta-method ratio estimator from integer step sums, a per-term Fraction
sum for the series value, a per-row inverse-CDF for replicate draws, a
merge of like terms into canonical order (`normalize_expression`) and
fixed-decimal rendering (`format_fixed`).

What is imported from the package is its error type, the value types
`Term` and `VarianceExpression` (which `normalize_expression` takes and
returns), and one internal: `coefficient` is a test-only view of the
package's own derivative coefficient (`taylor._coefficient_parts`), which
the finite-difference checks put under test and the direct double sum
takes as its coefficient function.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from restime.core import DomainError, Term, VarianceExpression
from restime.taylor import _coefficient_parts


def statistic(xs):
    """f = 1/2 + sum(x^2) / (2 sum(x)) on exact rationals."""
    s1 = sum(xs)
    s2 = sum(x * x for x in xs)
    return Fraction(1, 2) + Fraction(s2, 2 * s1)


def ratio_from_sums(xs) -> Fraction:
    """Delta-method ratio estimator of a sample, from integer sums alone.

    With S1 = sum(x) and S2 = sum(x^2), the residual x^2 - (S2/S1) x is
    (S1 x^2 - S2 x) / S1, and the estimator, the mean of its square over
    4 N mean^2, is sum((S1 x^2 - S2 x)^2) / (4 S1^4).
    """
    s1 = sum(xs)
    s2 = sum(x * x for x in xs)
    return Fraction(sum((s1 * x * x - s2 * x) ** 2 for x in xs), 4 * s1**4)


def fd_partial(multiplicities, n: int, mu: Fraction, h: Fraction) -> Fraction:
    """Central finite difference of the statistic at the all-mu point.

    Differentiates order a_r times in variable r for each r, using the
    standard central stencil with half-step offsets, nested across
    variables.  Exact rational arithmetic means the only error is the
    O(h^2) truncation of the stencil itself.
    """
    mults = list(multiplicities)
    if len(mults) > n:
        raise ValueError("more distinct variables than coordinates")
    offsets = []
    weights = []
    for a in mults:
        offsets.append([Fraction(a, 2) - j for j in range(a + 1)])
        weights.append([Fraction((-1) ** j * comb(a, j)) for j in range(a + 1)])
    m = sum(mults)
    total = Fraction(0)
    for combo in itertools.product(*(range(a + 1) for a in mults)):
        w = Fraction(1)
        x = [Fraction(mu)] * n
        for r, j in enumerate(combo):
            w *= weights[r][j]
            x[r] = mu + offsets[r][j] * h
        total += w * statistic(x)
    return total / h**m


def enumeration_variance(a: int, b: int, n: int) -> Fraction:
    """Var of the statistic over all support^n outcomes, one tuple at a time."""
    outcomes = [statistic(c) for c in itertools.product(range(a, b + 1), repeat=n)]
    total = len(outcomes)
    e1 = sum(outcomes) / total
    e2 = sum(v * v for v in outcomes) / total
    return e2 - e1 * e1


def multiset_enumeration_variance(a: int, b: int, n: int) -> Fraction:
    """Var of the statistic over all support^n outcomes, one multiset at a time.

    The statistic depends only on the multiset of draws, so each sorted
    n-tuple stands for its n! / prod(count!) orderings.  Same value as
    enumeration_variance, but over C(b-a+n, n) multisets instead of
    (b-a+1)^n tuples, which keeps (93, 100, 10) under a second.
    """
    total = (b - a + 1) ** n
    e1 = Fraction(0)
    e2 = Fraction(0)
    for combo in itertools.combinations_with_replacement(range(a, b + 1), n):
        weight = factorial(n)
        for count in Counter(combo).values():
            weight //= factorial(count)
        v = statistic(combo)
        e1 += weight * v
        e2 += weight * v * v
    e1 /= total
    e2 /= total
    return e2 - e1 * e1


def gap_fill_reference(bits, k: int):
    """Plain scan: fill interior 0-runs shorter than k bounded by 1s."""
    out = list(bits)
    n = len(out)
    i = 0
    while i < n:
        if out[i] == 0:
            j = i
            while j < n and out[j] == 0:
                j += 1
            if i > 0 and j < n and (j - i) < k:
                out[i:j] = [1] * (j - i)
            i = j
        else:
            i += 1
    return tuple(out)


def parse_reference(lines) -> list[bytes]:
    """Token walk: one 0/1 byte string per nonempty line of str.split() tokens.

    A token other than '0' or '1' raises ValueError with the message the
    parser's ParseError carries.
    """
    traces = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        for col, tok in enumerate(tokens, start=1):
            if tok not in ("0", "1"):
                raise ValueError(f"line {lineno}, column {col}: expected 0 or 1, got {tok!r}")
        if tokens:
            traces.append(bytes(int(tok) for tok in tokens))
    return traces


def runs_reference(bits, boundary: str) -> list[int]:
    """Plain scan: lengths of maximal 1-runs, in order.

    With boundary='drop', a run that starts at the first element or ends at
    the last is left out.
    """
    runs = []
    n = len(bits)
    i = 0
    while i < n:
        if bits[i]:
            j = i
            while j < n and bits[j]:
                j += 1
            if boundary == "include" or (i > 0 and j < n):
                runs.append(j - i)
            i = j
        else:
            i += 1
    return runs


def geometric_raw_interval(p: Fraction, order: int, terms: int) -> tuple[Fraction, Fraction]:
    """Bounds on E[X^order] for the shifted geometric by partial summation.

    Past x = terms the term ratio is at most r = ((terms+1)/terms)^order * q,
    so the tail is bounded by the next term times 1/(1-r).  Returns
    (lower, upper) with the true moment guaranteed inside.
    """
    p = Fraction(p)
    q = 1 - p
    partial = Fraction(0)
    qpow = Fraction(1)
    for x in range(1, terms + 1):
        partial += Fraction(x) ** order * p * qpow
        qpow *= q
    ratio = Fraction(terms + 1, terms) ** order * q
    if ratio >= 1:
        raise ValueError("not enough terms for a convergent tail bound")
    tail = Fraction(terms + 1) ** order * p * qpow / (1 - ratio)
    return partial, partial + tail


def central_moments_direct(xs, max_order: int) -> dict[int, Fraction]:
    """Plug-in central moments straight from the definition, in rationals."""
    n = len(xs)
    mean = Fraction(sum(xs), n)
    return {
        m: sum((Fraction(x) - mean) ** m for x in xs) / n
        for m in range(2, max_order + 1)
    }


def raw_from_central(central, mean):
    """Binomial transform central -> raw, orders 1..max(central).

    Central orders 2..max must all be present; order 0 counts as 1 and
    order 1 as 0.
    """
    out = {}
    top = max(central, default=1)
    for n in range(1, top + 1):
        acc = mean**n
        for j in range(2, n + 1):
            acc = acc + comb(n, j) * central[j] * mean ** (n - j)
        out[n] = acc
    return out


def autocorr_direct(rts, max_lag: int) -> list[Fraction]:
    """Per-trace normalized autocorrelation by definition, lags 0..max_lag."""
    n = len(rts)
    mean = Fraction(sum(rts), n)
    d = [Fraction(x) - mean for x in rts]
    denom = sum(v * v for v in d)
    return [
        sum(d[t] * d[t + h] for t in range(n - h)) / denom for h in range(max_lag + 1)
    ]


def count_tuples_by_pattern(n: int, k: int, l: int) -> dict[tuple, int]:
    """Occurrences of each canonical slot multiset among all index tuple pairs."""
    counts: Counter = Counter()
    for i_tuple in itertools.product(range(n), repeat=k):
        ci = Counter(i_tuple)
        for j_tuple in itertools.product(range(n), repeat=l):
            cj = Counter(j_tuple)
            labels = set(ci) | set(cj)
            slots = tuple(sorted((ci.get(x, 0), cj.get(x, 0)) for x in labels))
            counts[slots] += 1
    return dict(counts)


def filter_by_convolution(bits, k: int) -> tuple[int, ...]:
    """Window-sum construction of the gap filter.

    Convolve with a ones vector of k elements, clamp to 1, convolve again,
    keep positions where the second convolution reaches k, and trim the
    k-1 leading elements of the doubly expanded result.
    """
    n = len(bits)
    if n == 0:
        return tuple(bits)
    v = np.ones(k, dtype=np.int64)
    c1 = np.minimum(np.convolve(np.asarray(bits, dtype=np.int64), v), 1)
    c2 = np.convolve(c1, v)
    return tuple(int(b) for b in c2[k - 1 : k - 1 + n] >= k)


def inspection_identity_rhs(steps, exact: bool = False):
    """Right-hand side of the length-bias identity for the mean residual time.

    mrT = (mean^2 + biased variance) / (2 * mean) + 1/2 holds algebraically
    for every sample, so this equals the residual-time statistic up to
    arithmetic error.
    """
    n = len(steps)
    if exact:
        total = sum(steps)
        mean = Fraction(total, n)
        v = Fraction(sum((n * x - total) ** 2 for x in steps), n**3)
        return (mean * mean + v) / (2 * mean) + Fraction(1, 2)
    x = np.asarray(steps, dtype=np.float64)
    mean = float(x.mean())
    v = float(x.var())
    return (mean * mean + v) / (2.0 * mean) + 0.5


@dataclass(frozen=True)
class Coefficient:
    """Monomial (sum_e q_e N^e) * mu^mu_exponent in 1/N and the mean."""

    n_poly: tuple[tuple[int, Fraction], ...]
    mu_exponent: int

    def evaluate(self, n: int, mu):
        acc = sum(q * Fraction(n) ** e for e, q in self.n_poly)
        return acc * mu**self.mu_exponent if self.mu_exponent else acc


def coefficient(multiplicities) -> Coefficient:
    """The package's derivative coefficient for one multiplicity pattern.

    For multiplicities (a_1..a_d) with k = sum(a_r) and P = sum(C(a_r, 2)),
    it should be (-1)^k * N^-k * mu^-(k-1) * (N * (k-2)! * P - k!/2), with
    the P part absent whenever P = 0; the package holds twice its
    N-polynomial as a constant part plus P times a per-pair part.
    """
    mults = tuple(int(a) for a in multiplicities)
    if not mults or any(a < 1 for a in mults):
        raise DomainError("multiplicities must be positive integers")
    k = sum(mults)
    pairs = sum(comb(a, 2) for a in mults)
    (e0, q0), (e1, q1) = _coefficient_parts(k)
    poly = ((e0, Fraction(q0, 2)),) + (((e1, Fraction(q1 * pairs, 2)),) if pairs else ())
    return Coefficient(n_poly=poly, mu_exponent=1 - k)


def uncorrected_coefficient(multiplicities, n: int, mu: Fraction) -> Fraction:
    """The derivative coefficient without the factor N on its pair part.

    (-1)^k * N^-k * mu^-(k-1) * ((k-2)! * P - k!/2), with k = sum(a_r) and
    P = sum(C(a_r, 2)).  It fails the finite-difference check whenever an
    index repeats, and exists only to show that the check can fail.
    """
    k = sum(multiplicities)
    pairs = sum(comb(a, 2) for a in multiplicities)
    pair_part = factorial(k - 2) * pairs if pairs else 0
    scale = (-1) ** k * Fraction(n) ** -k * Fraction(mu) ** (1 - k)
    return scale * (pair_part - Fraction(factorial(k), 2))


def brute_force_truncated_variance(mom, n: int, order: int, coefficient):
    """Direct enumeration of the truncated double sum, with no pattern grouping.

    Every ordered pair of index tuples is visited and its covariance is
    evaluated from the central-moment factorization on the spot.  mom needs
    mean, central and exact attributes; coefficient(multiplicities) must
    return an object whose evaluate(n, mean) gives the derivative
    coefficient.  Cost grows as n^(2*order), so inputs are guarded.
    """
    if n > 6 or order > 4:
        raise ValueError("brute force is guarded to n <= 6 and order <= 4")
    if n < 1 or order < 1:
        raise ValueError("need n >= 1 and order >= 1")
    exact = mom.exact
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0

    def mu_c(m: int):
        if m == 0:
            return one
        if m == 1:
            return zero
        if m not in mom.central:
            raise ValueError(f"central order {m} required")
        return mom.central[m]

    def product_expect(counts: Counter):
        val = one
        for c in counts.values():
            f = mu_c(c)
            if f == 0:
                return zero
            val = val * f
        return val

    coeff_cache: dict[tuple[int, ...], object] = {}

    def coeff_value(tup):
        mults = tuple(sorted(Counter(tup).values()))
        if mults not in coeff_cache:
            coeff_cache[mults] = coefficient(mults).evaluate(n, mom.mean)
        return coeff_cache[mults]

    labels = range(n)
    total = zero
    for k in range(1, order + 1):
        for l in range(1, order + 1):
            denom = Fraction(1, factorial(k) * factorial(l))
            scale = denom if exact else float(denom)
            for i_tuple in itertools.product(labels, repeat=k):
                ci = coeff_value(i_tuple)
                cnt_i = Counter(i_tuple)
                ei = product_expect(cnt_i)
                for j_tuple in itertools.product(labels, repeat=l):
                    cnt_j = Counter(j_tuple)
                    joint = cnt_i.copy()
                    joint.update(cnt_j)
                    sigma = product_expect(joint) - ei * product_expect(cnt_j)
                    if sigma == 0:
                        continue
                    total = total + scale * ci * coeff_value(j_tuple) * sigma
    return total


def per_term_series(expr, mom, n) -> Fraction:
    """The series value as a plain per-term Fraction sum, one term at a time:
    coef * N^-n_exponent * mean^mu_exponent * prod(central_m^c_m)."""
    total = Fraction(0)
    for t in expr.terms:
        val = Fraction(t.coef) * Fraction(n) ** -t.n_exponent * Fraction(mom.mean) ** t.mu_exponent
        for m, c in t.moment_powers:
            val *= Fraction(mom.central[m]) ** c
        total += val
    return total


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


def per_row_draws(dist, n, rng):
    """n draws from one Generator, the geometric inverse-CDF applied to this row alone."""
    if dist.kind == "geom":
        u = 1.0 - rng.random(n)
        return 1.0 + np.floor(np.log(u) / math.log1p(-float(dist.p)))
    return rng.integers(dist.a, dist.b + 1, size=n).astype(np.float64)
