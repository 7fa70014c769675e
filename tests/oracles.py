"""Independent reference implementations and helpers used only by the test suite.

Everything here is deliberately written from first principles, without
importing any package internals, so a shared bug cannot hide: finite
differences for derivative coefficients, explicit enumeration (by tuple
and by weighted multiset) for exact variances and pattern counts, the
series patterns one at a time from their sorted slots
(`pattern_kernel_reference`, against the package's cached-tail walk), a
direct double sum for the truncated series, a plain scan and a window-sum
construction for the gap filter, a plain scan for run extraction, a token
walk for trace parsing, partial sums with rigorous tail bounds for
geometric moments, weighted plug-in moments from their definition, a
binomial transform from central to raw moments, the delta-method ratio
estimator from integer step sums, a per-term Fraction
sum for the series value, every number of an estimate report from plain
sums over its steps (`report_reference`) with a midpoint test for a
rounded square root, a per-row inverse-CDF for replicate draws, a merge of
like terms into canonical order (`normalize_expression`) and fixed-decimal
rendering (`format_fixed`).

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
from functools import lru_cache
from math import comb, factorial

import numpy as np

from restime.core import DomainError
from restime.taylor import Term, VarianceExpression, _coefficient_parts


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


def weighted_moments_direct(values, weights, max_order: int) -> tuple[Fraction, dict[int, Fraction]]:
    """Mean and central moments 2..max_order of values under weights, straight
    from their definition, in rationals."""
    total = Fraction(sum(weights))
    mean = sum(w * v for v, w in zip(values, weights)) / total
    return mean, {
        m: sum(w * (v - mean) ** m for v, w in zip(values, weights)) / total
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


@lru_cache(maxsize=None)
def slot_runs(top: tuple[int, int], kr: int, lr: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every non-increasing run of slots (a, b) with a + b >= 2, none above
    top, using up exactly kr and lr.

    Shared by all (k, l) blocks: a run's tail depends only on its last slot
    and on what is left of the two index sets.
    """
    if not kr and not lr:
        return ((),)
    ta, tb = top
    runs = []
    for a in range(min(ta, kr), -1, -1):
        for b in range(min(tb if a == ta else lr, lr), max(1 - a, -1), -1):
            slot, rest = (a, b), (kr - a, lr - b)
            # a bound above what is left bounds nothing, so such states are shared
            runs.extend((slot,) + tail for tail in slot_runs(min(slot, rest), *rest))
    return tuple(runs)


def pattern_slots(k: int, l: int) -> list[tuple[tuple[int, int], ...]]:
    """Sorted slot tuples of every repetition pattern for index set sizes k, l.

    Slot (a, b) is one label seen a times in the first set, b in the second;
    thin slots (a + b < 2) and patterns sharing no label have zero covariance.
    """
    if k < 1 or l < 1:
        raise DomainError("both index set sizes must be >= 1")
    # runs arrive in non-increasing order; reversed is canonical
    found = [run[::-1] for run in slot_runs((k, l), k, l) if any(a and b for a, b in run)]
    found.sort()
    return found


def sigma_slots(slots: tuple[tuple[int, int], ...]):
    """Covariance of one pattern's two centered products, in central moments:
    (sign, powers) pairs, the joint expectation minus the marginals' product."""
    combined: dict[int, int] = {}
    for a, b in slots:
        combined[a + b] = combined.get(a + b, 0) + 1
    # every slot has a + b >= 2, so the joint product never sees order 1
    out = [(1, tuple(sorted(combined.items())))]
    if all(a != 1 and b != 1 for a, b in slots):
        powers: dict[int, int] = {}
        for m in itertools.chain.from_iterable(slots):
            if m:
                powers[m] = powers.get(m, 0) + 1
        out.append((-1, tuple(sorted(powers.items()))))
    return tuple(out)


def slot_sums(slots: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
    """(count, Pa, Pb) of a sorted pattern, in one pass over its slots.

    count is k!l!/prod(a!b!) divided by r! for each run of r equal slots;
    Pa and Pb are the pair sums sum(C(a, 2)) and sum(C(b, 2)).
    """
    # k!l!/prod(a!b!) counts position assignments to d labeled slots; swapping
    # identical slots never fixes an assignment, so the division is exact
    k = l = pa = pb = 0
    den, run, prev = 1, 0, None
    for slot in slots:
        a, b = slot
        k += a
        l += b
        pa += a * (a - 1)
        pb += b * (b - 1)
        run = run + 1 if slot == prev else 1
        den *= factorial(a) * factorial(b) * run
        prev = slot
    return factorial(k) * factorial(l) // den, pa // 2, pb // 2


def pattern_kernel_reference(k: int, l: int):
    """The (count, Pa, Pb, d, covariance) tuples of taylor._pattern_kernel,
    one pattern at a time from its sorted slots."""
    for slots in pattern_slots(k, l):
        yield (*slot_sums(slots), len(slots), sigma_slots(slots))


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
    evaluated from the central-moment factorization on the spot, exactly.
    mom needs mean and central attributes; coefficient(multiplicities) must
    return an object whose evaluate(n, mean) gives the derivative
    coefficient.  Cost grows as n^(2*order), so inputs are guarded.
    """
    if n > 6 or order > 4:
        raise ValueError("brute force is guarded to n <= 6 and order <= 4")
    if n < 1 or order < 1:
        raise ValueError("need n >= 1 and order >= 1")
    zero, one = Fraction(0), Fraction(1)

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
            scale = Fraction(1, factorial(k) * factorial(l))
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


def report_reference(steps, series: dict, dt=None) -> dict:
    """Every number of an estimate report as an exact rational, from plain
    sums over the steps, in the report's field order.

    series maps each method label to its VarianceExpression, or to None for
    the delta-method 'ratio', and the series is summed per term on
    central_moments_direct.  An sd field holds the variance whose square
    root it reports; dt is taken at its exact value.
    """
    xs = [int(x) for x in steps]
    n = len(xs)
    mean = Fraction(sum(xs), n)
    mrt_var = {}
    for label, expr in series.items():
        if expr is None:
            mrt_var[label] = ratio_from_sums(xs)
        else:
            mom = _Moments(mean, central_moments_direct(xs, 2 * expr.order))
            mrt_var[label] = per_term_series(expr, mom, n)
    residence_var = sum((x - mean) ** 2 for x in xs) / (n - 1) / n
    out = {}
    for unit, scale in [("steps", Fraction(1))] + ([] if dt is None else [("time", Fraction(dt))]):
        out[f"mrt_{unit}"] = statistic(xs) * scale
        out[f"mrt_var_{unit}"] = {k: v * scale**2 for k, v in mrt_var.items()}
        out[f"mrt_sd_{unit}"] = {k: v * scale**2 for k, v in mrt_var.items()}
        out[f"mRT_{unit}"] = mean * scale
        out[f"mRT_var_{unit}"] = residence_var * scale**2
        out[f"mRT_sd_{unit}"] = residence_var * scale**2
    return out


@dataclass(frozen=True)
class _Moments:
    mean: Fraction
    central: dict


def is_rounded_sqrt(f: float, v: Fraction) -> bool:
    """True when f is the float nearest sqrt(v): v lies between the squares of
    the midpoints from f to its two neighbours."""
    lo = (Fraction(f) + Fraction(math.nextafter(f, 0.0))) / 2
    hi = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    return lo * lo <= v <= hi * hi


def _leaves(want: dict):
    """(field, where, exact value) for each number, where naming a dict entry by its key."""
    for name, value in want.items():
        for key, v in value.items() if isinstance(value, dict) else [(None, value)]:
            yield name, name if key is None else f"{name}[{key!r}]", key, v


def first_overflow(want: dict) -> str | None:
    """The first number of report_reference's want that float64 cannot hold.

    An sd field is skipped: its variance, one field earlier, overflows first.
    """
    for name, where, _, v in _leaves(want):
        if "_sd_" not in name:
            try:
                float(v)
            except OverflowError:
                return where
    return None


def report_mismatches(fields: dict, want: dict) -> list[str]:
    """The numbers of a report's fields that are not want's exact values rounded
    once to a float (an sd field: the rounded square root of its variance)."""
    bad = []
    for name, where, key, v in _leaves(want):
        got = fields[name] if key is None else fields[name][key]
        ok = type(got) is float and (is_rounded_sqrt(got, v) if "_sd_" in name else got == float(v))
        if not ok:
            bad.append(where)
    return bad


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
