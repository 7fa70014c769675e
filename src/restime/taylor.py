"""Series-expansion variance estimation: term generation and evaluation.

The residual-time statistic is expanded around the all-means point; the
variance of the truncated expansion is a double sum over derivative orders
(k, l) of covariances between products of centered variables.  With
independent identically distributed inputs each covariance depends only on
how index labels repeat inside the two index sets, so terms are grouped by
repetition pattern and counted combinatorially instead of being enumerated
one tuple at a time.

Each (k, l) block exists in two forms, both built from one per-pattern
kernel.  The raw block (_build_block) is one integer row per pattern,
covariance term and power of N: 52,677 rows at order 8, built only by
expression_blocks and never kept.  The merged block (_merged_block), all
that generate_expression reads, sums those rows per (power of N, moment
powers) without making them: patterns are first summed per slot count and
covariance term, as weights on the four parts of the coefficient product.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm

from .core import DomainError, MomentVector, _integer_scale, np

# the highest series order that the CLI, the estimator labels and exact_moments accept
MAX_ORDER = 8


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
        """Prepared forms of this expression, keyed by (N, exact); _prepared fills it."""
        return {}

    def to_dict(self) -> dict:
        return {"order": self.order, "terms": [t.to_dict() for t in self.terms]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@lru_cache(maxsize=None)
def _slot_runs(top: tuple[int, int], kr: int, lr: int) -> tuple[tuple[tuple[int, int], ...], ...]:
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
            runs.extend((slot,) + tail for tail in _slot_runs(min(slot, rest), *rest))
    return tuple(runs)


def _pattern_slots(k: int, l: int) -> list[tuple[tuple[int, int], ...]]:
    """Sorted slot tuples of every repetition pattern for index set sizes k, l.

    Slot (a, b) is one label seen a times in the first set, b in the second;
    thin slots (a + b < 2) and patterns sharing no label have zero covariance.
    """
    if k < 1 or l < 1:
        raise DomainError("both index set sizes must be >= 1")
    # runs arrive in non-increasing order; reversed is canonical
    found = [run[::-1] for run in _slot_runs((k, l), k, l) if any(a and b for a, b in run)]
    found.sort()
    return found


@lru_cache(maxsize=None)
def _coefficient_parts(k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The constant and per-pair parts of twice an order-k coefficient's
    N-polynomial, each as one (exponent, integer) pair.

    For multiplicities (a_1..a_d) with k = sum(a_r) and P = sum(C(a_r, 2)),
    the order-k coefficient is

        (-1)^k * N^-k * mu^-(k-1) * (N * (k-2)! * P - k!/2)

    so twice its N-polynomial is the first part plus P times the second: it
    depends on the multiplicities only through k and P.  Doubling clears the
    only denominator, the 2 of k!/2.  P = 0 whenever k = 1.
    """
    sign = -1 if k % 2 else 1
    return (-k, -sign * factorial(k)), (1 - k, 2 * sign * factorial(k - 2) if k > 1 else 0)


def _sigma_slots(slots: tuple[tuple[int, int], ...]):
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


@lru_cache(maxsize=None)
def _falling_factorial(d: int) -> tuple[tuple[int, int], ...]:
    """N*(N-1)*...*(N-d+1) as (exponent, integer coefficient) pairs."""
    poly: dict[int, int] = {0: 1}
    for t in range(d):
        nxt: dict[int, int] = {}
        for e, q in poly.items():
            nxt[e + 1] = nxt.get(e + 1, 0) + q
            if t:
                nxt[e] = nxt.get(e, 0) - q * t
        poly = nxt
    return tuple(poly.items())


def _slot_sums(slots: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
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


def _pattern_kernel(k: int, l: int):
    """Per repetition pattern of the (k, l) block: (count, Pa, Pb, d, covariance)."""
    for slots in _pattern_slots(k, l):
        yield (*_slot_sums(slots), len(slots), _sigma_slots(slots))


def _n_poly(k: int, l: int, d: int, weights) -> tuple[tuple[int, int], ...]:
    """Nonzero (n_exponent, integer) pairs of w*A + wa*B_a + wb*B_b + wab*B_ab
    for weights (w, wa, wb, wab), times N's falling factorial of length d.

    A, B_a, B_b and B_ab are the products of the two doubled coefficients'
    parts: const*const, per-pair*const, const*per-pair, per-pair*per-pair.
    One pattern has weights (c, c*Pa, c*Pb, c*Pa*Pb) for its count c; sums
    of such weights give the patterns' summed polynomial.
    """
    (ea0, qa0), (ea1, qa1) = _coefficient_parts(k)
    (eb0, qb0), (eb1, qb1) = _coefficient_parts(l)
    w, wa, wb, wab = weights
    npoly: dict[int, int] = {}
    for ea, eb, q in ((ea0, eb0, w * qa0 * qb0), (ea0, eb1, wb * qa0 * qb1),
                      (ea1, eb0, wa * qa1 * qb0), (ea1, eb1, wab * qa1 * qb1)):
        for ec, qc in _falling_factorial(d):
            e = ea + eb + ec
            npoly[e] = npoly.get(e, 0) + q * qc
    return tuple((-e, q) for e, q in npoly.items() if q)


# one raw term: num / (4 * k! * l!) * N^-n_exponent * mu^mu_exponent * prod(mu_m^c_m)
_Row = tuple[int, int, int, tuple[tuple[int, int], ...]]


def _build_block(k: int, l: int) -> tuple[_Row, ...]:
    """Raw (unmerged) terms of one (k, l) pair of expansion orders, as integer
    rows; kept for expression_blocks, which perfbench reads."""
    g = 2 - k - l  # mu exponents of the two coefficients, 1 - k and 1 - l
    return tuple(
        (sign * q, e, g, powers)
        for c, pa, pb, d, sigma in _pattern_kernel(k, l)
        for e, q in _n_poly(k, l, d, (c, c * pa, c * pb, c * pa * pb))
        for sign, powers in sigma
    )


@lru_cache(maxsize=None)
def _merged_block(k: int, l: int) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], int], ...]:
    """The (k, l) block's raw rows summed per (n_exponent, moment_powers).

    The patterns' _n_poly weights are summed per (slot count, moment
    powers) first, so each such pair expands one polynomial.  Zero sums may
    stay; generate_expression drops them after the last merge.
    """
    weights: dict[tuple, list[int]] = {}
    for c, pa, pb, d, sigma in _pattern_kernel(k, l):
        for sign, powers in sigma:
            sc = sign * c
            w = weights.setdefault((d, powers), [0, 0, 0, 0])
            w[0] += sc
            w[1] += sc * pa
            w[2] += sc * pb
            w[3] += sc * pa * pb
    acc: dict[tuple, int] = {}
    for (d, powers), w in weights.items():
        for e, q in _n_poly(k, l, d, w):
            key = (e, powers)
            acc[key] = acc.get(key, 0) + q
    return tuple(acc.items())


def expression_blocks(order: int) -> dict[tuple[int, int], tuple[Term, ...]]:
    """Per-(k, l) contributions for all 1 <= k, l <= order, from the raw rows.

    Cov(A, B) = Cov(B, A) makes the (l, k) block the same multiset of terms
    as the (k, l) block, so each k <= l block is built once per call and
    serves (l, k) too; nothing is kept between calls.  No package code calls
    this; perfbench/child.py reads it for its taylor.raw_terms count.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    built = {}
    for k in range(1, order + 1):
        for l in range(k, order + 1):
            scale = 4 * factorial(k) * factorial(l)
            built[k, l] = built[l, k] = tuple(
                Term(coef=Fraction(num, scale), n_exponent=e, mu_exponent=g, moment_powers=powers)
                for num, e, g, powers in _build_block(k, l)
            )
    return {(k, l): built[k, l] for k in range(1, order + 1) for l in range(1, order + 1)}


def generate_expression(order: int) -> VarianceExpression:
    """Merged, canonically ordered variance expression of the given order.

    Generation is exact and cached per order: a positional and a keyword
    call return the same expression.  cache_info() reports the cache.
    """
    return _generate(order)


@lru_cache(maxsize=None)
def _generate(order: int) -> VarianceExpression:
    """generate_expression's body, cached by the order alone.

    The merged (k, l) blocks are summed as integers over the common
    denominator 4 * (order!)^2, each off-diagonal block counted twice;
    nonzero sums become the terms, sorted by (n_exponent, mu_exponent,
    moment_powers).
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    top = factorial(order)
    acc: dict[tuple, int] = {}
    for k in range(1, order + 1):
        for l in range(k, order + 1):
            scale = (top // factorial(k)) * (top // factorial(l)) * (1 if k == l else 2)
            g = 2 - k - l
            for (e, powers), q in _merged_block(k, l):
                key = (e, g, powers)
                acc[key] = acc.get(key, 0) + q * scale
    denom = 4 * top * top
    terms = tuple(
        Term(coef=Fraction(q, denom), n_exponent=e, mu_exponent=g, moment_powers=powers)
        for (e, g, powers), q in sorted(acc.items())
        if q
    )
    return VarianceExpression(order=order, terms=terms)


generate_expression.cache_info = _generate.cache_info


def _needed_central(orders, central, convert) -> dict:
    """The central moments of the given orders, each passed through convert once."""
    missing = [m for m in orders if m not in central]
    if missing:
        raise DomainError(f"central orders {missing} missing")
    return {m: convert(central[m]) for m in orders}


# prepared forms kept per expression; a few sizes cover the CLI and an mc grid
_PREPARED_BOUND = 8


def _collapsed(expr: VarianceExpression, n) -> tuple:
    """Exact prepared form at N = n: (entries, den, shift), all integers.

    Every term has total degree 2 in the moments (mu_exponent + sum of
    m * c over its moment powers is 2), so with mean = A/d and
    mu_m = B_m/d^m a term is its coefficient times A^g * prod(B_m^c) / d^2.
    The coefficients at N are written over one denominator den, the lcm of
    the coefficient denominators times N^e_max, and their numerators are
    summed per (mu_exponent, moment_powers).  Each entry is (numerator,
    g + shift, moment_powers), with shift = max(0, -min g) so that every
    power of A is whole; the series is then
    sum(numerator * A^(g + shift) * prod(B_m^c)) / (den * d^2 * A^shift).
    A term of any other degree raises DomainError.
    """
    for t in expr.terms:
        if t.mu_exponent + sum(m * c for m, c in t.moment_powers) != 2:
            raise DomainError(f"term {t.text()} is not of total degree 2 in the moments")
    ratios = [Fraction(t.coef).as_integer_ratio() for t in expr.terms]
    den = lcm(*(q for _, q in ratios))
    top = max((t.n_exponent for t in expr.terms), default=0)
    shift = max(0, *(-t.mu_exponent for t in expr.terms))
    # N = p/r, so N^-e = r^e * p^(top - e) / p^top
    p, r = Fraction(n).as_integer_ratio()
    scale = {e: p ** (top - e) * r**e for e in {t.n_exponent for t in expr.terms}}
    acc: dict[tuple, int] = {}
    for t, (a, q) in zip(expr.terms, ratios):
        key = (t.mu_exponent + shift, t.moment_powers)
        acc[key] = acc.get(key, 0) + a * (den // q) * scale[t.n_exponent]
    entries = tuple((v, g, powers) for (g, powers), v in acc.items())
    return entries, den * p**top, shift


def _prepared(expr: VarianceExpression, n, exact: bool) -> tuple:
    """The prepared form of expr at N = n, whose entries _evaluate reads.

    The exact form is _collapsed's (entries, den, shift), in integers.  The
    float form is a tuple of one (coefficient at N, mu_exponent,
    moment_powers) entry per term, the coefficient being
    float(coef) * float(N) ** -n_exponent, the product a per-term float sum
    starts each term with, so float results keep every byte.  Kept on the
    expression, at most _PREPARED_BOUND forms, oldest dropped first.
    """
    cache = expr._prepared_forms
    form = cache.get((n, exact))
    if form is None:
        if exact:
            form = _collapsed(expr, n)
        else:
            nn = float(n)
            form = tuple(
                (float(t.coef) * nn ** (-t.n_exponent), t.mu_exponent, t.moment_powers)
                for t in expr.terms
            )
        if len(cache) >= _PREPARED_BOUND:
            del cache[next(iter(cache))]
        cache[(n, exact)] = form
    return form


def _evaluate(entries: tuple, mean, central: dict):
    """The one series evaluator: substitute moments into prepared entries.

    entries are (coefficient, mu_exponent, moment_powers) triples with N
    already in the coefficients: the float form of _prepared, or the
    integer entries of the exact one.  mean and central hold Python ints
    (the exact form's A and B_m), Python floats or float64 arrays, and **
    acts on them as given, so every regime keeps its own pow; the sum
    starts from 0, which adds nothing in any of them.  Each distinct power
    is computed once; the operations run in one fixed order, entry by entry.
    """
    total = 0
    mu_pows, powers = {}, {}
    for val, mu_exponent, moment_powers in entries:
        if mu_exponent:
            if mu_exponent not in mu_pows:
                mu_pows[mu_exponent] = mean**mu_exponent
            val *= mu_pows[mu_exponent]
        for key in moment_powers:
            if key not in powers:
                powers[key] = central[key[0]] ** key[1]
            val *= powers[key]
        total += val
    return total


def evaluate_expression(expr: VarianceExpression, mom: MomentVector, n: int):
    """Substitute moments and N into an expression; exact when mom is exact.

    The exact value is integer work on _collapsed's form and on the moments
    written over one integer d (core._integer_scale), then one Fraction.
    A float power that overflows raises DomainError.
    """
    if n < 1:
        raise DomainError("N must be >= 1")
    if mom.exact:
        central = _needed_central(expr.central_orders, mom.central, Fraction)
        d, mean, central = _integer_scale(Fraction(mom.mean), central)
        entries, den, shift = _prepared(expr, n, True)
        return Fraction(_evaluate(entries, mean, central), den * d * d * mean**shift)
    mean, central = float(mom.mean), _needed_central(expr.central_orders, mom.central, float)
    try:
        return _evaluate(_prepared(expr, n, False), mean, central)
    except OverflowError:
        raise DomainError(f"order-{expr.order} series overflows float64") from None


def evaluate_expression_batch(
    expr: VarianceExpression, mean: np.ndarray, central: dict[int, np.ndarray], n: int
) -> np.ndarray:
    """Float evaluation across many moment vectors at once.

    mean is a 1-d array, central maps order to a same-shape array; one value
    per input row comes back.
    """
    mean = np.asarray(mean, dtype=np.float64)
    central = _needed_central(expr.central_orders, central,
                              lambda v: np.asarray(v, dtype=np.float64))
    return np.zeros_like(mean) + _evaluate(_prepared(expr, n, False), mean, central)
