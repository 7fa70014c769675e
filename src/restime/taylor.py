"""Series-expansion variance estimation: term generation and evaluation.

The residual-time statistic is expanded around the all-means point; the
variance of the truncated expansion is a double sum over derivative orders
(k, l) of covariances between products of centered variables.  With
independent identically distributed inputs each covariance depends only on
how index labels repeat inside the two index sets, so terms are grouped by
repetition pattern and counted combinatorially instead of being enumerated
one tuple at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .core import (
    DomainError,
    MomentVector,
    Term,
    VarianceExpression,
    normalize_expression,
)


def _pattern_slots(k: int, l: int) -> list[tuple[tuple[int, int], ...]]:
    """Sorted slot tuples of every repetition pattern for index set sizes k, l.

    Slot (a, b) is one label seen a times in the first set, b in the second;
    thin slots (a + b < 2) and patterns sharing no label have zero covariance.
    """
    if k < 1 or l < 1:
        raise DomainError("both index set sizes must be >= 1")
    pairs = [(a, b) for a in range(k, -1, -1) for b in range(l, -1, -1) if a + b >= 2]
    found: list[tuple[tuple[int, int], ...]] = []

    def rec(i0: int, kr: int, lr: int, slots: list[tuple[int, int]]):
        if kr == 0 and lr == 0:
            if any(a and b for a, b in slots):
                # slots arrive in non-increasing order; reversed is canonical
                found.append(tuple(reversed(slots)))
            return
        for i in range(i0, len(pairs)):
            a, b = pairs[i]
            if a <= kr and b <= lr:
                rec(i, kr - a, lr - b, slots + [(a, b)])

    rec(0, k, l, [])
    found.sort()
    return found


@dataclass(frozen=True)
class Coefficient:
    """Monomial (sum_e q_e N^e) * mu^mu_exponent in 1/N and the mean."""

    n_poly: tuple[tuple[int, Fraction], ...]
    mu_exponent: int

    def evaluate(self, n: int, mu):
        acc = sum(q * Fraction(n) ** e for e, q in self.n_poly)
        return acc * mu**self.mu_exponent if self.mu_exponent else acc


@lru_cache(maxsize=None)
def _doubled_coefficient(mults: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Twice the n_poly of coefficient(mults), as (exponent, integer) pairs.

    mults must be sorted.  Doubling clears the only denominator, the 2 of
    k!/2, so every entry is an integer.
    """
    k = sum(mults)
    pairs = sum(comb(a, 2) for a in mults)
    sign = -1 if k % 2 else 1
    if not pairs:
        return ((-k, -sign * factorial(k)),)
    return ((-k, -sign * factorial(k)), (1 - k, 2 * sign * factorial(k - 2) * pairs))


def coefficient(multiplicities) -> Coefficient:
    """Derivative coefficient for one multiplicity pattern of one index set.

    For multiplicities (a_1..a_d) with k = sum(a_r) and P = sum(C(a_r, 2)),
    the order-k coefficient is

        (-1)^k * N^-k * mu^-(k-1) * (N * (k-2)! * P - k!/2)

    with the P part absent whenever P = 0 (in particular for k = 1).
    """
    mults = tuple(sorted(int(a) for a in multiplicities))
    if not mults or any(a < 1 for a in mults):
        raise DomainError("multiplicities must be positive integers")
    poly = _doubled_coefficient(mults)
    return Coefficient(
        n_poly=tuple((e, Fraction(q, 2)) for e, q in poly),
        mu_exponent=-(sum(mults) - 1),
    )


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


def _pattern_count_int(slots: tuple[tuple[int, int], ...]) -> dict[int, int]:
    """Ordered index-tuple pairs realizing a pattern, as {N exponent: integer}."""
    # k!l!/prod(a!b!) counts position assignments to d labeled slots; swapping
    # identical slots never fixes an assignment, so every division is exact
    scalar = factorial(sum(a for a, _ in slots)) * factorial(sum(b for _, b in slots))
    repeats: dict[tuple[int, int], int] = {}
    for slot in slots:
        scalar //= factorial(slot[0]) * factorial(slot[1])
        repeats[slot] = repeats.get(slot, 0) + 1
    for size in repeats.values():
        scalar //= factorial(size)
    return {e: scalar * q for e, q in _falling_factorial(len(slots))}


# one raw term: num / (4 * k! * l!) * N^-n_exponent * mu^mu_exponent * prod(mu_m^c_m)
_Row = tuple[int, int, int, tuple[tuple[int, int], ...]]


def _build_block(k: int, l: int) -> tuple[_Row, ...]:
    """Raw (unmerged) terms of one (k, l) pair of expansion orders, as integer rows."""
    g = 2 - k - l  # mu exponents of the two coefficients, 1 - k and 1 - l
    rows: list[_Row] = []
    for slots in _pattern_slots(k, l):
        ca = _doubled_coefficient(tuple(sorted(a for a, _ in slots if a > 0)))
        cb = _doubled_coefficient(tuple(sorted(b for _, b in slots if b > 0)))
        count = _pattern_count_int(slots)
        npoly: dict[int, int] = {}
        for ea, qa in ca:
            for eb, qb in cb:
                for ec, qc in count.items():
                    e = ea + eb + ec
                    npoly[e] = npoly.get(e, 0) + qa * qb * qc
        for sign, powers in _sigma_slots(slots):
            for e, q in npoly.items():
                if q:
                    rows.append((sign * q, -e, g, powers))
    return tuple(rows)


@lru_cache(maxsize=None)
def _block(k: int, l: int) -> tuple[_Row, ...]:
    """Cached raw rows of the (k, l) block.

    Cov(A, B) = Cov(B, A) makes the (l, k) block the same multiset of terms
    as the (k, l) block, so only k <= l is ever built.
    """
    if k > l:
        return _block(l, k)
    return _build_block(k, l)


def expression_blocks(order: int) -> dict[tuple[int, int], tuple[Term, ...]]:
    """Per-(k, l) contributions for all 1 <= k, l <= order."""
    if order < 1:
        raise DomainError("order must be >= 1")
    return {
        (k, l): tuple(
            Term(coef=Fraction(num, 4 * factorial(k) * factorial(l)), n_exponent=e,
                 mu_exponent=g, moment_powers=powers)
            for num, e, g, powers in _block(k, l)
        )
        for k in range(1, order + 1)
        for l in range(1, order + 1)
    }


_EXPR_CACHE: dict[int, VarianceExpression] = {}


def generate_expression(order: int) -> VarianceExpression:
    """Merged, canonically ordered variance expression of the given order.

    Generation is exact and cached per order.  Raw terms are summed as
    integers over the common denominator 4 * (order!)^2, each off-diagonal
    (k, l) block counted twice, and the sums pass through
    normalize_expression.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    if order in _EXPR_CACHE:
        return _EXPR_CACHE[order]
    top = factorial(order)
    acc: dict[tuple, int] = {}
    for k in range(1, order + 1):
        for l in range(k, order + 1):
            scale = (top // factorial(k)) * (top // factorial(l)) * (1 if k == l else 2)
            for num, e, g, powers in _block(k, l):
                key = (e, g, powers)
                acc[key] = acc.get(key, 0) + num * scale
    denom = 4 * top * top
    terms = tuple(
        Term(coef=Fraction(q, denom), n_exponent=e, mu_exponent=g, moment_powers=powers)
        for (e, g, powers), q in acc.items()
    )
    expr = normalize_expression(VarianceExpression(order=order, terms=terms))
    _EXPR_CACHE[order] = expr
    return expr


def _needed_central(expr: VarianceExpression, central, convert) -> dict:
    """The central moments expr uses, each passed through convert once."""
    needed = sorted({m for t in expr.terms for m, _ in t.moment_powers})
    missing = [m for m in needed if m not in central]
    if missing:
        raise DomainError(f"central orders {missing} missing")
    return {m: convert(central[m]) for m in needed}


def _evaluate(expr: VarianceExpression, n: int, mean, central: dict, num):
    """The one series evaluator: substitute moments and N into expr.

    num is Fraction or float and converts each coefficient and N.  mean and
    central hold Fractions, Python floats or float64 arrays, and ** acts on
    them as given, so every regime keeps its own pow.  Each distinct power
    is computed once; the operations run in one fixed order, term by term.
    """
    total = num(0)
    nn = num(n)
    mu_pows, powers = {}, {}
    for t in expr.terms:
        val = num(t.coef) * nn ** (-t.n_exponent)
        if t.mu_exponent:
            if t.mu_exponent not in mu_pows:
                mu_pows[t.mu_exponent] = mean**t.mu_exponent
            val *= mu_pows[t.mu_exponent]
        for key in t.moment_powers:
            if key not in powers:
                powers[key] = central[key[0]] ** key[1]
            val *= powers[key]
        total += val
    return total


def evaluate_expression(expr: VarianceExpression, mom: MomentVector, n: int):
    """Substitute moments and N into an expression; exact when mom is exact."""
    if n < 1:
        raise DomainError("N must be >= 1")
    num = Fraction if mom.exact else float
    return _evaluate(expr, n, num(mom.mean), _needed_central(expr, mom.central, num), num)


def evaluate_expression_batch(
    expr: VarianceExpression, mean: np.ndarray, central: dict[int, np.ndarray], n: int
) -> np.ndarray:
    """Float evaluation across many moment vectors at once.

    mean is a 1-d array, central maps order to a same-shape array; one value
    per input row comes back.
    """
    mean = np.asarray(mean, dtype=np.float64)
    central = _needed_central(expr, central, lambda v: np.asarray(v, dtype=np.float64))
    return np.zeros_like(mean) + _evaluate(expr, n, mean, central, float)
