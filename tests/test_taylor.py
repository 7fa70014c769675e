import hashlib
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import restime
from restime import mc
from restime.core import (
    DistributionSpec,
    DomainError,
    MomentVector,
    Term,
    VarianceExpression,
)
from restime.moments import exact_moments, sample_moments
from restime.taylor import (
    _PREPARED_BOUND,
    _falling_factorial,
    _pattern_slots,
    _prepared,
    _sigma_slots,
    _slot_sums,
    evaluate_expression,
    evaluate_expression_batch,
    expression_blocks,
    generate_expression,
)

from .oracles import (
    brute_force_truncated_variance,
    coefficient,
    count_tuples_by_pattern,
    fd_partial,
    normalize_expression,
    per_term_series,
    uncorrected_coefficient,
)

EXPECTED_TERM_COUNTS = {1: 1, 2: 9, 3: 32, 4: 79, 5: 173, 6: 352, 7: 671, 8: 1235}

# sha256 of generate_expression(m).to_json(), as produced by the original
# Fraction-based generator; any change to a coefficient or the ordering shows
EXPRESSION_SHA256 = {
    1: "6a373f009cef95b62d5dac3679d846a12c1c0b0e776d2ec8cda0fc7b9ced8b26",
    2: "dc0849edbb6675b6a3a7c0822c5df7b31bfd0510d7fdb83feab38962fdd22e4a",
    3: "e11267ac3764f83c162339c7838f0b2c4d5313f952de35c3fdf0638968ba41ce",
    4: "cfbb15d0726774883de88edb1a055de4d358d86bd2dc19fecd3d94bc68313a9b",
    5: "45930c3c9af0dd464c00778b2f057bd405aeeeff1a0773a8ad9c1ec55f26e74b",
    6: "600c493ee178767c238789df10d30d12e24ea5b09aead4c5f85be5ee32608ad6",
    7: "9ec81302a8498333ff00de7daaf84d35d7adde537396ef8a6835929291be02e7",
    8: "3533826cc2748d2f91655ff0a88084e247e30dc79ae47a29544226b7bf69448c",
}

# sha256 over repr(sorted(_build_block(min(k, l), max(k, l)))) for k, l = 1..8
# in turn (the rows expression_blocks serves for (k, l)), as produced
# by the generator that built every raw row before merging
RAW_ROWS_SHA256 = "0714cb203dbe2f4eb9da8f3a42ae52d09fe28bc0c2c91947873cbe89a449f514"


def eval_count(slots, n: int) -> int:
    count = _slot_sums(slots)[0]
    return count * sum(q * n**e for e, q in _falling_factorial(len(slots)))


def random_moment_vector(rng: random.Random, max_order: int) -> MomentVector:
    """Dyadic-rational moments so float evaluation is exact on small cases."""
    mean = 1 + Fraction(rng.randrange(1, 2**8), 2**6)
    central = {2: Fraction(rng.randrange(1, 2**8), 2**6)}
    for m in range(3, max_order + 1):
        central[m] = Fraction(rng.randrange(-(2**7), 2**8), 2**6)
    return MomentVector(mean=mean, central=central)


class TestEnumerate:
    def test_single_shared_index(self):
        assert _pattern_slots(1, 1) == [((1, 1),)]

    def test_two_one(self):
        # the split {(1,1),(1,0)} dies on the thin (1,0) slot
        assert _pattern_slots(2, 1) == [((2, 1),)]

    def test_label_renaming_gives_same_pattern(self):
        # labels are interchangeable, so each pattern appears once, sorted
        pats = _pattern_slots(4, 3)
        assert ((2, 0), (2, 3)) in pats
        assert ((2, 3), (2, 0)) not in pats

    def test_all_patterns_valid(self):
        for k, l in ((2, 2), (3, 2), (4, 4)):
            pats = _pattern_slots(k, l)
            assert len(pats) == len(set(pats))
            for slots in pats:
                assert list(slots) == sorted(slots)
                assert sum(a for a, _ in slots) == k and sum(b for _, b in slots) == l
                assert all(a + b >= 2 for a, b in slots)
                assert any(a and b for a, b in slots)

    def test_rejects_empty_sets(self):
        with pytest.raises(DomainError):
            _pattern_slots(0, 1)


class TestCoefficient:
    def test_order_one(self):
        assert coefficient((1,)).evaluate(30, Fraction(5)) == Fraction(1, 60)

    def test_order_two_distinct(self):
        c = coefficient((1, 1)).evaluate(4, Fraction(3))
        assert c == Fraction(-1, 48)

    def test_order_two_repeated(self):
        c = coefficient((2,)).evaluate(4, Fraction(3))
        assert c == Fraction(3, 48)  # (N-1) / (N^2 mu)

    def test_repeated_case_against_finite_differences(self):
        n, mu, h = 4, Fraction(5, 2), Fraction(1, 2**16)
        fd = fd_partial((2,), n, mu, h)
        good = coefficient((2,)).evaluate(n, mu)
        assert abs(fd - good) / abs(good) < Fraction(1, 10**6)
        # dropping the factor N from the pair part zeroes this coefficient,
        # which the finite difference refutes
        bad = uncorrected_coefficient((2,), n, mu)
        assert bad == 0
        assert abs(fd - bad) > abs(good) / 2

    def test_mixed_order_three(self):
        n, mu, h = 5, Fraction(1), Fraction(1, 2**13)
        fd = fd_partial((2, 1), n, mu, h)
        val = coefficient((2, 1)).evaluate(n, mu)
        scale = max(abs(val), Fraction(1, n**3))
        assert abs(fd - val) / scale < Fraction(1, 10**6)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            coefficient(())


class TestSigma:
    def test_worked_pattern(self):
        assert _sigma_slots(((2, 0), (2, 3))) == (
            (1, ((2, 1), (5, 1))),
            (-1, ((2, 2), (3, 1))),
        )

    def test_single_appearance_kills_marginal(self):
        assert _sigma_slots(((1, 1),)) == ((1, ((2, 1),)),)

    def test_marginal_survives_when_every_multiplicity_repeats(self):
        assert _sigma_slots(((2, 2),)) == ((1, ((4, 1),)), (-1, ((2, 2),)))


class TestPatternCount:
    def test_shared_single(self):
        assert eval_count(((1, 1),), 7) == 7

    def test_triple_index(self):
        assert eval_count(((2, 1),), 7) == 7

    def test_two_shared_singles(self):
        assert eval_count(((1, 1), (1, 1)), 7) == 2 * 7 * 6

    def test_against_tuple_enumeration(self):
        for n in (2, 3, 4, 5):
            for k in range(1, 5):
                for l in range(1, 7 - k):
                    counts = count_tuples_by_pattern(n, k, l)
                    assert sum(counts.values()) == n ** (k + l)
                    for slots in _pattern_slots(k, l):
                        assert eval_count(slots, n) == counts.get(slots, 0)


class TestGenerate:
    def test_order_one_text(self):
        assert generate_expression(1).text() == "1/4 * N^-1 * mu2"

    def test_term_counts(self):
        for order, expected in EXPECTED_TERM_COUNTS.items():
            assert len(generate_expression(order).terms) == expected

    def test_expression_digests(self):
        for order, digest in EXPRESSION_SHA256.items():
            text = generate_expression(order).to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_raw_terms_and_block_symmetry(self):
        import restime.taylor as taylor_mod

        blocks = expression_blocks(8)
        assert sum(len(terms) for terms in blocks.values()) == 52677
        # only k <= l is built and (l, k) shares it; Cov(A, B) = Cov(B, A)
        # makes a direct build of (l, k) the same multiset of raw terms
        for k in range(1, 9):
            for l in range(1, 9):
                direct = Counter(taylor_mod._build_block(k, l))
                served = taylor_mod._build_block(min(k, l), max(k, l))
                assert direct == Counter(served)
                assert direct == Counter(taylor_mod._build_block(l, k))
                scale = 4 * math.factorial(k) * math.factorial(l)
                assert [(t.coef * scale, t.n_exponent, t.mu_exponent, t.moment_powers)
                        for t in blocks[k, l]] == list(served)

    def test_raw_rows_digest(self):
        import restime.taylor as taylor_mod

        h = hashlib.sha256()
        for k in range(1, 9):
            for l in range(1, 9):
                h.update(repr(sorted(taylor_mod._build_block(min(k, l), max(k, l)))).encode())
        assert h.hexdigest() == RAW_ROWS_SHA256

    def test_generated_expressions_are_canonical(self):
        # the merged blocks build sorted, nonzero terms without a second merge
        for order in range(1, 9):
            expr = generate_expression(order)
            assert normalize_expression(expr) == expr

    def test_generation_is_cached_per_order(self):
        assert generate_expression(6) is generate_expression(6)
        assert generate_expression.cache_info().currsize >= 1

    def test_keyword_call_shares_the_cache(self):
        assert generate_expression(order=3) is generate_expression(3)

    def test_generation_builds_no_raw_rows(self):
        # every _build_block call goes through the module global, so the wrapper
        # sees them all; the last count shows that it does
        code = (
            "import restime.taylor as t; calls = []; build = t._build_block\n"
            "t._build_block = lambda k, l: calls.append((k, l)) or build(k, l)\n"
            "t.generate_expression(8); print(len(calls), t._merged_block.cache_info().currsize)\n"
            "t.expression_blocks(2); print(len(calls))"
        )
        src = str(Path(restime.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.split() == ["0", "36", "3"]

    def test_nesting_consistency(self):
        blocks = expression_blocks(3)
        restricted = tuple(
            t for (k, l), terms in blocks.items() if k <= 2 and l <= 2 for t in terms
        )
        merged = normalize_expression(VarianceExpression(order=2, terms=restricted))
        assert merged == generate_expression(2)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            generate_expression(0)


class TestEvaluate:
    def test_missing_moment_order(self):
        expr = generate_expression(2)
        mom = MomentVector(mean=2.0, central={2: 1.0})
        with pytest.raises(DomainError, match="central orders"):
            evaluate_expression(expr, mom, 10)

    def test_float_overflow_is_domain_error(self):
        expr = generate_expression(2)
        huge = MomentVector(mean=2.0, central={2: 1e200, 3: 1.0, 4: 1.0})
        with pytest.raises(DomainError, match="order-2 series overflows float64"):
            evaluate_expression(expr, huge, 10)
        exact = MomentVector(mean=Fraction(2), central={2: Fraction(10**200), 3: Fraction(1),
                                                        4: Fraction(1)})
        assert isinstance(evaluate_expression(expr, exact, 10), Fraction)

    def test_rejects_bad_n(self):
        expr = generate_expression(1)
        mom = MomentVector(mean=2.0, central={2: 1.0})
        with pytest.raises(DomainError):
            evaluate_expression(expr, mom, 0)

    def test_exact_and_float_agree(self):
        mom_x = exact_moments(DistributionSpec.geometric(Fraction(1, 2)), 16)
        mom_f = MomentVector(
            mean=float(mom_x.mean),
            central={m: float(v) for m, v in mom_x.central.items()},
        )
        expr = generate_expression(8)
        a = evaluate_expression(expr, mom_x, 30)
        b = evaluate_expression(expr, mom_f, 30)
        assert math.isclose(float(a), b, rel_tol=1e-11)

    def test_constant_moments_give_zero(self):
        mom = MomentVector(
            mean=Fraction(5),
            central={m: Fraction(0) for m in range(2, 17)},
        )
        for order in (1, 4, 8):
            assert evaluate_expression(generate_expression(order), mom, 12) == 0

    def test_batch_matches_scalar(self):
        rng = random.Random(17)
        expr = generate_expression(4)
        moms = [random_moment_vector(rng, 8) for _ in range(6)]
        mean = np.array([float(m.mean) for m in moms])
        central = {
            order: np.array([float(m.central[order]) for m in moms])
            for order in range(2, 9)
        }
        batch = evaluate_expression_batch(expr, mean, central, 25)
        for i, m in enumerate(moms):
            floats = MomentVector(
                mean=float(m.mean),
                central={o: float(v) for o, v in m.central.items()},
            )
            scalar = evaluate_expression(expr, floats, 25)
            assert math.isclose(batch[i], scalar, rel_tol=1e-12)

    def test_coefficients_and_orders_are_converted_once(self):
        expr = generate_expression(8)
        assert expr.central_orders == tuple(range(2, 17))
        mom = MomentVector(mean=2.0, central={m: 1.0 for m in range(2, 17)})
        calls = []
        real = Fraction.__float__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Fraction, "__float__", lambda q: calls.append(q) or real(q))
            # a float evaluation at a new N builds its form, one conversion per term
            n = 977
            assert (n, False) not in expr._prepared_forms
            first = evaluate_expression(expr, mom, n)
            assert calls == [t.coef for t in expr.terms]
            # a second evaluation at that N reads the stored form and converts nothing
            calls.clear()
            assert evaluate_expression(expr, mom, n) == first
            assert calls == []

    def test_exact_keeps_a_float_coefficient_exact(self):
        expr = VarianceExpression(order=1, terms=(Term(coef=0.1, n_exponent=1, mu_exponent=0,
                                                       moment_powers=((2, 1),)),))
        mom = MomentVector(mean=Fraction(2), central={2: Fraction(3)})
        assert evaluate_expression(expr, mom, 7) == Fraction(0.1) * 3 / 7

    def test_n_one_recovers_exact_variance(self):
        # with a single residence the statistic is linear, so every
        # truncation order reproduces the exact variance
        for d in (DistributionSpec.uniform(1, 3), DistributionSpec.uniform(2, 5)):
            mom = exact_moments(d, 16)
            target = mc.exact_variance_small(d, 1)
            for order in range(1, 9):
                assert evaluate_expression(generate_expression(order), mom, 1) == target


def _order_one(coef):
    return VarianceExpression(order=1, terms=(Term(coef=coef, n_exponent=1, mu_exponent=0,
                                                   moment_powers=((2, 1),)),))


class TestCollapsed:
    """The exact evaluator reads each expression collapsed at N; the per-term
    Fraction sum in oracles is the reference."""

    @pytest.mark.parametrize("dist, n", [
        (DistributionSpec.uniform(1, 40), 5),
        (DistributionSpec.geometric(Fraction(1, 2)), 30),
        (DistributionSpec.uniform(1, 40), 1),
        # the per-term path took any rational N; the collapse keeps that
        (DistributionSpec.uniform(1, 40), Fraction(7, 2)),
    ])
    def test_matches_per_term_sum_on_exact_moments(self, dist, n):
        self._check_orders(exact_moments(dist, 16), n)

    def test_matches_per_term_sum_on_sample_moments(self):
        dist = DistributionSpec.geometric(Fraction(1, 20))
        steps = mc.sample(dist, 30, mc.replicate_stream(7, 0))
        self._check_orders(sample_moments(steps, 16, exact=True), 30)

    @staticmethod
    def _check_orders(mom, n):
        for order in range(1, 9):
            expr = generate_expression(order)
            value = evaluate_expression(expr, mom, n)
            assert isinstance(value, Fraction)
            assert value == per_term_series(expr, mom, n)

    def test_every_term_has_total_degree_two(self):
        # the exact form writes each term over d^2, d the moments' common scale
        for order in range(1, 9):
            for t in generate_expression(order).terms:
                assert t.mu_exponent + sum(m * c for m, c in t.moment_powers) == 2

    def test_term_of_another_degree_is_refused(self):
        expr = VarianceExpression(order=1, terms=(Term(coef=Fraction(1, 4), n_exponent=1,
                                                       mu_exponent=-1, moment_powers=((2, 1),)),))
        mom = MomentVector(mean=Fraction(2), central={2: Fraction(3)})
        with pytest.raises(DomainError, match="not of total degree 2"):
            evaluate_expression(expr, mom, 7)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_term_sum_on_random_moments(self, data):
        order = data.draw(st.integers(min_value=1, max_value=8))
        expr = generate_expression(order)
        ratio = st.builds(Fraction, st.integers(min_value=-10**200, max_value=10**200),
                          st.integers(min_value=1, max_value=10**30))
        central = {m: data.draw(ratio) for m in expr.central_orders}
        central[2] = abs(central[2])
        # a mean of either sign, integer or not; N an integer or a rational >= 1
        mean = data.draw(st.builds(Fraction, st.integers(min_value=1, max_value=10**6),
                                   st.integers(min_value=1, max_value=10**4)))
        mean *= data.draw(st.sampled_from([1, -1]))
        n = data.draw(st.one_of(st.integers(min_value=1, max_value=10**4),
                                st.builds(lambda q, k: Fraction(q + k, q),
                                          st.integers(min_value=1, max_value=10**3),
                                          st.integers(min_value=0, max_value=10**5))))
        mom = MomentVector(mean=mean, central=central)
        assert evaluate_expression(expr, mom, n) == per_term_series(expr, mom, n)

    def test_one_entry_per_monomial(self):
        expr = generate_expression(8)
        form = _prepared(expr, 5, True)
        entries, den, shift = form
        assert shift == -min(t.mu_exponent for t in expr.terms) == 14
        keys = [(g - shift, powers) for _, g, powers in entries]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {(t.mu_exponent, t.moment_powers) for t in expr.terms}
        assert len(entries) < len(expr.terms)
        assert all(type(v) is int for v, _, _ in entries) and type(den) is int
        assert _prepared(expr, 5, True) is form

    def test_float_form_is_one_entry_per_term(self):
        expr = generate_expression(8)
        form = _prepared(expr, 30, False)
        assert [(g, powers) for _, g, powers in form] == [
            (t.mu_exponent, t.moment_powers) for t in expr.terms
        ]
        assert [c for c, _, _ in form] == [
            float(t.coef) * 30.0 ** -t.n_exponent for t in expr.terms
        ]

    def test_hand_made_expressions_of_one_order_stay_apart(self):
        mom = MomentVector(mean=Fraction(2), central={2: Fraction(3)})
        floats = MomentVector(mean=2.0, central={2: 3.0})
        a, b = _order_one(Fraction(1, 3)), _order_one(0.25)
        for m in (mom, floats):
            assert evaluate_expression(a, m, 7) != evaluate_expression(b, m, 7)
        assert evaluate_expression(a, mom, 7) == Fraction(1, 7)
        assert evaluate_expression(b, mom, 7) == Fraction(3, 28)

    def test_n_then_other_n_then_n_repeats(self):
        expr = generate_expression(8)
        exact = exact_moments(DistributionSpec.uniform(1, 40), 16)
        floats = MomentVector(mean=float(exact.mean),
                              central={m: float(v) for m, v in exact.central.items()})
        for mom in (exact, floats):
            first = evaluate_expression(expr, mom, 5)
            other = evaluate_expression(expr, mom, 6)
            assert other != first
            assert evaluate_expression(expr, mom, 5) == first
            assert evaluate_expression(expr, mom, 6) == other

    def test_cache_is_bounded(self):
        expr = generate_expression(2)
        mom = MomentVector(mean=Fraction(2), central={m: Fraction(m) for m in (2, 3, 4)})
        values = [evaluate_expression(expr, mom, n) for n in range(1, 3 * _PREPARED_BOUND)]
        assert len(expr._prepared_forms) == _PREPARED_BOUND
        assert values == [per_term_series(expr, mom, n) for n in range(1, 3 * _PREPARED_BOUND)]
        assert values[0] == evaluate_expression(expr, mom, 1)


class TestBruteForce:
    def test_guards(self):
        mom = MomentVector(mean=Fraction(2), central={2: Fraction(1)})
        with pytest.raises(ValueError):
            brute_force_truncated_variance(mom, 7, 2, coefficient)
        with pytest.raises(ValueError):
            brute_force_truncated_variance(mom, 3, 5, coefficient)

    def test_order_one_is_single_term(self):
        rng = random.Random(5)
        mom = random_moment_vector(rng, 2)
        v = brute_force_truncated_variance(mom, 4, 1, coefficient)
        assert v == mom.central[2] / 16

    def test_zero_moments(self):
        mom = MomentVector(
            mean=Fraction(3),
            central={m: Fraction(0) for m in range(2, 9)},
        )
        assert brute_force_truncated_variance(mom, 3, 4, coefficient) == 0

    def test_matches_generated_expression(self):
        rng = random.Random(29)
        for n, order in ((3, 2), (2, 3), (4, 2)):
            mom = random_moment_vector(rng, 2 * order)
            direct = brute_force_truncated_variance(mom, n, order, coefficient)
            via_expr = evaluate_expression(generate_expression(order), mom, n)
            assert direct == via_expr
