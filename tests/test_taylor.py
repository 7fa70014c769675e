import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from restime import mc
from restime.taylor import _pattern_count_int, _pattern_slots, _sigma_slots
from restime.core import DistributionSpec, DomainError, MomentVector
from restime.moments import exact_moments, raw_from_central
from restime.taylor import (
    coefficient,
    evaluate_expression,
    evaluate_expression_batch,
    expression_blocks,
    generate_expression,
)

from .oracles import (
    brute_force_truncated_variance,
    count_tuples_by_pattern,
    fd_partial,
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


def eval_count(slots, n: int) -> int:
    return sum(q * n**e for e, q in _pattern_count_int(slots).items())


def random_moment_vector(rng: random.Random, max_order: int) -> MomentVector:
    """Dyadic-rational moments so float evaluation is exact on small cases."""
    mean = 1 + Fraction(rng.randrange(1, 2**8), 2**6)
    central = {2: Fraction(rng.randrange(1, 2**8), 2**6)}
    for m in range(3, max_order + 1):
        central[m] = Fraction(rng.randrange(-(2**7), 2**8), 2**6)
    raw_all = raw_from_central(central, mean)
    raw = {j: raw_all[j] for j in raw_all if j <= 4}
    return MomentVector(mean=mean, central=central, raw=raw, exact=True)


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
                assert direct == Counter(taylor_mod._block(k, l))
                assert direct == Counter(taylor_mod._build_block(l, k))

    def test_nesting_consistency(self):
        blocks = expression_blocks(3)
        from restime.core import VarianceExpression, normalize_expression

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
        mom = MomentVector(mean=2.0, central={2: 1.0}, raw={1: 2.0})
        with pytest.raises(DomainError, match="central orders"):
            evaluate_expression(expr, mom, 10)

    def test_rejects_bad_n(self):
        expr = generate_expression(1)
        mom = MomentVector(mean=2.0, central={2: 1.0}, raw={1: 2.0})
        with pytest.raises(DomainError):
            evaluate_expression(expr, mom, 0)

    def test_exact_and_float_agree(self):
        mom_x = exact_moments(DistributionSpec.geometric(Fraction(1, 2)), 16)
        mom_f = MomentVector(
            mean=float(mom_x.mean),
            central={m: float(v) for m, v in mom_x.central.items()},
            raw={j: float(v) for j, v in mom_x.raw.items()},
        )
        expr = generate_expression(8)
        a = evaluate_expression(expr, mom_x, 30)
        b = evaluate_expression(expr, mom_f, 30)
        assert math.isclose(float(a), b, rel_tol=1e-11)

    def test_constant_moments_give_zero(self):
        mom = MomentVector(
            mean=Fraction(5),
            central={m: Fraction(0) for m in range(2, 17)},
            raw={1: Fraction(5)},
            exact=True,
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
                raw={},
            )
            scalar = evaluate_expression(expr, floats, 25)
            assert math.isclose(batch[i], scalar, rel_tol=1e-12)

    def test_n_one_recovers_exact_variance(self):
        # with a single residence the statistic is linear, so every
        # truncation order reproduces the exact variance
        for d in (DistributionSpec.uniform(1, 3), DistributionSpec.uniform(2, 5)):
            mom = exact_moments(d, 16)
            target = mc.exact_variance_small(d, 1)
            for order in range(1, 9):
                assert evaluate_expression(generate_expression(order), mom, 1) == target


class TestBruteForce:
    def test_guards(self):
        mom = MomentVector(mean=Fraction(2), central={2: Fraction(1)}, raw={}, exact=True)
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
            raw={},
            exact=True,
        )
        assert brute_force_truncated_variance(mom, 3, 4, coefficient) == 0

    def test_matches_generated_expression(self):
        rng = random.Random(29)
        for n, order in ((3, 2), (2, 3), (4, 2)):
            mom = random_moment_vector(rng, 2 * order)
            direct = brute_force_truncated_variance(mom, n, order, coefficient)
            via_expr = evaluate_expression(generate_expression(order), mom, n)
            assert direct == via_expr
