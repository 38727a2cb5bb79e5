import random
import tracemalloc
from collections import Counter

import pytest

from oracles import (
    chi_m_oracle,
    clears_denominator_oracle,
    div_into_oracle,
    mul_into_oracle,
    poincare_oracle,
    random_presentation,
    recover_oracle,
)
from wcikit import (
    FormalBasket,
    Orbifold,
    SeriesParseError,
    TableMethod,
    TruncatedSeries,
    basket_series_blocks,
    divisor_matching,
    max_weight_ok,
    parse_candidate,
    parse_series,
    poincare_series,
    recover_weights_degrees,
    recovery_bound,
    series_from_basket,
    series_from_candidate,
)
from wcikit.series import (
    MAX_SERIES_BOUND,
    clears_denominator,
    div_into,
    mul_into,
)


class TestKernels:
    """The slice forms of mul_into and div_into against the plain loops."""

    @pytest.mark.parametrize("kernel,oracle,inverse",
                             [(mul_into, mul_into_oracle, div_into),
                              (div_into, div_into_oracle, mul_into)],
                             ids=["mul", "div"])
    def test_every_factor_of_seeded_lists(self, kernel, oracle, inverse):
        rng = random.Random(53)
        for n in [*range(0, 40), 63, 64, 65, 200]:
            c = [rng.randint(-99, 99) for _ in range(n)]
            for k in range(1, n + 2):
                got, want = list(c), list(c)
                kernel(got, k)
                oracle(want, k)
                assert got == want, (n, k)
                inverse(got, k)
                assert got == c, (n, k)


class TestTruncatedSeries:
    def test_one(self):
        s = TruncatedSeries((1,) + (0,) * 4)
        assert s.coeffs == (1, 0, 0, 0, 0)
        assert s.bound == 4

    def test_text_parse_round_trip(self):
        s = TruncatedSeries((1, 4, -2, 0, 7))
        assert parse_series(s.text()).coeffs == s.coeffs

    @pytest.mark.parametrize("text", [
        "",                  # nothing
        "0 1\n2 5",          # skipped index
        "1 5",               # does not start at 0
        "0 1\n1 two",        # junk coefficient
        "0 1 2",             # three fields
    ])
    def test_parse_errors(self, text):
        with pytest.raises(SeriesParseError):
            parse_series(text)


class TestPoincareSeries:
    def test_projective_space(self):
        s = poincare_series([1, 1, 1, 1, 1], [], 5)
        assert s.coeffs == (1, 5, 15, 35, 70, 126)

    def test_matches_monomial_count_oracle_fixed(self):
        for weights, degrees, bound in [
            ([1, 1, 1, 1, 1], [5], 10),
            ([1, 1, 2, 2, 3, 3], [6, 6], 12),
            ([1, 1, 1, 2, 5], [10], 12),
            ([1, 2, 3], [4], 10),
            ([2, 3, 5], [], 12),
        ]:
            got = poincare_series(weights, degrees, bound)
            assert list(got.coeffs) == poincare_oracle(weights, degrees, bound)

    def test_matches_monomial_count_oracle_random(self):
        rng = random.Random(17)
        for _ in range(40):
            n_w = rng.randint(1, 5)
            weights = sorted(rng.randint(1, 6) for _ in range(n_w))
            degrees = sorted(rng.randint(2, 9)
                             for _ in range(rng.randint(0, 2)))
            bound = rng.randint(0, 14)
            got = poincare_series(weights, degrees, bound)
            assert list(got.coeffs) == poincare_oracle(weights, degrees, bound)

    def test_quintic_sections(self):
        c = parse_candidate("1,1,1,1,1 / 5")
        assert series_from_candidate(c, 5)[5] == 125

    def test_intersection_codim4_coefficient(self):
        c = parse_candidate("1,1,1,1,1,1,1,1 / 2,2,2,3")
        s = series_from_candidate(c, 6)
        assert s[2] == 33
        assert s.coeffs == (1, 8, 33, 95, 217, 423, 737)

    def test_low_series_of_degree_ten_family(self):
        c = parse_candidate("1,1,1,2,5 / 10")
        assert series_from_candidate(c, 5).coeffs == (1, 3, 7, 13, 22, 35)

    @pytest.mark.parametrize("weights,degrees", [
        ([1, 1, 0], []), ([1, 1, 1], [0]), ([1, -2], [3]), ([1, 1], [-1])])
    def test_factor_guard(self, weights, degrees):
        with pytest.raises(ValueError, match="exponent"):
            poincare_series(weights, degrees, 10)

    @pytest.mark.parametrize("weights,degrees,bound", [
        ([1, 1, 1, 1, 0], [4], MAX_SERIES_BOUND),
        ([1, 1, 1, 1, 1], [5], MAX_SERIES_BOUND + 1),
        ([1, 1, 1, 1, 1], [5], 10 ** 12)],
        ids=["zero-weight", "just-above-ceiling", "far-above-ceiling"])
    def test_guards_run_before_allocation(self, weights, degrees, bound):
        # a coefficient list at these bounds takes at least 8 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                poincare_series(weights, degrees, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestRecovery:
    def test_golden_round_trips(self):
        for text in ["1,1,1,1,1 / 5", "1,1,2,2,3,3 / 6,6", "1,1,1,2,5 / 10"]:
            c = parse_candidate(text)
            top = 2 * max(c.weights + c.degrees)
            rec = recover_weights_degrees(series_from_candidate(c, top))
            assert rec.residual_clean
            assert rec.weights == c.weights
            assert rec.degrees == c.degrees

    def test_constant_series(self):
        rec = recover_weights_degrees(TruncatedSeries((1,) + (0,) * 8))
        assert rec.weights == () and rec.degrees == ()
        assert rec.residual_clean

    def test_truncated_too_short_is_not_certified(self):
        c = parse_candidate("1,1,2,2,3,3 / 6,6")
        rec = recover_weights_degrees(series_from_candidate(c, 4))
        assert not rec.residual_clean

    def test_max_entries_abort(self):
        s = poincare_series([1] * 9, [], 8)
        rec = recover_weights_degrees(s, max_entries=5)
        assert not rec.residual_clean
        assert len(rec.weights) + len(rec.degrees) <= 5

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            recover_weights_degrees(TruncatedSeries((2, 0, 0)))

    def test_round_trip_random(self):
        rng = random.Random(29)
        for _ in range(300):
            weights, degrees = random_presentation(rng)
            top = 2 * max(weights + degrees)
            s = poincare_series(weights, degrees, top)
            rec = recover_weights_degrees(s)
            assert rec.residual_clean
            assert list(rec.weights) == weights
            assert list(rec.degrees) == degrees


def _streamed(coeffs, max_entries, rng):
    """TableMethod fed coeffs in random blocks, stopping at the cap."""
    table = TableMethod(max_entries)
    i = 0
    while i < len(coeffs):
        step = rng.randint(1, 12)
        if not table.feed(list(coeffs[i:i + step])):
            break
        i += step
    return table.presentation()


class TestStreamedRecovery:
    """The blocked table method equals the in-place loop it replaced."""

    def test_matches_oracle_on_random_series(self):
        rng = random.Random(41)
        for _ in range(400):
            weights, degrees = random_presentation(rng)
            top = max(weights + degrees)
            coeffs = list(poincare_series(weights, degrees,
                                          rng.randint(1, 2 * top + 4)).coeffs)
            if rng.random() < 0.3:
                # no longer a presentation's series
                k = rng.randrange(1, len(coeffs))
                coeffs[k] += rng.choice([-2, -1, 1, 3])
            cap = rng.choice([None, 3, 6, 10, 15])
            want = recover_oracle(coeffs, cap)
            got = recover_weights_degrees(TruncatedSeries(tuple(coeffs)), cap)
            assert (got.weights, got.degrees, got.residual_clean,
                    got.capped) == want
            got = _streamed(coeffs, cap, rng)
            assert (got.weights, got.degrees, got.residual_clean,
                    got.capped) == want

    def test_split_caps_match_oracle(self):
        rng = random.Random(59)
        for _ in range(400):
            weights, degrees = random_presentation(rng)
            coeffs = list(poincare_series(weights, degrees,
                                          2 * max(weights + degrees)).coeffs)
            caps = (rng.choice([None, 10, 15]), rng.choice([None, 3, 5, 7]),
                    rng.choice([None, 1, 2, 3]))
            want = recover_oracle(coeffs, *caps)
            table = TableMethod(*caps)
            i = 0
            while i < len(coeffs):
                step = rng.randint(1, 12)
                if not table.feed(coeffs[i:i + step]):
                    break
                i += step
            got = table.presentation()
            assert (got.weights, got.degrees, got.residual_clean,
                    got.capped) == want, caps

    def test_cap_stops_before_any_strip(self):
        table = TableMethod(100)
        assert not table.feed([1, 100_000_000, 0])
        rec = table.presentation()
        assert rec.capped and not rec.residual_clean
        assert rec.weights == () and rec.degrees == ()

    def test_blocks_double(self):
        fb = FormalBasket((Orbifold(1, 2),), 1, -4)
        blocks = list(basket_series_blocks(fb, -1, 100))
        assert [len(b) for b in blocks] == [8, 8, 16, 32, 37]
        flat = [c for b in blocks for c in b]
        assert flat == [1] + [-chi_m_oracle(fb, m + 1) for m in range(1, 101)]

    @pytest.mark.parametrize("start,lengths", [
        (6, [2, 8, 16, 32, 37]), (7, [1, 8, 16, 32, 37]), (8, [8, 16, 32, 37]),
        (40, [24, 37]), (100, [1]), (101, [])])
    def test_blocks_from_a_start_keep_their_ends(self, start, lengths):
        fb = FormalBasket((Orbifold(1, 2),), 1, -4)
        blocks = list(basket_series_blocks(fb, -1, 100, start))
        assert [len(b) for b in blocks] == lengths
        flat = [c for b in blocks for c in b]
        assert flat == list(series_from_basket(fb, -1, 100).coeffs[start:])

    def test_copy_continues_alone(self):
        # a copy fed one way leaves the original to be fed another way
        rng = random.Random(61)
        for _ in range(200):
            weights, degrees = random_presentation(rng)
            coeffs = list(poincare_series(weights, degrees,
                                          2 * max(weights + degrees)).coeffs)
            other = coeffs.copy()
            k = rng.randrange(1, len(coeffs))
            other[k] += rng.choice([-1, 1])
            cut = rng.randrange(1, k + 1)
            table = TableMethod(15)
            table.feed(coeffs[:cut])
            copy = table.copy()
            copy.feed(other[cut:])
            table.feed(coeffs[cut:])
            for t, c in ((table, coeffs), (copy, other)):
                got = t.presentation()
                assert (got.weights, got.degrees, got.residual_clean,
                        got.capped) == recover_oracle(c, 15)
            assert table.coeffs == coeffs and copy.coeffs == other

    def test_series_is_that_of_the_entries(self):
        # p, the series of the entries read, matches every coefficient
        # fed unless a cap stopped the scan
        rng = random.Random(67)
        for _ in range(200):
            weights, degrees = random_presentation(rng)
            coeffs = list(poincare_series(weights, degrees,
                                          rng.randint(1, 40)).coeffs)
            table = TableMethod(max_weights=rng.choice([None, 4]))
            fed = table.feed(coeffs)
            rec = table.presentation()
            series = list(poincare_series(
                rec.weights, rec.degrees, len(coeffs) - 1).coeffs)
            assert fed == (series == coeffs) == (not rec.capped)


class TestCertificate:
    """A divisor matching proves a presentation's series nonnegative."""

    def test_no_matching_and_a_negative_coefficient(self):
        assert not divisor_matching((2, 2, 2), (3,))
        assert poincare_series((2, 2, 2), (3,), 3).coeffs[3] == -1

    @pytest.mark.parametrize("weights,degrees,matched", [
        ((1, 2, 3, 3, 4, 5), (8, 9), True),
        ((2,), (4, 4), False),  # one weight cannot serve two degrees
        ((2, 2), (4, 4), True),
        ((2, 3), (6, 6), True),
        # the 3 takes the 1, so the 4 and the 8 share the 2 and the 4
        ((1, 2, 4), (4, 8, 3), True),
        ((1, 2, 5), (4, 8, 3), False),
        ((1, 1), (), True)])
    def test_matchings(self, weights, degrees, matched):
        assert divisor_matching(weights, degrees) == matched

    def test_matching_implies_no_negative_coefficient(self):
        rng = random.Random(71)
        seen = {True: 0, False: 0}
        for _ in range(600):
            weights, degrees = random_presentation(rng)
            matched = divisor_matching(weights, degrees)
            coeffs = poincare_series(weights, degrees, 1000).coeffs
            if matched:
                assert min(coeffs) >= 0, (weights, degrees)
            seen[matched and min(coeffs) >= 0] += 1
        assert min(seen.values()) > 50


class TestDenominatorCertificate:
    """clears_denominator counts cyclotomic orders; the oracle divides."""

    def test_random_presentations_and_poles(self):
        # weights dividing distinct degrees or poles, besides up to four
        # 1s, divide D prod(1 - t^d); a stray weight and a num near the
        # quotient's degree give both outcomes
        rng = random.Random(73)
        seen = Counter()
        for _ in range(2000):
            degrees = [rng.randint(2, 30) for _ in range(rng.randint(0, 4))]
            poles = set(rng.sample(range(2, 16), rng.randint(0, 4)))
            weights = [1] * rng.randint(0, 5) + [
                rng.choice([a for a in range(1, x + 1) if x % a == 0])
                for x in (*poles, *degrees) if rng.random() < 0.7]
            if rng.random() < 0.5:
                weights.append(rng.randint(1, 12))
            rng.shuffle(weights)
            num = (4 + sum(poles) + sum(degrees) - sum(weights)
                   + rng.randint(-2, 2))
            got = clears_denominator(weights, degrees, poles, num)
            assert got == clears_denominator_oracle(
                weights, degrees, poles, num), (weights, degrees, poles, num)
            seen[got] += 1
        assert min(seen.values()) > 400, seen

    @pytest.mark.parametrize("weights,degrees,poles,num", [
        # the order 3 divides the weights 3, 3 but only the degree 6;
        # the degrees pass: 4 + 2 + 6 - 10 = 2 <= 6
        ((1, 1, 1, 1, 3, 3), (6,), {2}, 6),
        # the order 2 divides the weights 2, 4 but only the degree 8
        ((1, 1, 1, 2, 4), (8,), {3}, 7),
        # (1 - t^4)^3 / (1 - t) divides, but has degree 11 > 4
        ((1, 1, 1, 1, 1), (4, 4, 4), set(), 4),
        # five factors (1 - t) against the four of D and no degree
        ((1, 1, 1, 1, 1), (), set(), 4)],
        ids=["order-3", "order-2", "over-degree", "order-1"])
    def test_negative_controls(self, weights, degrees, poles, num):
        assert not clears_denominator(weights, degrees, poles, num)
        assert not clears_denominator_oracle(weights, degrees, poles, num)

    def test_the_controls_clear_once_mended(self):
        # a pole or degree the order divides, or room for the degree
        assert clears_denominator((1, 1, 1, 1, 3, 3), (6,), {2, 3}, 9)
        assert clears_denominator((1, 1, 1, 2, 4), (6, 8), {3}, 12)
        assert clears_denominator((1, 1, 1, 1, 1), (4, 4, 4), set(), 11)


class TestRecoveryBound:
    def test_values_per_amplitude(self):
        assert recovery_bound(FormalBasket((), 1, -5), -1) == 31512
        assert recovery_bound(FormalBasket((), -7, 33), 1) == 86116

    def test_large_index_dominates(self):
        fb = FormalBasket((Orbifold(1, 40000),), 1, 0)
        assert recovery_bound(fb, -1) == 80000
        assert recovery_bound(fb, 1) == 86116

    def test_amplitude_guard(self):
        with pytest.raises(ValueError):
            recovery_bound(FormalBasket((), 1, 0), 0)


class TestMaxWeight:
    def test_unit_weight_always_fine(self):
        assert max_weight_ok(1, 1, (5,))

    def test_within_basket_index(self):
        assert max_weight_ok(5, 5, (7,))
        assert not max_weight_ok(6, 5, (7,))

    def test_divides_degree(self):
        assert max_weight_ok(6, 5, (12, 7))


class TestSeriesFromBasket:
    def test_anti_plurigenera_of_smooth_quartic(self):
        fb = FormalBasket((), 1, -5)
        s = series_from_basket(fb, -1, 4)
        assert s.coeffs == (1, 5, 15, 35, 69)

    def test_plurigenera_of_smooth_intersection(self):
        fb = FormalBasket((), -7, 33)
        s = series_from_basket(fb, 1, 6)
        assert s.coeffs == (1, 8, 33, 95, 217, 423, 737)

    def test_orbifold_families_match_monomial_counts(self):
        # one half point; both amplitudes realized by explicit families
        fb = FormalBasket((Orbifold(1, 2),), -3, 11)
        c = parse_candidate("1,1,1,1,2 / 7")
        assert series_from_basket(fb, 1, 20).coeffs == \
            series_from_candidate(c, 20).coeffs

        fb = FormalBasket((Orbifold(1, 2),), 1, -4)
        c = parse_candidate("1,1,1,1,2 / 5")
        assert series_from_basket(fb, -1, 20).coeffs == \
            series_from_candidate(c, 20).coeffs

    def test_amplitude_guard(self):
        with pytest.raises(ValueError):
            series_from_basket(FormalBasket((), 1, 0), 0, 5)

    def test_zero_bound(self):
        assert series_from_basket(FormalBasket((), 1, -5), -1, 0).coeffs == (1,)
