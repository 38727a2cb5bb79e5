import random
import sys
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from math import gcd, lcm

import pytest

from oracles import (
    c2_load_oracle,
    canonical,
    canonical_unpacking,
    chi_m_oracle,
    count_five_packings,
    descendants_oracle,
    fiber_oracle,
    fiber_walk,
    five_merge_counts,
    initial_basket,
    is_prime_packing,
    k3_oracle,
    merge_orbifolds,
    pack,
    prime_packing_reachable,
    random_basket,
    rr_correction,
    uncut_chi2,
    walk_oracle,
)
from wcikit import (
    BasketInconsistency,
    FormalBasket,
    Orbifold,
    basket_series_blocks,
    high_index_count_bounds,
    iter_tuples,
    k3,
    pluri_growth_filter,
    realize,
    series_from_basket,
)
from wcikit.baskets import (
    _chi_term,
    _chis,
    _descendant_points,
    _point_sigmas,
    _PointTable,
    _unpacked,
)
from wcikit.classify import ChiData, _closure_coeffs


class TestOrbifold:
    def test_valid_points(self):
        assert Orbifold(1, 2).r == 2
        assert Orbifold(2, 5).b == 2
        Orbifold(0, 1)  # the trivial point is allowed

    @pytest.mark.parametrize("b,r", [
        (0, 3),    # b must be positive for r > 1
        (2, 4),    # not coprime
        (3, 5),    # b beyond r/2
        (1, 0),    # bad index
        (-1, 2),
    ])
    def test_invalid_points(self, b, r):
        with pytest.raises(ValueError):
            Orbifold(b, r)

    def test_ordering(self):
        pts = [Orbifold(2, 5), Orbifold(1, 2), Orbifold(1, 5)]
        assert canonical(pts) == (Orbifold(1, 2), Orbifold(1, 5), Orbifold(2, 5))

    def test_record_form_groups_repeats(self):
        # a record writes its basket as [b, r, count] rows sorted by (r, b)
        fb = FormalBasket((Orbifold(2, 5), Orbifold(1, 2), Orbifold(1, 2)),
                          1, 0)
        assert fb.to_dict()["basket"] == [[1, 2, 2], [2, 5, 1]]


class TestCorrectionTerm:
    def test_known_values(self):
        assert rr_correction(Orbifold(1, 2), 2) == Fraction(1, 4)
        assert rr_correction(Orbifold(1, 3), 2) == Fraction(1, 3)
        assert rr_correction(Orbifold(1, 3), 3) == Fraction(2, 3)
        assert rr_correction(Orbifold(2, 5), 2) == Fraction(3, 5)
        assert rr_correction(Orbifold(2, 5), 3) == 1

    def test_m_one_is_zero(self):
        assert rr_correction(Orbifold(3, 7), 1) == 0

    def test_periodicity(self):
        rng = random.Random(7)
        for _ in range(50):
            r = rng.randint(2, 11)
            b = rng.choice([b for b in range(1, r // 2 + 1)
                            if Fraction(b, r).denominator == r])
            q = Orbifold(b, r)
            m = rng.randint(1, 10)
            period_sum = rr_correction(q, r + 1)
            assert rr_correction(q, m + r) - rr_correction(q, m) == period_sum

    def test_closure_signature_is_integral(self):
        # the fiber walk and the sweep's closure read carry
        # sigma_m = 12 l(m) - 2(2m-1)m(m-1) l(2) per point as an integer
        # (_point_sigmas).  It is even a multiple of 12, so every
        # chi_m of a basket is integral and _chis never raises on valid
        # points.
        for r in range(2, 61):
            for b in range(1, r // 2 + 1):
                if gcd(b, r) != 1:
                    continue
                q = Orbifold(b, r)
                l2 = rr_correction(q, 2)
                sigs = tuple(_point_sigmas(b, r, range(1, 41)))
                for m in range(1, 41):
                    sig = 12 * rr_correction(q, m) \
                        - 2 * (2 * m - 1) * m * (m - 1) * l2
                    assert sig.denominator == 1 and sig % 12 == 0, (q, m)
                    assert sigs[m - 1] == sig, (q, m)


def _random_root(rng, max_r=12, max_size=6):
    """A random initial basket: the canonical unpacking of a random one."""
    return initial_basket(canonical(random_basket(rng, max_r, max_size)))


def _random_formal_basket(rng, max_r=40, max_size=5):
    return FormalBasket(canonical(random_basket(rng, max_r, max_size)),
                        rng.randint(-10, 40), rng.randint(-10, 40))


def _chi_range(fb, lo, hi):
    """chi_m for lo <= m < hi in the signature form, one column per point."""
    ks = range(lo, hi)
    return _chis([_chi_term(fb.chi, fb.chi2, k) for k in ks],
                 [_point_sigmas(q.b, q.r, ks) for q in fb.basket if q.r > 1])


def _series_oracle(fb, alpha, bound):
    """c_0..c_bound of a basket series from the rational chi_m_oracle."""
    if alpha == 1:
        return [1, 1 - fb.chi] + [chi_m_oracle(fb, m)
                                  for m in range(2, bound + 1)]
    return [1] + [-chi_m_oracle(fb, m + 1) for m in range(1, bound + 1)]


class TestIntegerKernel:
    """The integer signature form of Riemann-Roch against the oracle."""

    def test_k3_and_chi_m_match_oracle(self):
        rng = random.Random(71)
        for _ in range(200):
            fb = _random_formal_basket(rng)
            assert k3(fb) == k3_oracle(fb)
            period = max((q.r for q in fb.basket), default=1)
            for m in [1, 2, 3] + [rng.randint(4, 4 * period + 4)
                                  for _ in range(6)]:
                assert _chi_range(fb, m, m + 1) == [chi_m_oracle(fb, m)], \
                    (fb, m)

    def test_chis_match_oracle(self):
        # per point (the sweep's closure read) and per point type times
        # its count (basket_series_blocks), over several periods
        rng = random.Random(73)
        for _ in range(200):
            fb = _random_formal_basket(rng)
            upto = 3 * max((q.r for q in fb.basket), default=1) + 3
            want = [chi_m_oracle(fb, m) for m in range(1, upto + 1)]
            assert _chi_range(fb, 1, upto + 1) == want
            for alpha in (-1, 1):
                assert list(series_from_basket(fb, alpha, upto).coeffs) == \
                    _series_oracle(fb, alpha, upto), (fb, alpha)

    def test_series_blocks_from_inside_a_period(self):
        # basket_series_blocks starts each later block wherever the last
        # ended, mostly inside a period of every point type
        rng = random.Random(83)
        checked = 0
        while checked < 200:
            fb = _random_formal_basket(rng, max_r=30, max_size=6)
            types = {(q.b, q.r) for q in fb.basket}
            if len(types) < 2:
                continue
            period = lcm(*(r for _, r in types))
            hi = rng.randint(2, min(period, 200)) + 2 * max(r for _, r in types)
            alpha = rng.choice((-1, 1))
            whole = _series_oracle(fb, alpha, hi)
            for lo in rng.sample(range(2, hi), 5):
                if all(lo % r != 1 for _, r in types):
                    got = list(chain.from_iterable(
                        basket_series_blocks(fb, alpha, hi, lo)))
                    assert got == whole[lo:], (fb, alpha, lo)
                    checked += 1

    def test_sigma_3_is_minus_12b(self):
        # so chi_3 is the same on a whole fiber, where sum b is fixed,
        # and the sweep leaves it out of its targets
        for r in range(2, 400):
            for b in range(1, r // 2 + 1):
                if gcd(b, r) == 1:
                    assert list(_point_sigmas(b, r, [3])) == [-12 * b], (b, r)

    def test_integrality_guard(self, monkeypatch):
        # Both terms of 12 chi_m are multiples of 12 on valid points (see
        # test_closure_signature_is_integral), so only a signature off
        # by one reaches the one check, in _chis, on both its paths; it
        # raises there rather than drop the basket as unrealized
        with pytest.raises(BasketInconsistency):
            _chis([12, 24], [[0, 1]])
        fb = FormalBasket((Orbifold(1, 2), Orbifold(2, 5)), 1, 0)
        hit = ((1, 2), (2, 5))
        data = ChiData(1, 0, (1, 0, 0, 0, 0, 0))
        assert len(_closure_coeffs(data, -1, [hit], _PointTable())[0]) == 10
        assert next(basket_series_blocks(fb, -1, 20))

        def off(b, r, ms):
            return (x + (r == 5) for x in _point_sigmas(b, r, ms))

        for module in ("wcikit.series", "wcikit.baskets"):
            monkeypatch.setattr(sys.modules[module], "_point_sigmas", off)
        with pytest.raises(BasketInconsistency):
            next(basket_series_blocks(fb, -1, 20))
        with pytest.raises(BasketInconsistency):
            series_from_basket(fb, 1, 20)
        with pytest.raises(BasketInconsistency):
            _closure_coeffs(data, -1, [hit], _PointTable())
        with pytest.raises(BasketInconsistency):
            realize(fb, -1)

    def test_descendants_targets_match_oracle(self):
        rng = random.Random(89)
        for _ in range(60):
            b0 = _random_root(rng, max_r=12, max_size=4)
            chi = rng.randint(-10, 40)
            for chi2 in (rng.randint(-10, 40), uncut_chi2(b0, chi)):
                closure = fiber_oracle(b0, chi, chi2, {})
                # targets read off one member, so at least that one hits
                src = rng.choice(closure)
                targets = {m: chi_m_oracle(src, m) for m in (3, 4, 5, 6)}
                for alpha in (-1, 1):
                    for want in ({}, targets):
                        assert fiber_walk(b0, chi, chi2, want, alpha) == \
                            walk_oracle(b0, chi, chi2, want, alpha)
            # the +1 walk cuts nothing at uncut_chi2: the whole fiber
            assert fiber_walk(b0, chi, chi2, {}, 1) == closure
            assert src in fiber_walk(b0, chi, chi2, targets, 1)


class TestVolumeAndChi:
    def test_k3_golden(self):
        assert k3(FormalBasket((), 1, -5)) == -4
        assert k3(FormalBasket((), -7, 33)) == 24
        assert k3(FormalBasket((Orbifold(1, 2),), -3, 11)) == Fraction(7, 2)
        assert k3(FormalBasket((Orbifold(1, 2),), 1, -4)) == Fraction(-5, 2)

    def test_chi_one_is_minus_chi(self):
        fb = FormalBasket((Orbifold(2, 7),), 4, -2)
        assert _chi_range(fb, 1, 2) == [-4]

    def test_chi_two_returns_chi2(self):
        rng = random.Random(13)
        for _ in range(100):
            fb = FormalBasket(canonical(random_basket(rng)),
                              rng.randint(-10, 40), rng.randint(-10, 40))
            assert _chi_range(fb, 2, 3) == [fb.chi2]

    def test_incremental_matches_formula(self):
        rng = random.Random(19)
        for _ in range(150):
            fb = FormalBasket(canonical(random_basket(rng)),
                              rng.randint(-10, 40), rng.randint(-10, 40))
            seq = _chi_range(fb, 1, 10)
            for m in range(1, 10):
                assert seq[m - 1] == chi_m_oracle(fb, m)

    def test_chi_example(self):
        fb = FormalBasket((Orbifold(1, 2),), 1, 0)
        assert _chi_range(fb, 1, 4) == [-1, 0, 9]


class TestPacking:
    def test_merge_componentwise(self):
        assert merge_orbifolds(Orbifold(1, 2), Orbifold(1, 3)) == Orbifold(2, 5)
        assert merge_orbifolds(Orbifold(0, 1), Orbifold(1, 4)) == Orbifold(1, 5)

    def test_merge_rejects_non_points(self):
        # (1,2)+(1,2) = (2,4) is not coprime
        assert merge_orbifolds(Orbifold(1, 2), Orbifold(1, 2)) is None

    def test_prime_packing_determinant(self):
        assert is_prime_packing(Orbifold(1, 2), Orbifold(1, 3))
        assert not is_prime_packing(Orbifold(1, 2), Orbifold(1, 4))
        assert is_prime_packing(Orbifold(0, 1), Orbifold(1, 4))
        assert not is_prime_packing(Orbifold(0, 1), Orbifold(2, 5))

    def test_pack_positions(self):
        basket = canonical([Orbifold(1, 2), Orbifold(1, 3), Orbifold(1, 7)])
        packed = pack(basket, 0, 1)
        assert packed == canonical([Orbifold(2, 5), Orbifold(1, 7)])

    def test_pack_same_position_raises(self):
        basket = (Orbifold(1, 2), Orbifold(1, 3))
        with pytest.raises(ValueError):
            pack(basket, 1, 1)

    def test_pack_invalid_merge(self):
        basket = (Orbifold(1, 2), Orbifold(1, 2))
        assert pack(basket, 0, 1) is None


class TestUnpacking:
    def test_atomic_points(self):
        assert canonical_unpacking(Orbifold(1, 9)) == (Orbifold(1, 9),)
        assert canonical_unpacking(Orbifold(0, 1)) == (Orbifold(0, 1),)

    def test_split_example(self):
        assert canonical_unpacking(Orbifold(2, 5)) == canonical(
            [Orbifold(1, 2), Orbifold(1, 3)])
        assert canonical_unpacking(Orbifold(5, 12)) == canonical(
            [Orbifold(1, 2)] * 3 + [Orbifold(1, 3)] * 2)

    def test_parts_sum_to_whole(self):
        rng = random.Random(31)
        for _ in range(100):
            for q in random_basket(rng):
                parts = canonical_unpacking(q)
                assert sum(p.b for p in parts) == q.b
                assert sum(p.r for p in parts) == q.r

    def test_initial_basket_is_pointwise(self):
        basket = canonical([Orbifold(2, 5), Orbifold(1, 2)])
        assert initial_basket(basket) == canonical(
            [Orbifold(1, 2), Orbifold(1, 2), Orbifold(1, 3)])


class TestCountFormulas:
    def _chis(self, fb):
        return {m: chi_m_oracle(fb, m) for m in range(2, 7)}

    def test_counts_match_unpacking(self):
        rng = random.Random(43)
        for _ in range(250):
            fb = FormalBasket(canonical(random_basket(rng)),
                              rng.randint(-10, 40), rng.randint(-10, 40))
            b0 = initial_basket(fb.basket)
            assert _unpacked(fb.chi, self._chis(fb)) == (
                sum(1 for q in b0 if q.r == 2),
                sum(1 for q in b0 if q.r == 3),
                sum(1 for q in b0 if q.r >= 4),
                len(b0))

    def test_sigma5_bracket(self):
        rng = random.Random(47)
        for _ in range(250):
            fb = FormalBasket(canonical(random_basket(rng)),
                              rng.randint(-10, 40), rng.randint(-10, 40))
            lo, hi = high_index_count_bounds(fb.chi, self._chis(fb))
            sigma5 = sum(1 for q in initial_basket(fb.basket) if q.r >= 5)
            assert lo <= sigma5 <= hi

    def test_five_merge_count_formula(self):
        rng = random.Random(53)
        for _ in range(250):
            fb = FormalBasket(canonical(random_basket(rng)),
                              rng.randint(-10, 40), rng.randint(-10, 40))
            sigma5 = sum(1 for q in initial_basket(fb.basket) if q.r >= 5)
            want = 0
            for q in fb.basket:
                counts = five_merge_counts(q)
                assert len(counts) == 1, q
                want += next(iter(counts))
            got = count_five_packings(fb.chi, self._chis(fb), sigma5)
            assert got == want

    def test_reachable_from_unpacking(self):
        rng = random.Random(59)
        for _ in range(250):
            for q in random_basket(rng):
                assert prime_packing_reachable(q), q


class TestCurvatureFilters:
    def test_c2_load_values(self):
        assert c2_load_oracle((Orbifold(1, 2),)) == Fraction(3, 2)
        assert c2_load_oracle(()) == 0

    def test_c2_bound(self):
        # the -1 walk keeps sum(r - 1/r) <= 24 and cuts the rest
        half = (Orbifold(1, 2),)
        assert fiber_walk(half, 1, -5, {}, -1) == [FormalBasket(half, 1, -5)]
        big = tuple(Orbifold(1, 24) for _ in range(2))
        assert fiber_walk(big, 1, 0, {}, -1) == []

    def test_c2_monotone_under_packing(self):
        rng = random.Random(61)
        done = 0
        while done < 150:
            basket = canonical(random_basket(rng, max_size=4))
            if len(basket) < 2:
                continue
            i, j = rng.sample(range(len(basket)), 2)
            packed = pack(basket, min(i, j), max(i, j))
            if packed is None:
                continue
            assert c2_load_oracle(packed) >= c2_load_oracle(basket)
            done += 1

    def test_k3_antitone_under_packing(self):
        rng = random.Random(67)
        done = 0
        while done < 150:
            basket = canonical(random_basket(rng, max_size=4))
            if len(basket) < 2:
                continue
            i, j = rng.sample(range(len(basket)), 2)
            packed = pack(basket, min(i, j), max(i, j))
            if packed is None:
                continue
            chi, chi2 = rng.randint(-10, 40), rng.randint(-10, 40)
            assert k3(FormalBasket(packed, chi, chi2)) <= \
                k3(FormalBasket(basket, chi, chi2))
            done += 1


class TestGrowthAndVolumeFilters:
    def test_pluri_growth_accepts_real_family(self):
        p = {1: 8, 2: 33, 3: 95, 4: 217, 5: 423, 6: 737}
        assert pluri_growth_filter(p, pg=8)

    def test_pluri_growth_rejects_stalled(self):
        p = {1: 2, 2: 3, 3: 3, 4: 3, 5: 3, 6: 3}
        assert not pluri_growth_filter(p, pg=2)


class TestDescendants:
    """_descendant_points, the fiber walk, with the cut of each amplitude."""

    def test_golden_chain(self):
        src = FormalBasket((Orbifold(2, 5),), 1, 0)
        targets = {m: chi_m_oracle(src, m) for m in (3, 4, 5, 6)}
        b0 = canonical([Orbifold(1, 2), Orbifold(1, 3)])
        out = fiber_walk(b0, 1, 0, targets, 1)
        assert [fb.basket for fb in out] == [(Orbifold(2, 5),)]

    def test_includes_start_when_consistent(self):
        b0 = canonical([Orbifold(1, 2), Orbifold(1, 3)])
        src = FormalBasket(b0, 1, 0)
        targets = {m: chi_m_oracle(src, m) for m in (3, 4, 5, 6)}
        out = fiber_walk(b0, 1, 0, targets, 1)
        assert any(fb.basket == b0 for fb in out)

    def test_prune_cuts_root(self):
        # chi_2 + 3 chi = -7 puts K^3 below 0 on the root already
        b0 = canonical([Orbifold(1, 2), Orbifold(1, 3)])
        assert fiber_walk(b0, 1, -10, {}, 1) == []
        assert descendants_oracle(
            b0, 1, -10, {},
            cut=lambda b: k3_oracle(FormalBasket(b, 1, -10)) <= 0) == []

    def test_closure_is_complete_without_targets(self):
        # (1,2)+(1,4) and every merge onto (3,9) drop out on gcd grounds;
        # K^3 > 0 on every basket, so the +1 walk cuts none
        b0 = canonical([Orbifold(1, 2), Orbifold(1, 3), Orbifold(1, 4)])
        out = fiber_walk(b0, 1, 0, {}, 1)
        assert {fb.basket for fb in out} == {
            b0,
            canonical([Orbifold(2, 5), Orbifold(1, 4)]),
            canonical([Orbifold(1, 2), Orbifold(2, 7)]),
        }

    def test_amplitude_cuts_match_callables(self):
        # sum(r - 1/r) = 24 and K^3 = 0 exactly sit on the boundaries:
        # the first is kept at -1, the second cut at +1 and dropped from
        # the hits at -1
        sixteen = canonical([Orbifold(1, 2)] * 16)
        assert fiber_walk(sixteen, 1, 0, {}, -1) == \
            [FormalBasket(sixteen, 1, 0)]
        # so is a packed basket at 24, (1,2) + (1,3) packed to (2,5)
        fives = canonical([Orbifold(1, r) for r in (2, 3, 5, 5, 5, 5)])
        packed = canonical([Orbifold(1, 5)] * 4 + [Orbifold(2, 5)])
        assert FormalBasket(packed, 1, -2) in fiber_walk(fives, 1, -2, {}, -1)
        four = canonical([Orbifold(1, 2)] * 4)
        assert fiber_walk(four, 1, -2, {}, 1) == []
        assert fiber_walk(four, 1, -2, {}, -1) == []
        assert fiber_oracle(four, 1, -2, {}) == [FormalBasket(four, 1, -2)]
        rng = random.Random(97)
        cut = {-1: 0, 1: 0}
        for _ in range(80):
            b0 = _random_root(rng, max_r=12, max_size=4)
            # chi_2 + 3 chi, the +1 cut's floor, near l(2)
            chi = rng.randint(-3, 3)
            chi2 = rng.randint(0, 4) - 3 * chi
            full = fiber_oracle(b0, chi, chi2, {})
            for alpha in cut:
                got = fiber_walk(b0, chi, chi2, {}, alpha)
                assert got == walk_oracle(b0, chi, chi2, {}, alpha)
                cut[alpha] += len(got) < len(full)
        assert min(cut.values()) > 10


def _points_upto(r_max):
    return [Orbifold(b, r) for r in range(2, r_max + 1)
            for b in range(1, r // 2 + 1) if gcd(b, r) == 1]


@pytest.fixture(scope="module", params=[-1, 1], ids=["fano", "ample-canonical"])
def sweep_calls(request):
    """Every fiber walk of the -1 sweep, or of a seeded +1 sample.

    Each entry is (tuple, root, chi, chi_2, targets, hits), the root as
    its points (1, r) and the hits as FormalBaskets of what the sweep got.
    """
    classify_module = sys.modules["wcikit.classify"]
    alpha = request.param
    rows = list(iter_tuples(alpha))
    if alpha == 1:
        rows = random.Random(5).sample(rows, 3000)
    calls = []
    current = []

    def recorded(root, chi, chi2, targets, alpha, points):
        hits = _descendant_points(root, chi, chi2, targets, alpha, points)
        calls.append((current[0], tuple(Orbifold(1, r) for r in root),
                      chi, chi2, dict(targets), [FormalBasket(
                          tuple(Orbifold(b, r) for b, r in hit), chi, chi2)
                          for hit in hits]))
        return hits

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_module, "_descendant_points", recorded)
        for row in rows:
            current[:] = [row[:2]]
            classify_module._tuple_baskets(row, alpha, _PointTable())
    return alpha, calls


class TestFibers:
    """Each root's baskets are exactly its fiber, those that unpack to it."""

    def test_prime_merges_keep_the_unpacking(self):
        merges = 0
        for p, q in combinations_with_replacement(_points_upto(60), 2):
            merged = merge_orbifolds(p, q)
            if merged is None or not is_prime_packing(p, q):
                continue
            merges += 1
            assert canonical(canonical_unpacking(p) + canonical_unpacking(q)) \
                == canonical_unpacking(merged), (p, q)
        assert merges == 1042

    def test_every_point_is_a_prime_merge(self):
        # b >= 2 makes (b, r) the mediant of two Farey neighbours
        points = _points_upto(60)
        known = {(p.b, p.r) for p in points}
        split = 0
        for q in points:
            if q.b < 2:
                continue
            halves = [(p, Orbifold(q.b - p.b, q.r - p.r)) for p in points
                      if (q.b - p.b, q.r - p.r) in known]
            assert any(is_prime_packing(p, s) and merge_orbifolds(p, s) == q
                       for p, s in halves), q
            split += 1
        assert split == 492

    def test_matches_fiber_oracle_on_sweep_roots(self, sweep_calls):
        alpha, calls = sweep_calls
        checked = 0
        for _, b0, chi, chi2, targets, hits in calls:
            assert initial_basket(b0) == b0
            if len(b0) > 12:
                continue  # the all-merge oracle grows too fast
            assert hits == walk_oracle(b0, chi, chi2, targets, alpha), b0
            checked += len(hits)
        # every -1 basket; most of the +1 sample's
        assert checked == (1608 if alpha == -1 else 852)

    def test_no_basket_comes_from_two_roots(self, sweep_calls):
        alpha, calls = sweep_calls
        by_tuple = {}
        for t, b0, *_, hits in calls:
            for fb in hits:
                assert initial_basket(fb.basket) == b0
                by_tuple.setdefault(t, []).append(fb)
        for t, fbs in by_tuple.items():
            assert len(set(fbs)) == len(fbs), t
        assert sum(map(len, by_tuple.values())) == (
            1608 if alpha == -1 else 927)
