import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain
from math import lcm

import pytest

from oracles import (
    basket_of,
    canonical,
    chi_data_oracle,
    chi_m_oracle,
    clears_denominator_oracle,
    degree_values,
    fano_r_multisets_oracle,
    gt_r_multisets_oracle,
    iter_tuples_oracle,
    low_series_oracle,
    mul_into_oracle,
    poincare_oracle,
    random_basket,
    recover_oracle,
    table_method_oracle,
    tuple_baskets_oracle,
    tuple_of_candidate,
    weight_values,
)
from wcikit import (
    ChiData,
    ClassificationRecord,
    FormalBasket,
    InvalidCandidate,
    Orbifold,
    RunConfig,
    classify,
    classify_cy,
    divisor_matching,
    iter_tuples,
    max_weight_ok,
    necessary_screen,
    normalize,
    poincare_series,
    realize,
    recover_weights_degrees,
    recovery_bound,
    series_from_basket,
    series_from_candidate,
)
from wcikit.baskets import _PointTable
from wcikit.classify import (
    _C2_LOAD,
    _C2_SCALE,
    _chi_ints,
    _closure_coeffs,
    _compositions,
    _low_series,
    _quadruples,
    _r_multisets,
    _survivors,
    _table,
    _tuple_baskets,
    _volume_cap,
)
from wcikit.series import (
    TableMethod,
    basket_series_blocks,
    clears_denominator,
    series_numerator_degree,
)

classify_module = sys.modules["wcikit.classify"]
baskets_module = sys.modules["wcikit.baskets"]
series_module = sys.modules["wcikit.series"]

def count_tuples(alpha):
    """The count tuple (mu, nu) of each row iter_tuples yields, in order."""
    return [row[:2] for row in iter_tuples(alpha)]


def row_of(t, alpha):
    """The row iter_tuples yields for the count tuple t."""
    return next(row for row in iter_tuples(alpha) if row[:2] == t)


X4_TUPLE = ((5, 0, 0, 0, 0), (0, 0, 1, 0))
X5_TUPLE = ((4, 1, 0, 0, 0), (0, 0, 0, 1))
X7_TUPLE = ((4, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0))

CY_FAMILIES = [
    "1,1,1,1,1 / 5",
    "1,1,1,1,2 / 6",
    "1,1,1,1,4 / 8",
    "1,1,1,2,5 / 10",
    "1,1,1,1,1,1 / 2,4",
    "1,1,1,1,1,3 / 2,6",
    "1,1,1,1,1,1 / 3,3",
    "1,1,1,1,1,2 / 3,4",
    "1,1,1,1,2,2 / 4,4",
    "1,1,1,2,2,3 / 4,6",
    "1,1,2,2,3,3 / 6,6",
    "1,1,1,1,1,1,1 / 2,2,3",
    "1,1,1,1,1,1,1,1 / 2,2,2,2",
]


class TestCountTuple:
    """The series c_0..c_h the sweep builds from a row's tables."""

    def test_low_series_of_quartic(self):
        assert _low_series(row_of(X4_TUPLE, -1)) == [1, 5, 15, 35, 69, 121]

    @pytest.mark.parametrize("alpha", [-1, 1])
    def test_low_series_of_every_tuple(self, alpha):
        rows = list(iter_tuples(alpha))
        for row in rows:
            assert tuple(_low_series(row)) == low_series_oracle(row[:2]), row
        for row in random.Random(alpha + 500).sample(rows, 200):
            t = row[:2]
            assert _low_series(row) == poincare_oracle(
                weight_values(t), degree_values(t), len(t[0])), t


class TestTupleEnumeration:
    def test_counts(self):
        assert len(list(iter_tuples(-1))) == 7056
        assert len(list(iter_tuples(1))) == 146880

    def test_known_members(self):
        assert X4_TUPLE in count_tuples(-1)
        assert X7_TUPLE in count_tuples(1)

    def test_linear_cone_values_excluded(self):
        # value 2 appearing as weight and degree at once never enumerates
        bad = ((1, 1, 0, 0, 0), (1, 0, 0, 0))
        assert bad not in count_tuples(-1)

    def test_degree_prefix_rule(self):
        # five quadric degrees with no weights break the prefix inequality
        bad = ((0, 0, 0, 0, 0, 0), (5, 0, 0, 0, 0))
        assert bad not in count_tuples(1)

    def test_amplitude_guard(self):
        with pytest.raises(ValueError):
            next(iter_tuples(0))

    @pytest.mark.parametrize("alpha", [-1, 1])
    def test_matches_oracle_in_order(self, alpha):
        assert count_tuples(alpha) == list(iter_tuples_oracle(alpha))


class TestTupleChis:
    """The chi data _tuple_baskets builds for a tuple past every screen."""

    def test_quartic(self):
        # chi_m = -c_{m-1} for -1
        assert tuple_baskets(X4_TUPLE, -1)[3] == ChiData(
            1, -5, (1, 5, 15, 35, 69, 121))

    def test_sept(self):
        # p_g = c_1 = 4, chi = 1 - p_g and chi_2 = c_2 for +1
        data = tuple_baskets(X7_TUPLE, 1)[3]
        assert (data.chi, data.chi2, data.p[1]) == (-3, 11, 4)

    def test_guard(self):
        with pytest.raises(ValueError):
            _chi_ints(_low_series(row_of(X4_TUPLE, -1)), 0)


def no_fiber(root, chi, chi2, targets, alpha, points):
    """_descendant_points, as the sweep calls it, finding no basket."""
    return []


@pytest.fixture(scope="module", params=[-1, 1])
def front_end_calls(request):
    """Arguments of every multiset and index cap call in a tuple sweep.

    _descendant_points() is stubbed out, so the sweep runs the tuple screens
    and the multiset enumerations only.
    """
    alpha = request.param
    calls = {"multisets": set(), "cap": set()}
    last_cap = [None]  # a +1 multiset call follows its sigma5's cap call

    def recorded_multisets(s, costs, budget):
        calls["multisets"].add((s, tuple(costs.items()), budget, last_cap[0]))
        return _r_multisets(s, costs, budget)

    def recorded_cap(*args):
        calls["cap"].add(args)
        last_cap[0] = args
        return _volume_cap(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_module, "_descendant_points", no_fiber)
        mp.setattr(classify_module, "_r_multisets", recorded_multisets)
        mp.setattr(classify_module, "_volume_cap", recorded_cap)
        points = _PointTable()
        for row in iter_tuples(alpha):
            _tuple_baskets(row, alpha, points)
    return alpha, calls


_FANO_COSTS = {r: _C2_LOAD[r] for r in range(5, 25)}


def _gt_args(cap, headroom):
    """The +1 costs and budget of indices 5..cap below a Fraction headroom.

    The same integer conversion as _tuple_baskets: spends 1/4 - 1/r in
    units of 1 / unit, and a budget one unit below the headroom.
    """
    unit = lcm(4, headroom.denominator, *range(5, cap + 1))
    costs = {r: unit // 4 - unit // r for r in range(5, cap + 1)}
    return costs, headroom.numerator * (unit // headroom.denominator) - 1


def _gt_oracle(s, costs, budget):
    unit = 20 * costs[5]
    return gt_r_multisets_oracle(s, max(costs), Fraction(budget + 1, unit))


class TestMultisetBounds:
    """The integer multiset enumeration against its Fraction forms."""

    def test_every_call_of_a_sweep(self, front_end_calls):
        alpha, calls = front_end_calls
        if alpha == -1:
            assert len(calls["multisets"]) > 100 and not calls["cap"]
        else:
            assert len(calls["multisets"]) > 50 and len(calls["cap"]) > 50
        for s, items, budget, cap_args in calls["multisets"]:
            costs = dict(items)
            got = list(_r_multisets(s, costs, budget))
            if alpha == -1:
                assert costs == _FANO_COSTS
                assert got == list(fano_r_multisets_oracle(
                    s, Fraction(budget, _C2_SCALE)))
            else:
                # the budget keeps the spend strictly below the headroom
                _, headroom, scale = cap_args
                assert Fraction(budget + 1, 20 * costs[5]) == Fraction(
                    headroom, scale)
                assert got == list(_gt_oracle(s, costs, budget))
        for s, headroom, scale in calls["cap"]:
            beta = Fraction(1, 4) - Fraction(headroom, scale) \
                + Fraction(s - 1, 20)
            want = (beta.denominator - 1) // beta.numerator if beta > 0 \
                else None
            assert _volume_cap(s, headroom, scale) == want

    def test_boundaries(self):
        # a budget exactly one point's load admits that point, one less
        # does not; a headroom exactly one point's spend does not admit it
        five = 5 * _C2_SCALE - _C2_SCALE // 5
        assert list(_r_multisets(1, _FANO_COSTS, five)) == [(5,)]
        assert list(_r_multisets(1, _FANO_COSTS, five - 1)) == []
        spend = Fraction(1, 4) - Fraction(1, 6)
        assert list(_r_multisets(1, *_gt_args(6, spend))) == [(5,)]
        for s, budget in [(1, five), (2, 2 * five), (3, 24 * _C2_SCALE)]:
            assert list(_r_multisets(s, _FANO_COSTS, budget)) == list(
                fano_r_multisets_oracle(s, Fraction(budget, _C2_SCALE)))
        for s, cap, headroom in [(1, 6, spend), (2, 31, Fraction(7, 24)),
                                 (3, 19, Fraction(5, 8))]:
            costs, budget = _gt_args(cap, headroom)
            assert list(_r_multisets(s, costs, budget)) == list(
                gt_r_multisets_oracle(s, cap, headroom)) == list(
                _gt_oracle(s, costs, budget))


def formal_basket(t, alpha, points):
    """The FormalBasket of a hit of t, from its points and t's chi data."""
    chi, chi2, _ = chi_data_oracle(t, alpha)
    return FormalBasket(tuple(Orbifold(b, r) for b, r in points), chi, chi2)


def prefix_table(t, alpha):
    """A table with realize()'s caps that has read t's c_0..c_h."""
    return _table(alpha, low_series_oracle(t))


def tuple_baskets(t, alpha):
    """_tuple_baskets of the count tuple t, with tables of its own."""
    return _tuple_baskets(row_of(t, alpha), alpha, _PointTable())


class TestFormalBaskets:
    def test_sept_basket(self):
        hits = tuple_baskets(X7_TUPLE, 1)[0]
        assert (((1, 2),), "sigma5-zero") in hits
        assert formal_basket(X7_TUPLE, 1, ((1, 2),)) == \
            FormalBasket((Orbifold(1, 2),), -3, 11)

    def test_quintic_cousin_basket(self):
        hits = tuple_baskets(X5_TUPLE, -1)[0]
        assert (((1, 2),), "sigma5-zero") in hits
        assert formal_basket(X5_TUPLE, -1, ((1, 2),)) == \
            FormalBasket((Orbifold(1, 2),), 1, -4)


class TestRealize:
    def test_quartic(self):
        rec = realize(FormalBasket((), 1, -5), -1)
        assert rec is not None
        assert rec.candidate.text() == "1,1,1,1,1 / 4"
        assert rec.screen.passed

    def test_sept(self):
        rec = realize(FormalBasket((Orbifold(1, 2),), -3, 11), 1)
        assert rec is not None
        assert rec.candidate.text() == "1,1,1,1,2 / 7"

    def test_quintic_cousin(self):
        rec = realize(FormalBasket((Orbifold(1, 2),), 1, -4), -1)
        assert rec is not None
        assert rec.candidate.text() == "1,1,1,1,2 / 5"

    def test_unrealizable(self):
        assert realize(FormalBasket((), 1, 0), -1) is None


def reference_realize(fb, alpha, bound):
    """realize() without the prefix: the whole series to bound, then its checks.

    Its record's series_bound is the bound it read to, not the certified
    one realize() reports; compare the two through unbound().
    """
    target = series_from_basket(fb, alpha, bound)
    if any(cm < 0 for cm in target.coeffs):
        return None
    rec = recover_weights_degrees(target, max_entries=15)
    if not rec.residual_clean or not rec.weights or not rec.degrees:
        return None
    if set(rec.weights) & set(rec.degrees):
        return None
    try:
        cand = normalize(rec.weights, rec.degrees)
    except InvalidCandidate:
        return None
    if cand.dim != 3 or cand.amplitude != alpha:
        return None
    r_max = max((q.r for q in fb.basket), default=1)
    if not max_weight_ok(cand.weights[-1], r_max, cand.degrees):
        return None
    screen = necessary_screen(cand)
    if not screen.passed:
        return None
    if series_from_candidate(cand, bound).coeffs != target.coeffs:
        return None
    return ClassificationRecord(cand, fb, screen, (), bound)


def unbound(rec):
    """A record with its series_bound masked, or None."""
    return None if rec is None else replace(rec, series_bound=0)


def unscreened_baskets(rows, alpha):
    """(tuple, basket) pairs of the rows, gcd-cut ones not skipped.

    Each row counts no weight divisible by anything, so the gcd cut,
    whose room is at least 1, never fires.
    """
    points, pairs = _PointTable(), []
    for mu, nu, (w, _), nu_row in rows:
        t = (mu, nu)
        row = (mu, nu, (w, (0,) * (len(mu) - 1)), nu_row)
        pairs.extend((t, formal_basket(t, alpha, hit)) for hit, _ in
                     _tuple_baskets(row, alpha, points)[0])
    return pairs


def pruned_by(rows, alpha):
    """The screen _tuple_baskets prunes each row with, fibers skipped."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_module, "_descendant_points", no_fiber)
        return [_tuple_baskets(row, alpha, _PointTable())[2]
                for row in rows]


@pytest.fixture(scope="module")
def fano_pairs():
    # every basket of the -1 sweep, those of gcd-cut tuples included
    return unscreened_baskets(iter_tuples(-1), -1)


@pytest.fixture(scope="module")
def fano_baskets(fano_pairs):
    return [fb for _, fb in fano_pairs]


@pytest.fixture(scope="module")
def ample_pairs():
    # the baskets of a seeded sample of +1 tuples, gcd-cut ones included
    return unscreened_baskets(
        random.Random(61).sample(list(iter_tuples(1)), 2000), 1)


def _cap_index(fb, alpha, bound):
    """Index where the in-place table method first hits the 15-entry cap."""
    coeffs = list(series_from_basket(fb, alpha, bound).coeffs)
    for m in range(1, bound + 1):
        if table_method_oracle(coeffs[:m + 1], 15)[2]:
            return m
    return None


class TestPrefixExactness:
    """realize() equals the plain whole-series path, whatever the blocks."""

    def _check_all(self, baskets):
        realized = 0
        for fb in baskets:
            bound = min(300, recovery_bound(fb, -1))
            got = realize(fb, -1)
            assert unbound(got) == unbound(reference_realize(fb, -1, bound)), fb
            realized += got is not None
        return realized

    def test_every_fano_basket(self, fano_baskets):
        assert len(fano_baskets) == 1644
        assert self._check_all(fano_baskets) == 181

    def test_every_fano_basket_with_a_short_first_block(self, fano_baskets,
                                                        monkeypatch):
        # with c_0..c_5 in the first block, every one of the 1,442 baskets
        # realize() rejects on its 7-weight or 3-degree cap passes it and
        # hits the cap in a later block
        def passes_first_block(fb):
            head = list(series_from_basket(fb, -1, 5).coeffs)
            return min(head) >= 0 and not table_method_oracle(
                head, None, 7, 3)[2]

        late = [fb for fb in fano_baskets if passes_first_block(fb)
                and table_method_oracle(
                    list(series_from_basket(fb, -1, 300).coeffs),
                    None, 7, 3)[2]]
        assert len(late) == 1442
        monkeypatch.setattr(series_module, "_FIRST_BLOCK", 6)
        assert self._check_all(fano_baskets) == 181

    def test_cap_hit_at_a_block_boundary(self, monkeypatch):
        # the cap is first hit at index 31: the last index of the third
        # block by default, the first of the second block when the first
        # holds 31 coefficients, inside the first block from 32 on
        fb = FormalBasket(basket_of([[2, 5, 1], [5, 12, 1]]), 1, -1)
        assert _cap_index(fb, -1, 40) == 31
        for first in (1, 2, 8, 16, 31, 32):
            monkeypatch.setattr(series_module, "_FIRST_BLOCK", first)
            table = TableMethod(15)
            fed = 0
            for block in basket_series_blocks(fb, -1, 300):
                fed += len(block)
                if not table.feed(block):
                    break
            assert table.capped and fed - len(block) <= 31 < fed, first
            assert realize(fb, -1) is None
        assert reference_realize(fb, -1, 300) is None

    def test_clean_before_the_identity_degree(self, monkeypatch):
        # c_0..c_5 read as the single weight 1, clean at length 6 and
        # past 4 + sum(a), but the identity degree 4 + (2+3+5+8) + 1 = 23
        # is not reached; the family shows up only further on
        fb = FormalBasket(
            basket_of([[1, 2, 2], [1, 3, 2], [1, 5, 1], [1, 8, 1]]), 1, -1)
        monkeypatch.setattr(series_module, "_FIRST_BLOCK", 6)
        table = TableMethod(max_weights=7, max_degrees=3)
        assert table.feed(next(basket_series_blocks(fb, -1, 300)))
        rec = table.presentation()
        assert (rec.weights, rec.degrees, rec.residual_clean) == ((1,), (), True)
        assert 4 + 1 <= table.length - 1 < (series_numerator_degree(fb, -1)
                                            + sum(rec.weights))
        got = realize(fb, -1)
        assert unbound(got) == unbound(reference_realize(fb, -1, 300))
        assert got.candidate.text() == "1,6,8,9,10,15 / 18,30"

    @pytest.mark.parametrize("basket,chi,chi2,alpha,reads", [
        # 1,6,8,9,10,15 / 18,30: num + 1 = 4 + (2+3+5+8) + 1 = 23, but the
        # degree 30 is read only at length 31, so the certificate fails
        # at 23 and holds at the next block's end, 46
        ([[1, 2, 2], [1, 3, 2], [1, 5, 1], [1, 8, 1]], 1, -1, -1,
         {8: [8, 8, 7, 23], 12: [12, 11, 23], 23: [23, 23], 31: [23, 23]}),
        # 1,1,1,1,1,2 / 3,5: every entry is read by num + 1 = 4 + 2 + 1 + 1
        ([[1, 2, 1]], -4, 16, 1, {4: [4, 4], 7: [7, 1], 8: [8], 9: [8]})],
        ids=["fano", "ample-canonical"])
    def test_reads_to_the_first_block_past_the_identity_degree(
            self, monkeypatch, basket, chi, chi2, alpha, reads):
        # the identity S = P is certified at the first block end past
        # both num and the largest entry: no block runs past num + 1, and
        # a block end from num + 1 on certifies once every entry is read
        fb = FormalBasket(basket_of(basket), chi, chi2)
        fed = []

        def counted(*args):
            for block in basket_series_blocks(*args):
                fed.append(len(block))
                yield block

        monkeypatch.setattr(classify_module, "basket_series_blocks", counted)
        for first, read in reads.items():
            monkeypatch.setattr(series_module, "_FIRST_BLOCK", first)
            fed.clear()
            got = realize(fb, alpha)
            assert unbound(got) == unbound(reference_realize(fb, alpha, 300))
            assert fed == read, first
            assert clears_denominator(
                got.candidate.weights, got.candidate.degrees,
                {q.r for q in fb.basket}, series_numerator_degree(fb, alpha))

    @pytest.mark.parametrize("alpha", [-1, 1])
    def test_degree_sum_sets_the_identity_length(self, monkeypatch, alpha):
        # realize() reads a constructed series, (1 - t^4)^3 / (1 - t)^5,
        # in the blocks of the basket's own.  Its presentation
        # 1,1,1,1,1 / 4,4,4 is read by length 5, and it divides the
        # basket denominator (1 - t)^4, but the degree sum puts the
        # quotient (1 - t^4)^3 / (1 - t) at 4 + 12 - 5 = 11, over
        # num = 4 + [alpha = +1]; so it is never certified, the read runs
        # to the recovery bound, and nothing is realized
        fb = FormalBasket((), 1, 0)
        num = series_numerator_degree(fb, alpha)
        assert num == 4 + (alpha == 1)
        assert not clears_denominator((1,) * 5, (4,) * 3, set(), num)
        bound = recovery_bound(fb, alpha)
        series = poincare_series((1,) * 5, (4,) * 3, bound).coeffs
        fed = []

        def constructed(*args):
            lo = 0
            for block in basket_series_blocks(*args):
                fed.append(len(block))
                yield list(series[lo:lo + len(block)])
                lo += len(block)

        monkeypatch.setattr(classify_module, "basket_series_blocks",
                            constructed)
        assert realize(fb, alpha) is None
        first = num + 1  # the first block ends at num + 1, then doubles
        assert fed[:3] == [first, first, 2 * first]
        assert sum(fed) == bound + 1


class TestTuplePrefix:
    """Every basket of a tuple reads the tuple's low series first."""

    def test_baskets_start_with_their_tuple(self, fano_pairs, ample_pairs):
        for alpha, pairs in ((-1, fano_pairs), (1, ample_pairs)):
            for t, fb in pairs:
                assert series_from_basket(fb, alpha, len(t[0])).coeffs == \
                    low_series_oracle(t), (t, fb)
        assert len(fano_pairs) == 1644

    def test_prefix_table_reads_the_tuple(self):
        # the table _survivors starts each hit from, off the chi data the
        # sweep builds, reads exactly the tuple's counted weights and
        # degrees
        points, read = _PointTable(), 0
        for row in iter_tuples(-1):
            data = _tuple_baskets(row, -1, points)[3]
            if data is None:
                continue
            t = row[:2]
            table = _table(-1, data.p)
            rec = table.presentation()
            assert table.length == len(t[0]) + 1
            assert list(rec.weights) == weight_values(t)
            assert list(rec.degrees) == degree_values(t)
            read += 1
        assert read == 191

    def test_realize_from_the_prefix(self, fano_pairs, monkeypatch):
        # from the prefix, from scratch and by the plain whole-series
        # path; both reads run to the certified bound, the prefix one
        # from past the horizon
        starts = []

        def recorded(fb, alpha, bound, start=0, end=None):
            starts.append((bound, start))
            return basket_series_blocks(fb, alpha, bound, start, end)

        monkeypatch.setattr(classify_module, "basket_series_blocks", recorded)
        realized = 0
        for t, fb in fano_pairs:
            starts.clear()
            got = realize(fb, -1, prefix_table(t, -1))
            assert got == realize(fb, -1), fb
            bound = recovery_bound(fb, -1)
            assert starts == [(bound, len(t[0]) + 1), (bound, 0)]
            assert unbound(got) == unbound(reference_realize(fb, -1, 300)), fb
            realized += got is not None
        assert realized == 181


def _points(fb):
    return tuple((q.b, q.r) for q in fb.basket)


def _by_tuple(pairs):
    """The baskets of each tuple, in order, from (tuple, basket) pairs."""
    groups = {}
    for t, fb in pairs:
        groups.setdefault(t, []).append(fb)
    return groups.items()


class TestClosureRead:
    """The sweep reads c_{h+1}..c_15 off a basket's points, not its series."""

    def test_coefficients_match_the_series(self, fano_pairs, ample_pairs):
        for alpha, pairs in ((-1, fano_pairs), (1, ample_pairs)):
            points = _PointTable()
            checked = 0
            for t, fbs in _by_tuple(pairs):
                got = _closure_coeffs(ChiData(*chi_data_oracle(t, alpha)),
                                      alpha, [_points(fb) for fb in fbs],
                                      points)
                assert len(got) == len(fbs)
                for fb, coeffs in zip(fbs, got):
                    want = chain.from_iterable(
                        basket_series_blocks(fb, alpha, 15, len(t[0]) + 1))
                    assert coeffs == tuple(want), (t, fb)
                    assert len(coeffs) == 15 - len(t[0])
                    checked += 1
            assert checked == len(pairs)

    def test_outcome_matches_realize_from_the_prefix(self, fano_pairs,
                                                     ample_pairs):
        # a cut basket is one realize() rejects; a survivor realizes from
        # the staged table exactly as from the tuple prefix.  222 of the
        # 1,644 -1 baskets survive, 9 of the 895 of the +1 sample
        for alpha, pairs, kept in ((-1, fano_pairs, 222),
                                   (1, ample_pairs, 9)):
            survived = 0
            for t, fbs in _by_tuple(pairs):
                staged = _survivors(ChiData(*chi_data_oracle(t, alpha)),
                                    alpha, [_points(fb) for fb in fbs],
                                    _PointTable())
                for fb, survivor in zip(fbs, staged, strict=True):
                    want = realize(fb, alpha, prefix_table(t, alpha))
                    if survivor is None:
                        assert want is None, (t, fb)
                        continue
                    got_fb, table = survivor
                    assert got_fb == fb and table.length == 16
                    assert table.coeffs == list(
                        series_from_basket(fb, alpha, 15).coeffs)
                    assert realize(fb, alpha, table) == want, (t, fb)
                    survived += 1
            assert survived == kept

    def test_fano_sweep_builds_and_realizes_only_the_survivors(
            self, monkeypatch):
        built = Counter()

        def counted(name, f):
            def wrapped(*args, **kwargs):
                built[name] += 1
                return f(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(classify_module, "realize",
                            counted("realize", realize))
        for module in (classify_module, baskets_module):
            monkeypatch.setattr(module, "FormalBasket",
                                counted("FormalBasket", FormalBasket))
        report = classify(RunConfig(alpha=-1))
        assert built == {"realize": 222, "FormalBasket": 222}
        assert report.statistics == {
            "tuples": 7056, "baskets": 1608, "negative_sections": 525,
            "unrealized": 1427, "isolated_gcd_counts": 4033,
            "empty_sigma5_range": 314, "negative_unpacked_counts": 1993,
            "realized": 181}
        assert len(report.records) == 181

    def test_fano_sweep_reads_each_survivor_to_its_certificate(
            self, monkeypatch):
        # past c_15, the 222 realize() calls of a -1 run read 2,220
        # coefficients in all (8,221 when each read ran on to
        # 1 + max(num + sum(a), den + sum(d)))
        pulled = []

        def counted(*args):
            for block in basket_series_blocks(*args):
                pulled.append(len(block))
                yield block

        monkeypatch.setattr(classify_module, "basket_series_blocks", counted)
        assert len(classify(RunConfig(alpha=-1)).records) == 181
        assert sum(pulled) == 2220


class TestRecordCertificate:
    """A divisor matching stands in for each record's own series."""

    def test_matching_records_have_no_negative_coefficient(self, fano,
                                                           gt_report):
        unmatched = []
        for report in (fano, gt_report[0]):
            for rec in report.records:
                cand = rec.candidate
                if not divisor_matching(cand.weights, cand.degrees):
                    unmatched.append(cand.text())
                    continue
                bound = recovery_bound(rec.formal_basket, report.alpha)
                assert min(series_from_candidate(cand, bound).coeffs) >= 0
        assert unmatched == ["2,3,4,5,5,6,7 / 10,11,12"]

    def test_records_clear_their_basket_denominators(self, fano, gt_report):
        # a record's series is its basket's, N / D, so D times it is N,
        # a polynomial of degree at most series_numerator_degree
        for report in (fano, gt_report[0]):
            for rec in report.records:
                fb, cand = rec.formal_basket, rec.candidate
                args = (cand.weights, cand.degrees,
                        {q.r for q in fb.basket if q.r > 1},
                        series_numerator_degree(fb, report.alpha))
                assert clears_denominator(*args), cand.text()
                assert clears_denominator_oracle(*args), cand.text()

    def test_only_the_unmatched_record_builds_its_series(self, gt_report,
                                                         monkeypatch):
        built = []

        def counted(cand, bound):
            built.append((cand.text(), bound))
            return series_from_candidate(cand, bound)

        monkeypatch.setattr(classify_module, "series_from_candidate", counted)
        for rec in gt_report[0].records:
            built.clear()
            got = realize(rec.formal_basket, 1)
            assert got.candidate == rec.candidate
            if rec.candidate.text() == "2,3,4,5,5,6,7 / 10,11,12":
                assert built == [(rec.candidate.text(), 86116)]
                assert got.series_bound == 86116
            else:
                assert built == []


class TestSeriesIdentity:
    """A basket series is N / ((1 - t)^4 prod(1 - t^r)), deg N as stated."""

    @staticmethod
    def _numerator(fb, alpha, n):
        # 12 * lcm(2r) * c_m for m < n, from the rational chi_m_oracle,
        # so the identity does not lean on the signature form, and
        # integral however the chi_m fall (2r l(m) is an integer); then
        # times the denominator, one factor at a time
        unit = 12 * lcm(1, *(2 * q.r for q in fb.basket))
        if alpha == 1:
            c = [unit, unit * (1 - fb.chi)] + [
                unit * chi_m_oracle(fb, m) for m in range(2, n)]
        else:
            c = [unit] + [-unit * chi_m_oracle(fb, m + 1)
                          for m in range(1, n)]
        assert all(cm.denominator == 1 for cm in c)
        c = [int(cm) for cm in c]
        for r in [1, 1, 1, 1, *{q.r for q in fb.basket}]:
            mul_into_oracle(c, r)
        return c

    def _degree(self, fb, alpha):
        """deg N, checked to be below series_numerator_degree over a window."""
        bound = series_numerator_degree(fb, alpha)
        c = self._numerator(fb, alpha, 2 * bound + 8)
        assert not any(c[bound + 1:]), (fb, alpha)
        return max(m for m, cm in enumerate(c) if cm)

    def test_every_fano_basket(self, fano_baskets):
        for fb in fano_baskets:
            self._degree(fb, -1)

    def test_ample_canonical_tuple_baskets(self, ample_pairs):
        assert len(ample_pairs) > 500
        for _, fb in ample_pairs:
            self._degree(fb, 1)

    def test_random_baskets_attain_the_bound(self):
        rng = random.Random(67)
        attained = {-1: 0, 1: 0}
        for _ in range(300):
            fb = FormalBasket(canonical(random_basket(rng)),
                              rng.randint(-10, 10), rng.randint(-10, 40))
            for alpha in (-1, 1):
                attained[alpha] += (self._degree(fb, alpha)
                                    == series_numerator_degree(fb, alpha))
        # so neither bound can be lowered
        assert attained[-1] > 0 and attained[1] > 0


class TestGcdScreen:
    """The tuple-level isolated_gcd_counts cut loses no record."""

    def test_matches_direct_counts(self):
        for alpha, codim_max in ((-1, 3), (1, 5)):
            rows = list(iter_tuples(alpha))
            if alpha == 1:
                rows = random.Random(71).sample(rows, 5000)
            for row, pruned in zip(rows, pruned_by(rows, alpha)):
                t = row[:2]
                ws, ds = weight_values(t), degree_values(t)
                want = False
                for h in range(2, len(t[0]) + 1):
                    w = sum(1 for a in ws if a % h == 0)
                    d = sum(1 for dd in ds if dd % h == 0)
                    if w > codim_max + 1 or d + codim_max - len(ds) < w - 1:
                        want = True
                assert (pruned == "isolated_gcd_counts") == want, t

    def test_records_come_from_their_own_tuple(self, fano):
        rows = {row[:2]: row for row in iter_tuples(-1)}
        for rec in fano.records:
            mu, nu = tuple_of_candidate(rec.candidate, 5)
            # the record's own tuple passes every tuple screen
            assert pruned_by([rows[mu, nu]], -1) == [None]
            assert all(p.startswith(f"tuple mu={mu} nu={nu} ")
                       for p in rec.provenance), rec.provenance

    def test_cut_fano_tuples_realize_nothing(self):
        rows = list(iter_tuples(-1))
        cut = [row for row, pruned in zip(rows, pruned_by(rows, -1))
               if pruned == "isolated_gcd_counts"]
        assert len(cut) == 4033
        pairs = unscreened_baskets(cut, -1)
        assert len(pairs) == 36
        assert [fb for _, fb in pairs if realize(fb, -1) is not None] == []

    def test_cut_ample_canonical_sample_realizes_nothing(self):
        rows = list(iter_tuples(1))
        cut = [row for row, pruned in zip(rows, pruned_by(rows, 1))
               if pruned == "isolated_gcd_counts"]
        assert len(cut) == 91667
        pairs = unscreened_baskets(random.Random(73).sample(cut, 1500), 1)
        assert len(pairs) > 500
        assert [fb for _, fb in pairs if realize(fb, 1) is not None] == []

    def test_heaviest_tuple_is_cut(self):
        # 39,040 baskets unscreened; divisor 3 carries four weights 6
        # and at most one degree past the four quartics
        heavy = ((3, 2, 0, 0, 0, 4), (0, 0, 4, 0, 0))
        assert tuple_baskets(heavy, 1) == (
            [], [], "isolated_gcd_counts", None)


class TestStreamedRecoveryOnBaskets:
    def test_every_fano_basket_series(self, fano_baskets):
        # the table method fed each basket's blocks against the in-place
        # loop over the whole series at bound 300, under a 15-entry cap
        # and under realize()'s 7-weight and 3-degree caps
        for fb in fano_baskets:
            coeffs = series_from_basket(fb, -1, 300).coeffs
            for caps in ((15, None, None), (None, 7, 3)):
                table = TableMethod(*caps)
                for block in basket_series_blocks(fb, -1, 300):
                    if not table.feed(block):
                        break
                got = table.presentation()
                assert (got.weights, got.degrees, got.residual_clean,
                        got.capped) == recover_oracle(coeffs, *caps), fb


class TestClosureCache:
    def test_shared_within_a_run_and_dropped_after(self, monkeypatch):
        made = {"point types": [], "shapes": [], "ChiData": 0}

        def counted(module, name, record):
            f = getattr(module, name)

            def wrapped(*args, **kwargs):
                record(args)
                return f(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        def tally(key):
            def record(args):
                made[key] += 1
            return record

        class Shape(baskets_module._Shape):
            def __init__(self, *args):
                super().__init__(*args)
                made["shapes"].append(self)

        monkeypatch.setattr(baskets_module, "_Shape", Shape)
        counted(baskets_module, "_point_sigmas",
                lambda args: made["point types"].append(args[:2]))
        counted(classify_module, "ChiData", tally("ChiData"))

        def check():
            # the 1,053 fibers of a run read 76 point types, each once
            # into the run's point table, and share 5 shapes, one per bit
            # length of a root's total, with 77 vector tables; only the
            # 191 tuples past every screen get chi data
            assert len(made["point types"]) == \
                len(set(made["point types"])) == 76
            assert len(made["shapes"]) == 5
            assert sum(len(shape.vectors) for shape in made["shapes"]) == 77
            assert made["ChiData"] == 191

        first = classify(RunConfig(alpha=-1)).to_json()
        check()
        # a second run finds none of it kept, so it reads all again
        made.update({"point types": [], "shapes": [], "ChiData": 0})
        assert classify(RunConfig(alpha=-1)).to_json() == first
        check()


class TestIntegerFrontEnd:
    """The integer front end against tuple_baskets_oracle's object path."""

    @pytest.mark.parametrize("alpha", [-1, 1])
    def test_matches_object_path(self, alpha):
        rows = list(iter_tuples(alpha))
        if alpha == 1:  # the sample ample_pairs reads
            rows = random.Random(61).sample(rows, 2000)
        points = _PointTable()
        pruned_counts = Counter()
        for row in rows:
            t = row[:2]
            hits, violations, pruned, data = _tuple_baskets(
                row, alpha, points)
            assert (hits, violations, pruned) == \
                tuple_baskets_oracle(t, alpha), t
            assert data == (None if pruned else ChiData(
                *chi_data_oracle(t, alpha))), t
            pruned_counts[pruned] += 1
        assert pruned_counts == ({
            "isolated_gcd_counts": 4033, "negative_unpacked_counts": 1993,
            "negative_sections": 525, "empty_sigma5_range": 314, None: 191}
            if alpha == -1 else {
            "isolated_gcd_counts": 1282, "negative_unpacked_counts": 514,
            "negative_sections": 151, "empty_sigma5_range": 37,
            "pluri_growth": 2, None: 14})


class TestHelpers:
    def test_quadruples(self):
        assert list(_quadruples(Fraction(5))) == [
            (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 3),
            (1, 1, 1, 4), (1, 1, 1, 5), (1, 1, 2, 2)]

    def test_compositions(self):
        assert list(_compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
        assert list(_compositions(3, 1)) == [(3,)]
        assert list(_compositions(2, 3)) == []


class TestAmplitudeZero:
    def test_full_list(self):
        recs = classify_cy()
        assert [r.candidate.text() for r in recs] == CY_FAMILIES

    def test_full_screen_follows_the_product_check(self, monkeypatch):
        # 37 of the 4,288 candidates pass check_cy_product; only they
        # get the full screen, whose report each record keeps
        screened = []

        def counted(cand):
            screened.append(cand)
            return necessary_screen(cand)

        monkeypatch.setattr(classify_module, "necessary_screen", counted)
        recs = classify_cy()
        assert len(screened) == 37
        assert [r.candidate.text() for r in recs] == CY_FAMILIES
        assert all(r.screen == necessary_screen(r.candidate) for r in recs)

    def test_records_are_sound(self):
        for rec in classify_cy():
            assert rec.candidate.amplitude == 0
            assert rec.candidate.dim == 3
            assert rec.screen.passed
            assert rec.formal_basket is None


@pytest.fixture(scope="module")
def fano():
    return classify(RunConfig(alpha=-1))


class TestDriver:
    def test_fano_counts(self, fano):
        assert len(fano.records) == 181
        assert fano.exhaustiveness_violations == []
        by_codim: dict[int, int] = {}
        for rec in fano.records:
            by_codim[rec.candidate.codim] = by_codim.get(rec.candidate.codim, 0) + 1
        assert by_codim == {1: 95, 2: 85, 3: 1}

    def test_fano_records_are_sound(self, fano):
        for rec in fano.records:
            assert rec.candidate.amplitude == -1
            assert rec.candidate.dim == 3
            assert rec.screen.passed
            assert rec.formal_basket is not None
            assert rec.provenance

    def test_fano_contains_classics(self, fano):
        texts = {r.candidate.text() for r in fano.records}
        assert "1,1,1,1,1 / 4" in texts
        assert "1,1,1,1,2 / 5" in texts
        assert "1,1,1,2,2 / 6" in texts
        assert "1,1,1,1,1,1 / 2,3" in texts

    def test_fano_determinism(self, fano):
        again = classify(RunConfig(alpha=-1))
        assert again.to_json() == fano.to_json()

    def test_codim_filter(self):
        report = classify(RunConfig(alpha=-1, codim=(3,)))
        assert [r.candidate.text() for r in report.records] == \
            ["1,1,1,1,1,1,1 / 2,2,2"]

    def test_statistics_shape(self, fano):
        # every tuple and basket in its bucket, keys in first-seen order
        assert list(fano.statistics.items()) == [
            ("tuples", 7056), ("baskets", 1608), ("negative_sections", 525),
            ("unrealized", 1427), ("isolated_gcd_counts", 4033),
            ("empty_sigma5_range", 314), ("negative_unpacked_counts", 1993),
            ("realized", 181)]

    def test_ample_canonical_statistics_shape(self, gt_report):
        # the same for +1; the key order is inside the pinned digests
        assert list(gt_report[0].statistics.items()) == [
            ("tuples", 146880), ("baskets", 42870), ("unrealized", 42748),
            ("negative_sections", 10892), ("empty_sigma5_range", 2656),
            ("isolated_gcd_counts", 91667),
            ("negative_unpacked_counts", 40623), ("pluri_growth", 286),
            ("realized", 122), ("volume", 1)]

    def test_report_round_trips_to_json(self, fano):
        import json
        blob = json.loads(fano.to_json())
        assert blob["alpha"] == -1
        assert len(blob["records"]) == 181
        assert blob["records"][0]["codim"] == 1

    def test_amplitude_guard(self):
        with pytest.raises(ValueError):
            classify(RunConfig(alpha=2))
