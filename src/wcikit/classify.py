"""Classification drivers for amplitude -1, 0 and +1 threefold families.

Amplitude 0 is a direct finite enumeration: the ratio screen caps the
four smallest weights, the degree excess identity then caps everything
else.  Amplitudes -1 and +1 run the basket pipeline: enumerate the
small-value counts a family could show, derive its chi data, enumerate
the formal baskets consistent with that data, and try to realize each
basket as a candidate by recovering weights and degrees from its series.
All arithmetic is exact; every pruning step is a proved necessary
condition, and any tuple the case analysis cannot bound is reported, not
dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from math import lcm
from operator import gt, neg
from typing import Iterable, Iterator, Sequence

from . import _jsonout
from .baskets import (
    FormalBasket,
    Orbifold,
    Points,
    _chi_term,
    _chis,
    _descendant_points,
    _PointTable,
    _unpacked,
    high_index_count_bounds,
    pluri_growth_filter,
)
from .candidate import (
    Candidate,
    InvalidCandidate,
    ScreenReport,
    check_cy_product,
    necessary_screen,
    normalize,
)
from .series import (
    TableMethod,
    basket_series_blocks,
    clears_denominator,
    div_into,
    divisor_matching,
    max_weight_ok,
    mul_into,
    recovery_bound,
    series_from_candidate,
    series_numerator_degree,
)

_HORIZON = {-1: 5, 1: 6}
# A record has codim <= codim_max (necessary_screen's codim_bound: 3
# for -1, 5 for +1), so at most codim_max + 4 weights and codim_max
# degrees; these cap both the tuples and the entries realize() reads
# off a series.
_MU_CAP = {-1: 7, 1: 9}
_NU_CAP = {-1: 3, 1: 5}


def iter_tuples(alpha: int) -> Iterator[tuple]:
    """Admissible count tuples for one amplitude, in lexicographic order.

    Caps: at most dim + codim_cap + 1 weights and codim_cap degrees in
    total; a value cannot be both a weight and a degree (no linear cone);
    for amplitude +1 a small degree forces enough small weights below it.
    Yields plain rows (mu, nu, mu row, nu row); the count tuple (mu, nu)
    counts the weights of value 1..h and the degrees of value 2..h, and
    row[:2] keys it.  A mu row holds 1 / prod(1 - t^a) over the
    counted weights a, up to t^h, and the counted weights divisible by
    k = 2..h; a nu row the terms (s, n), 0 < s <= h, of prod(1 - t^d)
    over the counted degrees d, and per k the most weights divisible by
    k a record may have: one more than its degrees divisible by k, the
    counted ones plus the nu_cap - sum(nu) it may have past the horizon
    (never above nu_cap + 1, the other cap of the screen).
    """
    if alpha not in _HORIZON:
        raise ValueError("tuple enumeration defined for amplitude -1 or +1")
    h = _HORIZON[alpha]
    mu_cap, nu_cap = _MU_CAP[alpha], _NU_CAP[alpha]
    # Per nu: a bit per value 2..h it uses as a degree, its prefix sums,
    # the number of degrees of value at most s for s = 2..h, and its row.
    nus = [(nu, _used(nu), tuple(accumulate(nu)),
            (tuple((s, n) for s, n in enumerate(c) if s and n),
             tuple(n + nu_cap - sum(nu) + 1 for n in divisible)))
           for nu, c, divisible in _counts(h - 1, nu_cap, 2, mul_into)]
    # The nus a mu admits depend only on the values 2..h it uses as
    # weights and, for +1, on its room: 4 more than the number of
    # weights of value at most s, for s = 2..h, capped at nu_cap (no nu
    # prefix sum exceeds that).  For -1 the room is empty and binds no nu.
    admitted: dict[tuple, list[tuple]] = {}
    for mu, w, divisible in _counts(h, mu_cap, 1, div_into):
        used = _used(mu[1:])
        room = (tuple(min(p + 4, nu_cap) for p in accumulate(mu))[1:]
                if alpha == 1 else ())
        nus_of_mu = admitted.get((used, room))
        if nus_of_mu is None:
            nus_of_mu = admitted[used, room] = [
                (nu, row) for nu, nu_used, below, row in nus
                if not nu_used & used and not any(map(gt, below, room))]
        for nu, nu_row in nus_of_mu:
            yield mu, nu, (w, divisible), nu_row


def _counts(n: int, cap: int, first: int, into) -> Iterator[tuple]:
    """Tuples of n counts with sum at most cap, in lexicographic order.

    Count i is of value first + i.  Each comes with the series into
    (div_into or mul_into) makes of 1 with each counted value, up to
    t^(first + n - 1), and the counted values divisible by k = 2..first
    + n - 1; both grow a value at a time as a count is raised.
    """
    top = first + n - 1
    counts = [0] * n
    divisors = [[k - 2 for k in range(2, v + 1) if v % k == 0]
                for v in range(top + 1)]

    def rec(i: int, left: int, c: list[int], d: list[int]) -> Iterator:
        if i == n:
            yield tuple(counts), tuple(c), tuple(d)
            return
        c, d = c.copy(), d.copy()
        for count in range(left + 1):
            counts[i] = count
            yield from rec(i + 1, left - count, c, d)
            into(c, first + i)
            for k in divisors[first + i]:
                d[k] += 1

    return rec(0, cap, [1] + [0] * top, [0] * (top - 1))


def _used(counts: tuple[int, ...]) -> int:
    """Bit i set when counts[i] is nonzero."""
    return sum(1 << i for i, n in enumerate(counts) if n)


@dataclass(frozen=True, slots=True)
class ChiData:
    """chi and chi_2 implied by a count tuple, plus its series c_0..c_h."""

    chi: int
    chi2: int
    p: tuple[int, ...]


def _low_series(row: tuple) -> list[int]:
    """c_0..c_h of a row of iter_tuples: its mu row times its nu terms."""
    (w, _), (terms, _) = row[2:]
    low = list(w)
    for k, n in terms:
        for m in range(k, len(w)):
            low[m] += n * w[m - k]
    return low


def _chi_ints(low: Sequence[int], alpha: int) -> tuple[int, int, Sequence]:
    """(chi, p_g, chis) off c_0..c_h, with chis[m] = chi_m for m = 2..6.

    Amplitude +1: c_m = chi_m for m >= 2 and c_1 = p_g, so chi = 1 - p_g.
    Amplitude -1: c_m counts sections of -mK, which equals -chi_{m+1}.
    """
    if alpha == 1:
        return 1 - low[1], low[1], low
    if alpha == -1:
        return 1, 0, (0, *map(neg, low))
    raise ValueError("chi data defined for amplitude -1 or +1")


# The -1 index multisets weigh c_2 loads sum(r - 1/r), for r <= 24,
# scaled by the lcm of 1..24, so every load is an integer.  The indices
# stop at 24 because one point (1, 25) alone loads 25 - 1/25 > 24, past
# the walk's c_2 cut; a range of 5..30 reads the same 1,608 baskets.
_C2_SCALE = lcm(*range(1, 25))
_C2_LOAD = tuple(r * _C2_SCALE - _C2_SCALE // r if r else 0
                 for r in range(25))


def _r_multisets(s: int, costs: dict[int, int],
                 budget: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing s-multisets of the indices in costs within budget.

    costs maps each index, in increasing order, to its cost, which must
    grow with the index; a multiset's total cost stays at most budget.
    """
    items = tuple(costs.items())
    acc: list[int] = []

    def rec(start: int, left: int, spent: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield tuple(acc)
            return
        for i in range(start, len(items)):
            r, cost = items[i]
            if spent + left * cost > budget:
                break
            acc.append(r)
            yield from rec(i, left - 1, spent + cost)
            acc.pop()

    yield from rec(0, s, 0)


def _volume_cap(s: int, headroom: int, scale: int) -> int | None:
    """Index cap from beta = 1/4 - headroom/scale + (s - 1)/20, if positive.

    The cap is the largest r with r * beta < 1.  beta is a multiple of
    1/lcm(20, scale), so the cap stays below that lcm.
    """
    unit = lcm(20, scale)
    beta = unit // 4 - headroom * (unit // scale) + (s - 1) * (unit // 20)
    return (unit - 1) // beta if beta > 0 else None


def _tuple_baskets(row: tuple, alpha: int, points: _PointTable
                   ) -> tuple[list[tuple[Points, str]], list[str],
                              str | None, ChiData | None]:
    """Formal baskets consistent with one row of iter_tuples, with case labels.

    Returns (baskets, exhaustiveness violations, the screen that pruned
    the tuple or None, the tuple's ChiData or None when pruned); each
    basket is the sorted (b, r) tuple of its points, as
    _descendant_points gives it, sorted in turn.  Case labels:
    'sigma5-zero' needs no high index points, 'ambient-capped' bounds
    their index by the largest possible weight, 'volume-capped' by
    positivity of the unpacked volume.  points is the run's point
    table.  The screens read plain integers; only a tuple that passes
    them all gets a ChiData.

    The targets leave out chi_3, which is the same on every basket of a
    root's fiber and equals c_3 there.  Each point has sigma_3 = -12b:
    S(3) = b(r - b) + 2b(r - 2b) = 3br - 5b^2 when 2b < r, so
    sigma_3 = (6 S(3) - 30 S(2)) / r = -12b, and (1, 2) has S(3) = 1,
    sigma_3 = (6 - 30) / 2 = -12.  So 12 chi_3 = _chi_term(3) - 12 sum b
    = 60 chi_2 + 120 chi - 12 sum b, and sum b, the number of points of
    the unpacking, is the root's n12 + n13 + n14.  By _unpacked that
    number is sigma = 10 chi + 5 chi_2 - c_3, so
    chi_3 = 5 chi_2 + 10 chi - sigma = c_3 on every basket.
    """
    mu, nu, (_, divisible), (_, room) = row
    # c_0..c_h fix a record's counted weights and degrees, so more counted
    # weights divisible by some h than room leaves fail its gcd counts.
    if any(map(gt, divisible, room)):
        return [], [], "isolated_gcd_counts", None
    low = _low_series(row)
    if min(low) < 0:
        return [], [], "negative_sections", None
    chi, pg, chis = _chi_ints(low, alpha)
    n12, n13, n14, _ = _unpacked(chi, chis)
    if n12 < 0 or n13 < 0 or n14 < 0:
        return [], [], "negative_unpacked_counts", None
    lo, hi = high_index_count_bounds(chi, chis)
    if lo > hi:
        return [], [], "empty_sigma5_range", None
    if alpha == 1:
        if not pluri_growth_filter(low, pg):
            return [], [], "pluri_growth", None
        # (1 - p_g - P_2 - P_3 + P_5)/12 - sigma5/20 <= 0, times 60
        if 5 * (1 - pg - low[2] - low[3] + low[5]) <= 3 * lo:
            return [], [], "volume", None

    chi2, targets = chis[2], {m: chis[m] for m in (4, 5, 6)}
    data = ChiData(chi, chi2, tuple(low))
    violations: list[str] = []
    found: list[tuple[Points, str]] = []

    if alpha == 1:
        # k3 with each high index point at (1, 4); (1, r) takes (r - 1)/r
        vol = Fraction(24 * (chi2 + 3 * chi) - 6 * n12 - 8 * n13 - 9 * n14, 12)
        headroom, scale = vol.numerator, vol.denominator
        ambient_capped = sum(mu) >= 5 or any(nu)

    for s in range(lo, hi + 1):
        base = (2,) * n12 + (3,) * n13 + (4,) * (n14 - s)
        if alpha == -1:
            # 24 - c_2 load of base, scaled
            budget = 24 * _C2_SCALE - n12 * _C2_LOAD[2] \
                - n13 * _C2_LOAD[3] - (n14 - s) * _C2_LOAD[4]
            if budget < 0:
                continue
            multisets = _r_multisets(
                s, {r: _C2_LOAD[r] for r in range(5, 25)}, budget)
            case = "c2-capped" if s else "sigma5-zero"
        else:
            if s == 0:
                multisets = iter([()])
                case = "sigma5-zero"
            else:
                caps: list[int] = []
                if ambient_capped:
                    caps.append(31)
                vcap = _volume_cap(s, headroom, scale)
                if vcap is not None:
                    caps.append(vcap)
                if not caps:
                    violations.append(
                        f"tuple mu={mu} nu={nu}: no index cap for "
                        f"sigma5={s}")
                    continue
                cap = min(caps)
                if cap < 5:
                    continue
                # headroom / scale is K^3 with every high index point
                # set to (1,4); each point (1,r) spends 1/4 - 1/r of it,
                # and the total spend stays strictly below headroom, so
                # in units of 1 / den it is at most one unit less.
                den = lcm(4, scale, *range(5, cap + 1))
                multisets = _r_multisets(
                    s, {r: den // 4 - den // r for r in range(5, cap + 1)},
                    headroom * (den // scale) - 1)
                case = "ambient-capped" if ambient_capped else "volume-capped"
        for rs in multisets:
            # Each basket lies in the fiber of one root, its initial
            # basket, so no two roots find the same basket.  The walk's
            # cut keeps c_2 <= 24 and K^3 < 0 for -1, K^3 > 0 for +1.
            found.extend((hit, case) for hit in _descendant_points(
                base + rs, chi, chi2, targets, alpha, points))
    found.sort(key=lambda hit: hit[0])
    return found, violations, None, data


@dataclass(frozen=True, slots=True)
class ClassificationRecord:
    candidate: Candidate
    formal_basket: FormalBasket | None
    screen: ScreenReport
    provenance: tuple[str, ...]
    series_bound: int

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate.text(),
            "weights": list(self.candidate.weights),
            "degrees": list(self.candidate.degrees),
            "codim": self.candidate.codim,
            "dim": self.candidate.dim,
            "alpha": self.candidate.amplitude,
            "formal_basket": (None if self.formal_basket is None
                              else self.formal_basket.to_dict()),
            "series_bound": self.series_bound,
            "provenance": list(self.provenance),
            "screen": self.screen.to_dict(),
        }


def _table(alpha: int, low: Sequence[int] = ()) -> TableMethod:
    """A table with realize()'s entry caps that has read low."""
    table = TableMethod(max_weights=_MU_CAP[alpha], max_degrees=_NU_CAP[alpha])
    table.feed(low)
    return table


# The ends of the first two blocks basket_series_blocks gives from a
# tuple prefix: c_{h+1}..c_7, then c_8..c_15.
_HEAD_END, _STAGED_END = 8, 16


def _closure_coeffs(data: ChiData, alpha: int,
                    hits: Iterable[Points],
                    points: _PointTable) -> list[tuple[int, ...]]:
    """c_{h+1}..c_15 of each hit of one tuple, read off its points.

    data is the tuple's ChiData, whose low series ends at c_h; a hit is
    the (b, r) of its basket's points.  With k = m for +1 (c_m = chi_m)
    and k = m + 1 for -1 (c_m = -chi_{m+1}), 12 chi_k is _chi_term
    plus sigma_k, which adds up over the points (_point_sigmas), so
    every chi_k is integral.  points, the run's point table, holds each
    sigma_k.
    """
    shift = alpha == -1
    ks = range(len(data.p) + shift, _STAGED_END + shift)
    terms = [_chi_term(data.chi, data.chi2, k) for k in ks]
    sign = 1 if alpha == 1 else -1
    return [tuple(sign * c for c in _chis(
        terms, [points[p][ks.start:] for p in hit])) for hit in hits]


def _read(table: TableMethod | None,
          block: tuple[int, ...]) -> TableMethod | None:
    """A copy of table that has read block, or None where realize() stops."""
    if table is None or min(block, default=0) < 0:
        return None
    table = table.copy()
    return table if table.feed(block) else None


def _survivors(data: ChiData, alpha: int, hits: list[Points], points: _PointTable
               ) -> list[tuple[FormalBasket, TableMethod] | None]:
    """Per hit of a tuple, its FormalBasket and a table that read c_0..c_15.

    data is the tuple's ChiData.  Every hit starts with data.p: its chi
    and chi_2 are the tuple's, its chi_3 is the tuple's on the whole
    fiber (_tuple_baskets), and _descendant_points matched its chi_4 to
    chi_6 to the tuple's.  So one table reads data.p, and with it the
    tuple's counted weights and degrees, for all its hits.  None for a
    hit whose c_{h+1}..c_7 or
    c_8..c_15 (_closure_coeffs), the first two blocks realize() reads
    from a table that read data.p, hold a negative coefficient or hit an
    entry cap; realize() rejects it too.  When its
    identity stop comes first, the series past it adds no entry and is
    integral, and a negative coefficient there fails its own series
    check.  Each distinct c_{h+1}..c_7 is read once from a copy of the
    table that read data.p, each distinct c_{h+1}..c_15 once more from
    a copy of that; realize() continues a survivor from index 16.
    """
    split = _HEAD_END - len(data.p)
    prefix = _table(alpha, data.p)
    heads: dict[tuple[int, ...], TableMethod | None] = {}
    reads: dict[tuple[int, ...], TableMethod | None] = {}
    out: list[tuple[FormalBasket, TableMethod] | None] = []
    for hit, coeffs in zip(hits, _closure_coeffs(data, alpha, hits, points)):
        if coeffs not in reads:
            head = coeffs[:split]
            if head not in heads:
                heads[head] = _read(prefix, head)
            reads[coeffs] = _read(heads[head], coeffs[split:])
        table = reads[coeffs]
        out.append(None if table is None else (
            FormalBasket(tuple(Orbifold(b, r) for b, r in hit),
                         data.chi, data.chi2), table))
    return out


def realize(fb: FormalBasket, alpha: int,
            prefix: TableMethod | None = None) -> ClassificationRecord | None:
    """Try to present a formal basket as a candidate family.

    Reads a presentation off the basket series, and keeps the result
    only if it is a dimension 3 candidate of the right amplitude whose
    own series reproduces the basket series exactly.  The basket series
    is the basket's chi_m in the one Riemann-Roch form of baskets.py,
    _chi_term plus its points' signatures (basket_series_blocks).  The
    stop below proves the two series equal, and a read that never
    reaches it runs to the basket's certified recovery bound, so absence
    of a return value means that no presentation realizes the basket.
    The series is built and scanned in blocks, so a basket stops at the
    first block with a negative coefficient or an entry cap hit; every
    coefficient is integral (_point_sigmas).  prefix, a table that has
    read the start of the basket's series already, comes from the sweep
    (_survivors), which has read it on to c_15; realize continues from
    a copy of it.

    Reading stops once the table's length L exceeds num, the
    series_numerator_degree of the basket, and its presentation (a; d)
    clears the basket's denominator D = (1 - t)^4 prod(1 - t^r):
    Q = D prod(1 - t^d) / prod(1 - t^a) is a polynomial of degree at
    most num (clears_denominator).  The basket series is S = N / D with
    deg N <= num, the presentation's series is P = Q / D, and the
    table keeps P = S mod t^L; so N - Q = (S - P) D vanishes mod t^L,
    and, of degree at most num < L, it is zero: S = P.  Every residual
    past L is then zero, so a read to the bound adds no entry, and (a; d) is the one presentation of
    S, since Moebius inversion reads the signed count of each entry off
    the series.  Conversely, if S is the series of any presentation, the
    table has read it once L passes its largest entry, and D S = N
    clears; a read that reaches the bound uncertified realizes nothing.
    The block that would run past num + 1 ends there.  Past L no
    coefficient is negative when the degrees match distinct weights
    dividing them (divisor_matching); otherwise the candidate's own
    series is built to the bound to show it.
    """
    bound = recovery_bound(fb, alpha)
    table = _table(alpha) if prefix is None else prefix.copy()
    num = series_numerator_degree(fb, alpha)
    poles = {q.r for q in fb.basket if q.r > 1}
    blocks = basket_series_blocks(fb, alpha, bound, table.length, num + 1)
    while table.length <= num or not clears_denominator(
            table.weights, table.degrees, poles, num):
        block = next(blocks, None)
        if block is None:
            return None  # read to the bound uncertified
        if min(block) < 0:
            return None  # section counts are never negative
        if not table.feed(block):
            return None
    rec = table.presentation()
    # the table reads each index as weights or as degrees, never both
    if not rec.weights or not rec.degrees:
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
    if not divisor_matching(cand.weights, cand.degrees) and min(
            series_from_candidate(cand, bound).coeffs[table.length:],
            default=0) < 0:
        return None
    return ClassificationRecord(cand, fb, screen, (), bound)


@dataclass(frozen=True, slots=True)
class RunConfig:
    alpha: int
    codim: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "codim": list(self.codim) if self.codim else None,
        }


@dataclass(slots=True)
class RunReport:
    alpha: int
    config: RunConfig
    records: list[ClassificationRecord]
    statistics: dict
    exhaustiveness_violations: list[str]

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "config": self.config.to_dict(),
            "records": [r.to_dict() for r in self.records],
            "statistics": self.statistics,
            "exhaustiveness_violations": list(self.exhaustiveness_violations),
        }

    def to_json(self) -> str:
        return _jsonout.dumps(self.to_dict())


def _quadruples(bound: Fraction) -> Iterator[tuple[int, ...]]:
    """Nondecreasing (a0..a3) with product at most the exact bound."""
    acc: list[int] = []

    def rec(start: int, prod_so_far: int) -> Iterator[tuple[int, ...]]:
        if len(acc) == 4:
            yield tuple(acc)
            return
        a = start
        while prod_so_far * a ** (4 - len(acc)) <= bound:
            acc.append(a)
            yield from rec(a, prod_so_far * a)
            acc.pop()
            a += 1

    yield from rec(1, 1)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered splits of total into the given number of positive parts."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def classify_cy() -> list[ClassificationRecord]:
    """Every amplitude-zero threefold family passing the full screen.

    The ratio screen and product divisibility force the four smallest
    weights to have product at most ((c+4)/c)^c, the degree excess
    identity then bounds the remaining weights by the excess total, and
    each degree is one weight plus one positive excess part.  The exact
    product check runs first; only its survivors get the full screen.
    """
    found: dict[tuple, ClassificationRecord] = {}
    for cc in range(1, 5):
        bound = Fraction(cc + 4, cc) ** cc
        for quad in _quadruples(bound):
            total = sum(quad)
            top = total - cc + 1
            if top < quad[3]:
                continue
            for upper in combinations_with_replacement(
                    range(quad[3], top + 1), cc):
                for comp in _compositions(total, cc):
                    degs = tuple(u + e for u, e in zip(upper, comp))
                    if any(degs[i] > degs[i + 1] for i in range(cc - 1)):
                        continue
                    try:
                        cand = normalize(quad + upper, degs)
                    except InvalidCandidate:
                        continue
                    key = (cand.weights, cand.degrees)
                    if key in found:
                        continue
                    if cand.dim == 3 and cand.amplitude == 0 and \
                            not check_cy_product(cand):
                        continue  # the screen's product_divides fails
                    screen = necessary_screen(cand)
                    if screen.passed:
                        found[key] = ClassificationRecord(
                            cand, None, screen,
                            ("amplitude-zero enumeration",), 0)
    return sorted(found.values(),
                  key=lambda r: (r.candidate.codim, r.candidate.degrees,
                                 r.candidate.weights))


def _merge(merged: dict[tuple, ClassificationRecord],
           rec: ClassificationRecord) -> None:
    """Add a record to merged, keyed by family.

    The family's first record, in tuple order, keeps its basket and
    bound; later ones add their provenance.
    """
    key = (rec.candidate.weights, rec.candidate.degrees)
    old = merged.get(key)
    if old is None:
        merged[key] = rec
    else:
        prov = tuple(sorted(set(old.provenance) | set(rec.provenance)))
        merged[key] = replace(old, provenance=prov)


def _drive(config: RunConfig) -> RunReport:
    alpha = config.alpha
    merged: dict[tuple, ClassificationRecord] = {}
    violations: list[str] = []
    stats: Counter = Counter()
    points = _PointTable()
    for row in iter_tuples(alpha):
        stats["tuples"] += 1
        hits, viols, pruned, data = _tuple_baskets(row, alpha, points)
        violations.extend(viols)
        if pruned:
            stats[pruned] += 1
        stats["baskets"] += len(hits)
        if not hits:
            continue
        survivors = _survivors(data, alpha, [hit for hit, _ in hits], points)
        for (_, case), survivor in zip(hits, survivors):
            rec = None if survivor is None else realize(
                survivor[0], alpha, survivor[1])
            if rec is None:
                stats["unrealized"] += 1
                continue
            stats["realized"] += 1
            prov = f"tuple mu={row[0]} nu={row[1]} case={case}"
            _merge(merged, replace(rec, provenance=(prov,)))

    records = sorted(merged.values(),
                     key=lambda r: (r.candidate.codim, r.candidate.degrees,
                                    r.candidate.weights))
    return RunReport(alpha, config, records, dict(stats), violations)


def classify(config: RunConfig) -> RunReport:
    """Run the driver for the configured amplitude and filter the output."""
    if config.alpha == 0:
        records = classify_cy()
        stats = {"tuples": 0, "baskets": 0, "realized": len(records)}
        report = RunReport(0, config, records, stats, [])
    elif config.alpha in (-1, 1):
        report = _drive(config)
    else:
        raise ValueError("amplitude must be -1, 0 or +1")
    if config.codim:
        report.records = [r for r in report.records
                          if r.candidate.codim in config.codim]
    return report
