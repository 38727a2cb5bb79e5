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

import json
import multiprocessing
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from math import lcm
from operator import gt
from typing import Iterable, Iterator

from .baskets import (
    BasketInconsistency,
    FormalBasket,
    Orbifold,
    Points,
    _chi_term,
    _chis,
    _descendant_points,
    _point_sigmas,
    canonical,
    high_index_count_bounds,
    initial_counts_from_chis,
    k3,
    pluri_growth_filter,
)
from .candidate import (
    Candidate,
    InvalidCandidate,
    ScreenReport,
    necessary_screen,
    normalize,
)
from .series import (
    TableMethod,
    TruncatedSeries,
    basket_series_blocks,
    div_into,
    divisor_matching,
    max_weight_ok,
    mul_into,
    recovery_bound,
    series_from_candidate,
    series_numerator_degree,
)

_HORIZON = {-1: 5, 1: 6}
# A record has codim <= codim_max (check_codim_bound: 3 for -1, 5 for
# +1), so at most codim_max + 4 weights and codim_max degrees; these
# cap both the tuples and the entries realize() reads off a series.
_MU_CAP = {-1: 7, 1: 9}
_NU_CAP = {-1: 3, 1: 5}
# Tuple chunks per worker process in a multi-job run.
_CHUNKS_PER_JOB = 16


@dataclass(frozen=True, slots=True)
class CountTuple:
    """Counts of small weights (values 1..h) and small degrees (values 2..h)."""

    mu: tuple[int, ...]
    nu: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nu) != len(self.mu) - 1:
            raise ValueError("nu must cover values 2..h, one shorter than mu")

    @property
    def horizon(self) -> int:
        return len(self.mu)

    def weight_values(self) -> list[int]:
        return [v for v, count in enumerate(self.mu, start=1) for _ in range(count)]

    def degree_values(self) -> list[int]:
        return [v for v, count in enumerate(self.nu, start=2) for _ in range(count)]

    def low_series(self) -> TruncatedSeries:
        """Poincare series of the counted values, exact up to the horizon."""
        c = list(_weight_series(self.mu))
        for v, count in enumerate(self.nu, start=2):
            for _ in range(count):
                mul_into(c, v)
        return TruncatedSeries(tuple(c))


# Keyed by mu.  iter_tuples yields the tuples of one mu together, so a
# few entries serve a whole sweep (792 mus for amplitude -1, 5,005 for
# +1, against 7,056 and 146,880 tuples).
@lru_cache(maxsize=16)
def _weight_series(mu: tuple[int, ...]) -> tuple[int, ...]:
    """1 / prod(1 - t^v)^mu[v-1] up to t^len(mu)."""
    c = [1] + [0] * len(mu)
    for v, count in enumerate(mu, start=1):
        for _ in range(count):
            div_into(c, v)
    return tuple(c)


@lru_cache(maxsize=16)
def _divisible_weights(mu: tuple[int, ...]) -> tuple[int, ...]:
    """Counted weights divisible by h, for h = 2..len(mu)."""
    h_max = len(mu)
    return tuple(sum(mu[v - 1] for v in range(h, h_max + 1, h))
                 for h in range(2, h_max + 1))


# Keyed by nu and codim_max: 35 nus for amplitude -1, 252 for +1.
@lru_cache(maxsize=256)
def _divisible_weight_room(nu: tuple[int, ...],
                           codim_max: int) -> tuple[int, ...]:
    """Most weights divisible by h, h = 2..len(nu) + 1, a record may have.

    One more than the degrees divisible by h: the counted ones plus the
    codim_max - sum(nu) degrees a record may have past the horizon.
    This never exceeds codim_max + 1, the other cap of the screen.
    """
    h_max = len(nu) + 1
    spare = codim_max - sum(nu)
    return tuple(sum(nu[v - 2] for v in range(h, h_max + 1, h)) + spare + 1
                 for h in range(2, h_max + 1))


def _gcd_counts_cut(t: CountTuple, alpha: int) -> bool:
    """True when no record with these counts passes isolated_gcd_counts.

    The counts of a record's weights and degrees up to the horizon are
    its source tuple's, since c_0..c_h fix the table method's entries
    up to h; so too many counted weights divisible by some h, against
    the room _divisible_weight_room leaves, fail the record's screen.
    """
    return any(map(gt, _divisible_weights(t.mu),
                   _divisible_weight_room(t.nu, _NU_CAP[alpha])))


def tuple_of_candidate(c: Candidate, horizon: int) -> CountTuple:
    """Small-value counts of an explicit candidate."""
    mu = tuple(sum(1 for a in c.weights if a == v)
               for v in range(1, horizon + 1))
    nu = tuple(sum(1 for d in c.degrees if d == v)
               for v in range(2, horizon + 1))
    return CountTuple(mu, nu)


def iter_tuples(alpha: int) -> Iterator[CountTuple]:
    """Admissible count tuples for one amplitude, in lexicographic order.

    Caps: at most dim + codim_cap + 1 weights and codim_cap degrees in
    total; a value cannot be both a weight and a degree (no linear cone);
    for amplitude +1 a small degree forces enough small weights below it.
    """
    if alpha not in _HORIZON:
        raise ValueError("tuple enumeration defined for amplitude -1 or +1")
    h = _HORIZON[alpha]
    mu_cap, nu_cap = _MU_CAP[alpha], _NU_CAP[alpha]
    # Per nu: a bit per value 2..h it uses as a degree, and its prefix
    # sums, the number of degrees of value at most s for s = 2..h.
    nus = [(nu, _used(nu), tuple(accumulate(nu)))
           for nu in _bounded_counts(h - 1, nu_cap)]
    # The nus a mu admits depend only on the values 2..h it uses as
    # weights and, for +1, on its room: 4 more than the number of
    # weights of value at most s, for s = 2..h, capped at nu_cap (no nu
    # prefix sum exceeds that).  For -1 the room is empty and binds no nu.
    admitted: dict[tuple, list[tuple[int, ...]]] = {}
    for mu in _bounded_counts(h, mu_cap):
        used = _used(mu[1:])
        room = (tuple(min(p + 4, nu_cap) for p in accumulate(mu))[1:]
                if alpha == 1 else ())
        nus_of_mu = admitted.get((used, room))
        if nus_of_mu is None:
            nus_of_mu = admitted[used, room] = [
                nu for nu, nu_used, below in nus
                if not nu_used & used and not any(map(gt, below, room))]
        for nu in nus_of_mu:
            yield CountTuple(mu, nu)


def _bounded_counts(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Tuples of n counts with sum at most cap, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(cap + 1):
        for rest in _bounded_counts(n - 1, cap - first):
            yield (first, *rest)


def _used(counts: tuple[int, ...]) -> int:
    """Bit i set when counts[i] is nonzero."""
    return sum(1 << i for i, n in enumerate(counts) if n)


@dataclass(frozen=True, slots=True)
class ChiData:
    """chi and chi_m (m = 2..6) implied by a count tuple, plus the raw series."""

    chi: int
    chis: dict[int, int]
    p: tuple[int, ...]
    pg: int


def tuple_chis(t: CountTuple, alpha: int) -> ChiData:
    """Read chi data off the low-degree series.

    Amplitude +1: coefficient m is chi_m for m >= 2 and coefficient 1 is
    the geometric genus, so chi = 1 - p_g.  Amplitude -1: coefficient m
    counts sections of -mK, which equals -chi_{m+1}.
    """
    low = t.low_series().coeffs
    if alpha == 1:
        pg = low[1]
        return ChiData(1 - pg, {m: low[m] for m in range(2, 7)}, low, pg)
    if alpha == -1:
        return ChiData(1, {m: -low[m - 1] for m in range(2, 7)}, low, 0)
    raise ValueError("chi data defined for amplitude -1 or +1")


# The -1 index multisets weigh c_2 loads sum(r - 1/r), for r <= 24,
# scaled by the lcm of 1..24, so every load is an integer.
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


def _tuple_baskets(t: CountTuple, alpha: int,
                   closures: dict | None = None
                   ) -> tuple[list[tuple[Points, str]], list[str],
                              str | None]:
    """Formal baskets consistent with one tuple, with case labels.

    Returns (baskets, exhaustiveness violations, the screen that pruned
    the tuple or None); each basket is the sorted (b, r) tuple of its
    points, as _descendant_points gives it, sorted in turn.  Case
    labels: 'sigma5-zero' needs no high index points, 'ambient-capped'
    bounds their index by the largest possible weight, 'volume-capped'
    by positivity of the unpacked volume.  closures, when given, is a
    dict kept for one run that shares packing closures with its other
    tuples.
    """
    if _gcd_counts_cut(t, alpha):
        return [], [], "isolated_gcd_counts"
    data = tuple_chis(t, alpha)
    if min(data.p) < 0:
        return [], [], "negative_sections"
    counts = initial_counts_from_chis(data.chi, data.chis)
    if counts.n12 < 0 or counts.n13 < 0 or counts.n14_plus < 0:
        return [], [], "negative_unpacked_counts"
    lo, hi = high_index_count_bounds(data.chi, data.chis)
    if lo > hi:
        return [], [], "empty_sigma5_range"
    if alpha == 1:
        if not pluri_growth_filter({m: data.p[m] for m in range(1, 7)}, data.pg):
            return [], [], "pluri_growth"
        # (1 - p_g - P_2 - P_3 + P_5)/12 - sigma5/20 <= 0, times 60
        if 5 * (1 - data.pg - data.p[2] - data.p[3] + data.p[5]) <= 3 * lo:
            return [], [], "volume"

    chi, chi2 = data.chi, data.chis[2]
    targets = {m: data.chis[m] for m in (3, 4, 5, 6)}
    violations: list[str] = []
    found: list[tuple[Points, str]] = []

    if alpha == 1:
        bpp = canonical([Orbifold(1, 2)] * counts.n12
                        + [Orbifold(1, 3)] * counts.n13
                        + [Orbifold(1, 4)] * counts.n14_plus)
        vol = k3(FormalBasket(bpp, chi, chi2))
        headroom, scale = vol.numerator, vol.denominator
        ambient_capped = sum(t.mu) >= 5 or any(t.nu)

    for s in range(lo, hi + 1):
        base = [Orbifold(1, 2)] * counts.n12 + [Orbifold(1, 3)] * counts.n13 \
            + [Orbifold(1, 4)] * (counts.n14_plus - s)
        if alpha == -1:
            # 24 - c_2 load of base, scaled
            budget = 24 * _C2_SCALE - counts.n12 * _C2_LOAD[2] \
                - counts.n13 * _C2_LOAD[3] \
                - (counts.n14_plus - s) * _C2_LOAD[4]
            if budget < 0:
                continue
            multisets = _r_multisets(
                s, {r: _C2_LOAD[r] for r in range(5, 25)}, budget)
            case = "c2-capped" if s else "sigma5-zero"
            prune = "c2"
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
                        f"tuple mu={t.mu} nu={t.nu}: no index cap for "
                        f"sigma5={s}")
                    continue
                cap = min(caps)
                if cap < 5:
                    continue
                # headroom / scale is K^3 with every high index point
                # set to (1,4); each point (1,r) spends 1/4 - 1/r of it,
                # and the total spend stays strictly below headroom, so
                # in units of 1 / unit it is at most one unit less.
                unit = lcm(4, scale, *range(5, cap + 1))
                multisets = _r_multisets(
                    s, {r: unit // 4 - unit // r for r in range(5, cap + 1)},
                    headroom * (unit // scale) - 1)
                case = "ambient-capped" if ambient_capped else "volume-capped"
            prune = "volume"
        for rs in multisets:
            # Each basket lies in the fiber of one root, its initial
            # basket, so no two roots find the same basket.  The prunes
            # keep c_2 <= 24 and K^3 < 0 for -1, K^3 > 0 for +1.
            b0 = canonical(base + [Orbifold(1, r) for r in rs])
            found.extend((points, case) for points in _descendant_points(
                b0, chi, chi2, targets, prune=prune, cache=closures))
    found.sort(key=lambda hit: hit[0])
    return found, violations, None


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


def _table(alpha: int) -> TableMethod:
    return TableMethod(max_weights=_MU_CAP[alpha], max_degrees=_NU_CAP[alpha])


def tuple_prefix(t: CountTuple, alpha: int) -> TableMethod:
    """A table that has read c_0..c_h, the series every basket of t shares.

    A basket of t has chi_2 of t, and descendants() matched its chi_3
    to chi_6 to t's; so its c_0..c_h are t's low series, and the table
    reads off exactly t's counted weights and degrees.  The sweep feeds
    copies of it on to c_15 (_survivors), once per distinct
    c_{h+1}..c_7 and c_8..c_15 among t's baskets.
    """
    table = _table(alpha)
    table.feed(t.low_series().coeffs)
    return table


# The ends of the first two blocks basket_series_blocks gives from a
# tuple prefix: c_{h+1}..c_7, then c_8..c_15.
_HEAD_END, _STAGED_END = 8, 16


def _closure_coeffs(data: ChiData, alpha: int,
                    hits: Iterable[Points],
                    sigmas: dict) -> list[tuple[int, ...] | None]:
    """c_{h+1}..c_15 of each hit of one tuple, read off its points.

    data is the tuple's ChiData, whose low series ends at c_h; a hit is
    the (b, r) of its basket's points.  With k = m for +1 (c_m = chi_m)
    and k = m + 1 for -1 (c_m = -chi_{m+1}), 12 chi_k is _chi_term
    plus sigma_k, which adds up over the points (_point_sigmas).  A hit
    whose chi_k are not integral gets None, as basket_series_blocks
    raises on it.  sigmas, a dict kept for one run, holds each point's
    sigma_k.
    """
    shift = alpha == -1
    ks = range(len(data.p) + shift, _STAGED_END + shift)
    terms = [_chi_term(data.chi, data.chis[2], k) for k in ks]
    sign = 1 if alpha == 1 else -1
    vecs = sigmas.setdefault((ks.start, ks.stop), {})
    out: list[tuple[int, ...] | None] = []
    for points in hits:
        try:
            chis = _chis(terms, [
                vecs[p] if p in vecs
                else vecs.setdefault(p, _point_sigmas(*p, ks))
                for p in points])
        except BasketInconsistency:
            out.append(None)
        else:
            out.append(tuple(sign * c for c in chis))
    return out


def _read(table: TableMethod | None,
          block: tuple[int, ...]) -> TableMethod | None:
    """A copy of table that has read block, or None where realize() stops."""
    if table is None or min(block, default=0) < 0:
        return None
    table = table.copy()
    return table if table.feed(block) else None


def _survivors(t: CountTuple, alpha: int,
               hits: list[Points], sigmas: dict
               ) -> list[tuple[FormalBasket, TableMethod] | None]:
    """Per hit of t, its FormalBasket and a table that read c_0..c_15.

    None for a hit whose c_{h+1}..c_7 or c_8..c_15, the first two
    blocks realize(fb, alpha, tuple_prefix(t, alpha)) reads, hold a
    non-integral or negative coefficient or hit an entry cap; both
    blocks come from _closure_coeffs.  realize() rejects such a basket
    too.  When its identity stop comes first, the series past it adds
    no entry and is integral, and a negative coefficient there fails
    its own series check.  The hits with the same c_{h+1}..c_7 read it
    once, from a copy of tuple_prefix; the survivors with the same
    c_{h+1}..c_15 read c_8..c_15 once, from a copy of that table.
    realize() continues a survivor from index 16.
    """
    data = tuple_chis(t, alpha)
    split = _HEAD_END - len(data.p)
    prefix = tuple_prefix(t, alpha)
    heads: dict[tuple[int, ...], TableMethod | None] = {}
    reads: dict[tuple[int, ...], TableMethod | None] = {}
    out: list[tuple[FormalBasket, TableMethod] | None] = []
    for points, coeffs in zip(hits, _closure_coeffs(data, alpha, hits,
                                                    sigmas)):
        if coeffs is not None and coeffs not in reads:
            head = coeffs[:split]
            if head not in heads:
                heads[head] = _read(prefix, head)
            reads[coeffs] = _read(heads[head], coeffs[split:])
        table = reads.get(coeffs)  # None also for a non-integral hit
        out.append(None if table is None else (
            FormalBasket(tuple(Orbifold(b, r) for b, r in points),
                         data.chi, data.chis[2]), table))
    return out


def realize(fb: FormalBasket, alpha: int,
            prefix: TableMethod | None = None) -> ClassificationRecord | None:
    """Try to present a formal basket as a candidate family.

    Reads a presentation off the basket series, and keeps the result
    only if it is a dimension 3 candidate of the right amplitude whose
    own series reproduces the basket series exactly.  The basket series
    is the basket's chi_m in the one Riemann-Roch form of baskets.py,
    _chi_term plus its points' signatures (basket_series_blocks).  It
    runs to the basket's certified recovery bound, so absence of a
    return value means that no presentation realizes the basket.  The
    series is built and scanned in blocks, so a basket stops at the
    first block with a non-integral or negative coefficient or an entry
    cap hit.  prefix, a table that has read the start of the basket's
    series already, comes from tuple_prefix for the basket's own tuple,
    or from the sweep (_survivors) when it has read on to c_15; realize
    continues from a copy of it.

    Reading also stops after a block of length L whose clean, nonempty
    presentation (a; d) meets L - 1 >= max(deg N + sum(a), 4 + sum(r)
    + sum(d)), with N and r as in series_numerator_degree.  The basket
    series and prod(1 - t^d) / prod(1 - t^a) then agree mod t^L, and
    the numerator of their difference has degree below L, so they are
    equal: the rest of the read would add no entry and meet no
    non-integral coefficient.  Past L no coefficient is negative when
    the degrees match distinct weights dividing them
    (divisor_matching); otherwise the candidate's own series is built
    to the bound to show it.
    """
    bound = recovery_bound(fb, alpha)
    table = _table(alpha) if prefix is None else prefix.copy()
    num = series_numerator_degree(fb, alpha)
    den = num - (alpha == 1)  # deg of (1 - t)^4 prod(1 - t^r)
    blocks = basket_series_blocks(fb, alpha, bound, table.length)
    end = None  # the identity length of the last clean presentation
    try:
        while True:
            block = blocks.send(end)
            if min(block) < 0:
                return None  # section counts are never negative
            if not table.feed(block):
                return None
            rec = table.presentation()
            end = None
            if rec.residual_clean and rec.weights:
                end = 1 + max(num + sum(rec.weights), den + sum(rec.degrees))
                if table.length >= end:
                    break
    except StopIteration:
        pass
    except BasketInconsistency:
        return None
    rec = table.presentation()
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
    if table.series() != table.coeffs:
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
    jobs: int = 1

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "codim": list(self.codim) if self.codim else None,
            "jobs": self.jobs,
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
        return json.dumps(self.to_dict(), indent=2)


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
    each degree is one weight plus one positive excess part.
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


def _batch_worker(args: tuple[int, Iterable[CountTuple]]
                  ) -> tuple[dict, list[str], Counter]:
    alpha, batch = args
    records: dict[tuple, ClassificationRecord] = {}
    violations: list[str] = []
    stats: Counter = Counter()
    closures: dict = {}
    sigmas: dict = {}
    for t in batch:
        stats["tuples"] += 1
        hits, viols, pruned = _tuple_baskets(t, alpha, closures)
        violations.extend(viols)
        if pruned:
            stats[pruned] += 1
        stats["baskets"] += len(hits)
        if not hits:
            continue
        survivors = _survivors(t, alpha, [points for points, _ in hits],
                               sigmas)
        for (_, case), survivor in zip(hits, survivors):
            rec = None if survivor is None else realize(
                survivor[0], alpha, survivor[1])
            if rec is None:
                stats["unrealized"] += 1
                continue
            stats["realized"] += 1
            prov = f"tuple mu={t.mu} nu={t.nu} case={case}"
            _merge(records, replace(rec, provenance=(prov,)))
    return records, violations, stats


def _drive(config: RunConfig) -> RunReport:
    alpha = config.alpha
    # The pool starts a process per submitted batch while none is idle,
    # so more jobs than cores would only start more processes.
    workers = min(config.jobs, os.cpu_count() or 1)
    if workers > 1:
        # Many contiguous chunks, handed out as workers free up, balance
        # the few expensive tuples; map() returns them in tuple order, so
        # the merge below sees the same order as a single job.
        tuples = list(iter_tuples(alpha))
        size = max(1, -(-len(tuples) // (workers * _CHUNKS_PER_JOB)))
        batches = [(alpha, tuples[i:i + size])
                   for i in range(0, len(tuples), size)]
        del tuples
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_batch_worker, batches))
    else:
        results = [_batch_worker((alpha, iter_tuples(alpha)))]

    stats: Counter = Counter()
    violations: list[str] = []
    merged: dict[tuple, ClassificationRecord] = {}
    for records, viols, st in results:
        violations.extend(viols)
        stats.update(st)
        for rec in records.values():
            _merge(merged, rec)

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
