"""Baskets of terminal cyclic quotient points and their Riemann-Roch data.

An orbifold point (b, r) stands for a quotient singularity of index r
whose local data only enters Riemann-Roch through b mod r; entries are
normalized to 0 < b <= r/2 with gcd(b, r) = 1.  A formal basket carries a
multiset of such points together with integers chi and chi_2, from which
every chi_m and the degree K^3 follow.  Orbifold Riemann-Roch takes one
integer form here: 12 chi_m is a term in chi and chi_2 (_chi_term) plus
the signature sigma_m of each point (_point_sigmas), which adds up over
the points (Buckley, Reid and Zhou, arXiv:1208.0457).  Packing merges
two points into one; it runs opposite to deformation, so a basket's
canonical unpacking dominates it and the finitely many baskets between
the two are exactly the candidates sharing its low-degree chi data.
"""

from __future__ import annotations

import re
from array import array
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm
from operator import add
from typing import Iterable, Mapping, Sequence


class BasketInconsistency(ValueError):
    """Raised when basket data cannot belong to any variety."""


@dataclass(frozen=True, slots=True, order=True)
class Orbifold:
    """A point (b, r); (0, 1) is the degenerate packing unit."""

    b: int
    r: int

    def __post_init__(self) -> None:
        if (self.b, self.r) == (0, 1):
            return
        if self.b < 1 or 2 * self.b > self.r:
            raise ValueError(f"need 0 < b <= r/2, got ({self.b},{self.r})")
        if gcd(self.b, self.r) != 1:
            raise ValueError(f"need gcd(b,r)=1, got ({self.b},{self.r})")


Basket = tuple[Orbifold, ...]
# A basket as the (b, r) of its points, sorted by (r, b).
Points = tuple[tuple[int, int], ...]


def canonical(points: Iterable[Orbifold]) -> Basket:
    """Sort a multiset of points by (r, b) into its canonical tuple."""
    return tuple(sorted(points, key=lambda q: (q.r, q.b)))


def format_basket(basket: Basket) -> str:
    """Render as 'count x (b,r)' groups; empty basket renders empty."""
    groups: list[str] = []
    seen: dict[Orbifold, int] = {}
    for q in basket:
        seen[q] = seen.get(q, 0) + 1
    for q in sorted(seen, key=lambda q: (q.r, q.b)):
        groups.append(f"{seen[q]}x({q.b},{q.r})")
    return "; ".join(groups)


_GROUP = re.compile(r"^(?:(\d+)\s*x)?\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


def parse_basket(text: str) -> Basket:
    """Parse 'Nx(b,r); ...'; the count prefix is optional, blank means empty."""
    points: list[Orbifold] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _GROUP.match(chunk)
        if not m:
            raise BasketInconsistency(f"cannot parse basket term {chunk!r}")
        count = int(m.group(1) or 1)
        try:
            q = Orbifold(int(m.group(2)), int(m.group(3)))
        except ValueError as exc:
            raise BasketInconsistency(str(exc)) from None
        points.extend([q] * count)
    return canonical(points)


@dataclass(frozen=True, slots=True)
class FormalBasket:
    """A basket plus the chi and chi_2 it is asked to explain."""

    basket: Basket
    chi: int
    chi2: int

    def to_dict(self) -> dict:
        counts: dict[Orbifold, int] = {}
        for q in self.basket:
            counts[q] = counts.get(q, 0) + 1
        vol = k3(self)
        return {
            "basket": [[q.b, q.r, counts[q]]
                       for q in sorted(counts, key=lambda q: (q.r, q.b))],
            "chi": self.chi,
            "chi2": self.chi2,
            "k3": f"{vol.numerator}/{vol.denominator}",
        }


# One entry per point type (b, r) met, each of r + 1 integers.
@lru_cache(maxsize=None)
def _point_sums(b: int, r: int) -> tuple[int, tuple[int, ...]]:
    """Sums of rho_j (r - rho_j), rho_j = jb mod r, for one point type.

    Returns the full-period sum r(r^2 - 1)/6 and the prefix sums over
    j = 1..k for k = 0..r-1, so any partial sum costs O(1).
    """
    prefix = [0]
    rho = 0
    for _ in range(1, r):
        rho = (rho + b) % r
        prefix.append(prefix[-1] + rho * (r - rho))
    return r * (r * r - 1) // 6, tuple(prefix)


def _point_sigmas(b: int, r: int, ms: Iterable[int]) -> tuple[int, ...]:
    """sigma_m = 12 l(m) - 2(2m-1)m(m-1) l(2) of a point (b, r); (0, 1) adds 0.

    With S(m) = sum_{j<m} rho_j (r - rho_j), this is
    (6 S(m) - (2m-1)m(m-1) S(2)) / r, an integer: rho_j = jb mod r puts
    both terms at -(2m-1)m(m-1) b^2 mod r.  sigma_m adds up over the
    points of a basket (Buckley, Reid and Zhou, arXiv:1208.0457).
    """
    period, prefix = _point_sums(b, r)
    s2 = b * (r - b)  # S(2)
    sigs = []
    for m in ms:
        k, j = divmod(m - 1, r)
        sigs.append((6 * (k * period + prefix[j])
                     - (2 * m - 1) * m * (m - 1) * s2) // r)
    return tuple(sigs)


def _chi_term(chi: int, chi2: int, k: int) -> int:
    """The part of 12 chi_k that no point adds to.

    Orbifold Riemann-Roch reads
    12 chi_k = 2(2k-1)k(k-1)(chi_2 + 3 chi) - 12(2k-1) chi + sigma_k,
    with sigma_k summed over the basket's points (_point_sigmas).
    """
    return (2 * k - 1) * (2 * k * (k - 1) * (chi2 + 3 * chi) - 12 * chi)


def _chis(terms: Iterable[int], columns: Iterable[Iterable[int]]) -> list[int]:
    """chi_k from _chi_term's terms and sigma_k columns over the same k.

    Each column holds the sigma_k of one point, or of one point type
    times its count.  A sum 12 does not divide means no variety carries
    the data; that raises BasketInconsistency.
    """
    out = []
    for twelve in map(sum, zip(terms, *columns)):
        chi_k, rem = divmod(twelve, 12)
        if rem:
            raise BasketInconsistency("chi_k not integral")
        out.append(chi_k)
    return out


def k3(fb: FormalBasket) -> Fraction:
    """Canonical degree K^3 = 2(chi_2 + 3 chi) - sum of b(r - b)/r."""
    return 2 * (fb.chi2 + 3 * fb.chi) - sum(
        (Fraction(q.b * (q.r - q.b), q.r) for q in fb.basket), Fraction(0))


def is_prime_packing(p: Orbifold, q: Orbifold) -> bool:
    """Unit determinant marks the merges used by the canonical sequence."""
    return abs(p.b * q.r - q.b * p.r) == 1


def canonical_unpacking(q: Orbifold) -> Basket:
    """Split (b, r) into b points of the two nearest unit types.

    With r = qt*b + s, 0 <= s < b, the result is (b-s) copies of (1, qt)
    and s copies of (1, qt+1).  Points with b <= 1 are already atomic.
    """
    if q.b <= 1:
        return (q,)
    qt, s = divmod(q.r, q.b)
    return canonical([Orbifold(1, qt)] * (q.b - s) + [Orbifold(1, qt + 1)] * s)


def initial_basket(basket: Basket) -> Basket:
    """Canonical unpacking applied pointwise; dominates the input basket."""
    out: list[Orbifold] = []
    for q in basket:
        out.extend(canonical_unpacking(q))
    return canonical(out)


@dataclass(frozen=True, slots=True)
class InitialCounts:
    """Multiplicities of the canonical unpacking read off low-degree chi data."""

    n12: int       # points of type (1,2)
    n13: int       # points of type (1,3)
    n14_plus: int  # points of type (1,4) plus all (1,r) with r >= 5
    sigma: int     # total number of points


def initial_counts_from_chis(chi: int, chis: Mapping[int, int]) -> InitialCounts:
    """Invert the chi formulas for the unpacked multiplicities (_unpacked)."""
    return InitialCounts(*_unpacked(chi, chis))


def _unpacked(chi: int, chis: Mapping[int, int] | Sequence[int]
              ) -> tuple[int, int, int, int]:
    """(n12, n13, n14_plus, sigma) from chi and chis[m] = chi_m, m = 2..5;
    the split of n14_plus between (1,4) and higher index points is open.
    """
    c2, c3, c4, c5 = chis[2], chis[3], chis[4], chis[5]
    return (5 * chi + 6 * c2 - 4 * c3 + c4,
            4 * chi + 2 * c2 + 2 * c3 - 3 * c4 + c5,
            chi - 3 * c2 + c3 + 2 * c4 - c5,
            10 * chi + 5 * c2 - c3)


def high_index_count_bounds(chi: int, chis: Mapping[int, int] | Sequence[int]
                            ) -> tuple[int, int]:
    """Inclusive bounds on sigma5 forced by nonnegative packing counts.

    Lower bound: the two merge counts at index five stay nonnegative.
    Upper bound: both (1,4)-multiplicity and the index-five merge count
    stay nonnegative.  An empty range rejects the chi data.
    """
    c2, c3, c4, c5, c6 = chis[2], chis[3], chis[4], chis[5], chis[6]
    lo = max(0,
             -3 * chi - 6 * c2 + 3 * c3 - c4 + 2 * c5 - c6,
             -2 * chi - 2 * c2 - 3 * c3 + 3 * c4 + c5 - c6)
    hi = min(chi - 3 * c2 + c3 + 2 * c4 - c5,
             2 * chi - c3 + 2 * c5 - c6)
    return lo, hi


def pluri_growth_filter(p: Mapping[int, int] | Sequence[int], pg: int) -> bool:
    """Necessary growth of section counts P_m = p[m], m = 1..6, for +1."""
    for m in (2, 3, 4):
        if p[m + 2] < p[m] + p[2] + pg:
            return False
    return p[4] >= 2 * p[2] - 1 and p[6] >= 2 * p[3] - 1


# Named prunes for descendants(), evaluated on a state's integer data:
# "c2" cuts sum(r - 1/r) > 24, the amplitude -1 bound on c_2 . (-K),
# and keeps only the hits with K^3 < 0; "volume" cuts K^3 <= 0 for the
# chi and chi_2 of the call.  Both cuts only grow more true under
# packing.
NAMED_PRUNES = ("c2", "volume")


def _points(packed: int, unit: int, width: int) -> Points:
    """The (b, r) of each point of a packed state, sorted by (r, b)."""
    mask = (1 << width) - 1
    out = []
    while packed:
        r, b = divmod(packed & mask, unit)
        out.append((b, r))
        packed >>= width
    return tuple(out)


_SIGMA_TOP = 17  # chi_3..chi_6 as targets, k = 7..16 in the closure read


class _PointTable(dict):
    """sigma_m, m < _SIGMA_TOP, of each point type (b, r), made on first use.

    shapes holds what _build_closure derives from the rows for one unit,
    scale and ms, so the closures of that shape in a run share it.
    """

    def __init__(self) -> None:
        self.shapes: dict[tuple, tuple] = {}

    def __missing__(self, point: tuple[int, int]) -> tuple[int, ...]:
        row = self[point] = _point_sigmas(*point, range(_SIGMA_TOP))
        return row


def _build_closure(root: tuple[int, ...], unit: int, ms: tuple[int, ...],
                   prune: str | None, volume_floor: int,
                   points: _PointTable) -> tuple:
    """Breadth-first closure of a root under prime packing, with canonical dedup.

    Two points merge only when they are Farey neighbours,
    |b_p r_q - b_q r_p| = 1 (is_prime_packing).  Such a pair lies in
    one interval [1/(k+1), 1/k], where canonical unpacking is additive,
    and every point is reached from its own unpacking by such merges
    (a Stern-Brocot mediant path).  So from a root of points (1, r)
    the closure is exactly the set of baskets whose initial_basket is
    the root; the prunes cut the same baskets as over all merges, since
    both grow more true along any packing path.  A merge, a mediant,
    is again a point in normal form.

    Returns (sigs, states, l2s, scale, width): each state packed into
    one int of width-bit codes; per state and listed m, in an array,
    the signature sigma_m = 12 l(m) - 2(2m-1)m(m-1) l(2); and, for the
    "c2" prune only, scale * l(2) per state as ints (scale passes 2^63
    on large roots), else None.  While it runs, a state is a sorted
    tuple of point codes carrying its c_2 load and l(2), scaled by
    twice the lcm of every index up to the root's total index (which
    covers every merged point), then sigma_m for m in ms, read off the
    run's points table.  Packing p and q into s adds data(s) - data(p)
    - data(q); the data per code and that change per merge are kept in
    points.shapes for every closure of the same unit, scale and ms.
    """
    total = sum(root) // unit  # the root's total index
    width = ((total + 1) * unit).bit_length()
    scale = 2 * lcm(1, *range(1, total + 1))
    shape = unit, scale, ms
    if shape not in points.shapes:
        # Each new move reads three points; most recur across moves.
        @lru_cache(maxsize=None)
        def point_data(code: int) -> tuple[int, ...]:
            r, b = divmod(code, unit)
            sigs = points[b, r]
            return ((r * r - 1) * (scale // r),
                    b * (r - b) * (scale // (2 * r)), *[sigs[m] for m in ms])

        @lru_cache(maxsize=None)
        def merge(p: int, q: int) -> tuple[int, ...]:
            return tuple(x - y - z for x, y, z in zip(
                point_data(p + q), point_data(p), point_data(q)))
        points.shapes[shape] = point_data, merge
    point_data, merge = points.shapes[shape]

    def move(p: int, q: int) -> tuple | None:
        """(code of the merged point, change of data), None unless prime."""
        (rp, bp), (rq, bq) = divmod(p, unit), divmod(q, unit)
        if abs(bp * rq - bq * rp) != 1:
            return None
        return p + q, merge(p, q)

    # A named prune cuts the states whose data[at] exceeds limit.
    at, limit = {"c2": (0, 24 * scale),
                 "volume": (1, volume_floor * scale - 1)}.get(prune, (0, inf))

    root_data = tuple(map(sum, zip(*map(point_data, root)))) or (0,) * (
        len(ms) + 2)
    states: dict[tuple[int, ...], tuple[int, ...]] = {}
    if root_data[at] <= limit:
        states[root] = root_data
    pruned: set[tuple[int, ...]] = set()
    moves: dict[tuple[int, int], tuple | None] = {}
    frontier = list(states)
    while frontier:
        nxt = []
        for state in frontier:
            data = states[state]
            n = len(state)
            for i in range(n - 1):
                p = state[i]
                if i and p == state[i - 1]:
                    continue
                for j in range(i + 1, n):
                    q = state[j]
                    if j > i + 1 and q == state[j - 1]:
                        continue
                    if (p, q) not in moves:
                        moves[p, q] = move(p, q)
                    pq = moves[p, q]
                    if pq is None:
                        continue
                    rest = list(state)
                    del rest[j]
                    del rest[i]
                    insort(rest, pq[0])
                    child = tuple(rest)
                    if child in states or child in pruned:
                        continue
                    cdata = tuple(map(add, data, pq[1]))
                    if cdata[at] > limit:
                        pruned.add(child)
                        continue
                    states[child] = cdata
                    nxt.append(child)
        frontier = nxt
    sigs = array("q", [x for data in states.values() for x in data[2:]])
    l2s = (tuple(data[1] for data in states.values()) if prune == "c2"
           else None)
    packed = tuple(sum(code << i * width for i, code in enumerate(state))
                   for state in states)
    return sigs, packed, l2s, scale, width


def descendants(b0: Basket, chi: int, chi2: int,
                targets: Mapping[int, int],
                prune: str | None = None,
                cache: dict | None = None) -> list[FormalBasket]:
    """The baskets of b0's fiber whose chi_m hit the targets.

    Breadth-first closure of b0 under prime packing with canonical
    dedup: for b0 of points (1, r), every basket whose initial_basket
    is b0 (see _build_closure).  A basket survives iff its chi_m, for
    this chi and chi_2, equals targets[m] for every listed m.
    prune, one of NAMED_PRUNES, skips the baskets it cuts and all their
    descendants; both prunes are monotone under packing (once true they
    stay true on every further pack).  The "c2" prune also drops the
    hits with K^3 >= 0.

    cache, a dict the caller keeps for one run, keeps each closure for
    later calls on the same root, which redo only the target check; its
    key holds the root, the target indices, the prune and, for the
    "volume" prune, chi_2 + 3 chi.  The hits come sorted by their
    points' (b, r).  The sweep calls _descendant_points on point codes.
    """
    # unit exceeds every b a merge can reach: adding codes merges points
    unit = 1 << max(1, sum(q.b for q in b0).bit_length())
    root = tuple(sorted(q.r * unit + q.b for q in b0))
    return [FormalBasket(tuple(Orbifold(b, r) for b, r in points), chi, chi2)
            for points in _descendant_points(root, unit, chi, chi2, targets,
                                             prune, cache)]


def _descendant_points(root: tuple[int, ...], unit: int, chi: int,
                       chi2: int, targets: Mapping[int, int],
                       prune: str | None = None, cache: dict | None = None,
                       points: _PointTable | None = None) -> list[Points]:
    """descendants() of sorted point codes r * unit + b, hits as (b, r);
    points is the run's _PointTable, a new one when not given.
    """
    if prune is not None and prune not in NAMED_PRUNES:
        raise ValueError(f"unknown prune {prune!r}")
    ms = tuple(sorted(targets))
    if ms and not 0 <= ms[0] <= ms[-1] < _SIGMA_TOP:
        raise ValueError(f"targets must lie in 0..{_SIGMA_TOP - 1}")
    floor = chi2 + 3 * chi
    key = (root, unit, ms, prune, floor if prune == "volume" else None)
    closure = cache.get(key) if cache is not None else None
    if closure is None:
        closure = _build_closure(root, unit, ms, prune, floor,
                                 _PointTable() if points is None else points)
        if cache is not None:
            cache[key] = closure
    sigs, states, l2s, scale, width = closure
    # chi_m = t reads sigma_m = 12 t - _chi_term(m); with
    # K^3 = 2(chi_2 + 3 chi - l(2)), K^3 < 0 reads l(2) > chi_2 + 3 chi.
    want = tuple(12 * targets[m] - _chi_term(chi, chi2, m) for m in ms)
    w = len(ms)
    l2_floor = floor * scale
    return sorted(_points(state, unit, width)
                  for k, state in enumerate(states)
                  if tuple(sigs[k * w:(k + 1) * w]) == want
                  and (l2s is None or l2s[k] > l2_floor))
