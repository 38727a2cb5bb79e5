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
These baskets, the fiber of an initial basket of points (1, r), are
listed in closed form: one multiset of primitive vectors per index, the
inverse of the canonical unpacking (_descendant_points).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence


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


def _point_sigmas(b: int, r: int, ms: Iterable[int]) -> Iterator[int]:
    """sigma_m = 12 l(m) - 2(2m-1)m(m-1) l(2) of a point (b, r); (0, 1) adds 0.

    With S(m) = sum_{j<m} rho_j (r - rho_j), this is
    (6 S(m) - (2m-1)m(m-1) S(2)) / r.  sigma_m adds up over the points
    of a basket (Buckley, Reid and Zhou, arXiv:1208.0457).  Yields one
    sigma_m per m as ms is read, from prefix sums made once per call.

    12 divides every sigma_m, m >= 1.  Write jb = q_j r + rho_j; then
    sigma_m / 6 = sum over j < m of [jb(1 - j) + 2 jb q_j - q_j(q_j + 1) r],
    and every term is even.  _chi_term is a multiple of 12 too, since
    6 divides k(k - 1)(2k - 1); so every chi_m of a basket is integral,
    and the check in _chis fails only on a broken signature.
    """
    period, prefix = _point_sums(b, r)
    s2 = b * (r - b)  # S(2)
    for m in ms:
        k, j = divmod(m - 1, r)
        yield (6 * (k * period + prefix[j])
               - (2 * m - 1) * m * (m - 1) * s2) // r


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
    the data; that raises BasketInconsistency, which no valid point's
    signature reaches (_point_sigmas).
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


def _unpacked(chi: int, chis: Mapping[int, int] | Sequence[int]
              ) -> tuple[int, int, int, int]:
    """(n12, n13, n14_plus, sigma) from chi and chis[m] = chi_m, m = 2..5.

    These are the canonical unpacking's numbers of points (1, 2), of
    points (1, 3), of points (1, r) with r >= 4, and of all points; the
    split of n14_plus between (1,4) and higher index points is open.
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


_SIGMA_TOP = 17  # chi_4..chi_6 as targets, k = 7..16 in the closure read


class _PointTable(dict):
    """sigma_m, m < _SIGMA_TOP, of each point type (b, r), made on first use.

    shapes holds the _Shape of each scale and ms a fiber walk has used,
    so the fibers of a run share their point and vector data.
    """

    def __init__(self) -> None:
        self.shapes: dict[tuple, _Shape] = {}

    def __missing__(self, point: tuple[int, int]) -> tuple[int, ...]:
        row = self[point] = tuple(_point_sigmas(*point, range(_SIGMA_TOP)))
        return row


class _Shape(dict):
    """The data of each point type (b, r) at one scale and one ms.

    A point maps to its c_2 load r - 1/r and its l(2) = b(r - b)/(2r),
    both times scale, then its sigma_m for m in ms off the run's points
    table.  scale is twice a multiple of every index met, so all of
    these are integers, and they add up over a basket.
    """

    def __init__(self, points: _PointTable, scale: int,
                 ms: tuple[int, ...]) -> None:
        self.points, self.scale, self.ms = points, scale, ms
        self.vectors: dict[tuple[int, int, int], list] = {}

    def __missing__(self, point: tuple[int, int]) -> tuple[int, ...]:
        b, r = point
        sigs = self.points[point]
        row = self[point] = ((r * r - 1) * (self.scale // r),
                             b * (r - b) * (self.scale // (2 * r)),
                             *[sigs[m] for m in self.ms])
        return row

    def rows(self, q: int, a: int, c: int) -> list[list[tuple]]:
        """Per u = 0..a, each primitive vector (u, v) at q with v <= c.

        An entry is (v, the (r, b) of its point, its change of data):
        the point (u + v, q(u + v) + v) less u points (1, q) and v points
        (1, q + 1).  Each row runs by increasing v.
        """
        key = q, a, c
        if key not in self.vectors:
            unpacked = self[1, q], self[1, q + 1]
            self.vectors[key] = [[] for _ in range(a + 1)]
            for u in range(1, a + 1):
                for v in range(1, c + 1):
                    if gcd(u, v) == 1:
                        b, r = u + v, q * (u + v) + v
                        self.vectors[key][u].append((v, (r, b), tuple(
                            x - u * y - v * z
                            for x, y, z in zip(self[b, r], *unpacked))))
        return self.vectors[key]


def _descendant_points(root: tuple[int, ...], chi: int, chi2: int,
                       targets: Mapping[int, int], alpha: int,
                       points: _PointTable) -> list[Points]:
    """The baskets of a root's fiber whose chi_m hit the targets.

    root holds the indices r of an initial basket's points (1, r), and
    its fiber is every basket whose canonical unpacking is that root.
    A basket hits iff its chi_m, for this chi and chi_2, equals
    targets[m] for every listed m.  The amplitude alpha, -1 or +1, fixes
    the cut: at -1 the walk cuts a c_2 load sum(r - 1/r) above 24, the
    bound on c_2 . (-K), and keeps only the hits with K^3 < 0; at +1 it
    cuts K^3 <= 0.  Both cuts are monotone under packing (below), so
    the hits are exactly the fiber's baskets that the cut leaves.  Each
    hit is the (b, r) of its points, and the hits come sorted.  points
    is the run's _PointTable.

    The fiber in closed form.  A point (b, r) with b >= 2 has r = qb + s
    with 0 < s < b (s = 0 would break gcd(b, r) = 1, and 2b <= r makes
    q >= 2), and its canonical unpacking is u = b - s points (1, q)
    and v = s points (1, q + 1), with u, v >= 1 and gcd(u, v) =
    gcd(b, r) = 1.  Conversely, for q >= 2 and a primitive vector
    (u, v), u, v >= 1, the point (u + v, q(u + v) + v) is normalized and
    unpacks to exactly those points.  The two maps are inverse, and a
    point (1, r) unpacks to itself, so a basket of the fiber is one
    multiset of primitive vectors per index q that together use no more
    points (1, q) and (1, q + 1) than the root holds; a point (1, q + 1)
    used at q is not free at q + 1.  The walk adds vectors in
    nondecreasing (q, u, v) order, so it meets each basket once.

    Adding (u, v) at q, with r = uq + v(q + 1), raises the c_2 load by
    u/q + v/(q + 1) - 1/r > 0 and, since sum b stays put, lowers
    K^3 = 2(chi_2 + 3 chi) - sum b + sum b^2/r by
    u/q + v/(q + 1) - (u + v)^2/r > 0 (Cauchy-Schwarz).  So a cut that
    holds on a basket holds on every basket the walk reaches from it
    (every further pack), and cutting the branch there keeps exactly
    the baskets of the fiber it does not cut.  chi_m = t reads
    sigma_m = 12 t - _chi_term(m), and K^3 < 0 reads
    l(2) > chi_2 + 3 chi.
    """
    ms = tuple(sorted(targets))
    if ms and not 0 <= ms[0] <= ms[-1] < _SIGMA_TOP:
        raise ValueError(f"targets must lie in 0..{_SIGMA_TOP - 1}")
    # Each index in the fiber is at most the root's total, below 2^bits,
    # so one shape serves every root whose total has as many bits.
    key = sum(root).bit_length(), ms
    if key not in points.shapes:
        points.shapes[key] = _Shape(
            points, 2 * lcm(1, *range(1, 1 << key[0])), ms)
    shape = points.shapes[key]
    floor = (chi2 + 3 * chi) * shape.scale
    if alpha == -1:
        at, limit, l2_floor = 0, 24 * shape.scale, floor
    else:
        at, limit, l2_floor = 1, floor - 1, -inf
    want = tuple(12 * targets[m] - _chi_term(chi, chi2, m) for m in ms)

    data = tuple(map(sum, zip((0,) * (len(ms) + 2),
                              *[shape[1, r] for r in root])))
    if data[at] > limit:
        return []
    free = dict(Counter(root))  # plain dict lookups beat a Counter's
    qs = [q for q in free if q + 1 in free]
    if not qs:  # no two indices in a row: the fiber is the root alone
        return ([tuple((1, r) for r in sorted(root))]
                if data[2:] == want and data[1] > l2_floor else [])
    tables = [shape.rows(q, free[q], free[q + 1]) for q in qs]
    hits: list[list[tuple[int, int]]] = []
    picked: list[tuple[int, int]] = []

    def walk(i: int, u0: int, j0: int, data: tuple[int, ...]) -> None:
        """Keep the basket if it hits, then add each vector from qs[i]'s
        row u0, entry j0, on."""
        if data[2:] == want and data[1] > l2_floor:
            basket = picked + [(r, 1) for r, n in free.items()
                               for _ in range(n)]
            basket.sort()
            hits.append([(b, r) for r, b in basket])
        for k in range(i, len(qs)):
            q, rows, c = qs[k], tables[k], free[qs[k] + 1]
            if k > i:
                u0, j0 = 1, 0
            for u in range(u0, free[q] + 1):
                row = rows[u]
                for j in range(j0 if u == u0 else 0, len(row)):
                    v, point, change = row[j]
                    if v > c:
                        break
                    if data[at] + change[at] > limit:
                        continue
                    free[q] -= u
                    free[q + 1] -= v
                    picked.append(point)
                    walk(k, u, j, tuple(map(add, data, change)))
                    picked.pop()
                    free[q] += u
                    free[q + 1] += v

    walk(0, 1, 0, data)
    return sorted(map(tuple, hits))
