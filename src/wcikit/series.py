"""Truncated integer power series for graded ring enumeration.

The generating function of a candidate's coordinate ring is
prod(1 - t^d) / prod(1 - t^a), expanded as an integer series exact up
to a stated bound, one factor (1 - t^k) at a time on a coefficient list
(mul_into, div_into).  A formal basket's series is its chi_m, read in
blocks off the one Riemann-Roch form of baskets.py: the basket's point
signatures summed per block.  The expansion runs backwards too: the
table method reads weights and degrees off a series one coefficient at
a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, count, islice
from math import isqrt
from operator import add, sub
from typing import Collection, Iterable, Iterator, Sequence

from .baskets import FormalBasket, _chi_term, _chis, _point_sigmas


# Largest series bound built on request: a bound allocates one integer
# per coefficient, and the longest certified recovery bound the drivers
# use is 86,116.
MAX_SERIES_BOUND = 1_000_000


class SeriesParseError(ValueError):
    """Raised when series text does not parse."""


def mul_into(c: list[int], k: int) -> None:
    """Multiply the coefficient list c by (1 - t^k) in place, k >= 1."""
    # a slice assignment reads the whole map before it writes
    c[k:] = map(sub, c[k:], c)


def div_into(c: list[int], k: int) -> None:
    """Divide the coefficient list c by (1 - t^k) in place, k >= 1.

    c_m += c_{m-k} upward is a running sum over each residue class mod
    k: k strided sums when the classes are long, else one chunk of k
    coefficients at a time, each added to the chunk below it.
    """
    n = len(c)
    if k * k < n:
        for j in range(k):
            c[j::k] = accumulate(c[j::k])
    else:
        for lo in range(k, n, k):
            c[lo:lo + k] = map(add, c[lo:lo + k], c[lo - k:lo])


def _check_bound(bound: int) -> None:
    if bound > MAX_SERIES_BOUND:
        raise ValueError(f"series bound {bound} exceeds {MAX_SERIES_BOUND}")


def _check_factors(exponents: Iterable[int]) -> None:
    if min(exponents, default=1) < 1:
        raise ValueError("factor exponent must be >= 1")


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """Integer coefficients c_0..c_bound of a series truncated past bound."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")

    @property
    def bound(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int) -> int:
        return self.coeffs[m]

    def text(self) -> str:
        return "\n".join(f"{m} {cm}" for m, cm in enumerate(self.coeffs))


def parse_series(text: str) -> TruncatedSeries:
    """Parse 'm c_m' lines with consecutive indices from 0."""
    coeffs: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SeriesParseError(f"expected 'm c_m', got {line!r}")
        try:
            m, cm = int(parts[0]), int(parts[1])
        except ValueError:
            raise SeriesParseError(f"bad integer in {line!r}") from None
        if m != len(coeffs):
            raise SeriesParseError(f"index {m} out of order, expected {len(coeffs)}")
        coeffs.append(cm)
    if not coeffs:
        raise SeriesParseError("empty series")
    return TruncatedSeries(tuple(coeffs))


def _times_poincare(c: list[int], weights: Iterable[int],
                    degrees: Iterable[int]) -> list[int]:
    """Multiply c in place by prod(1 - t^d) / prod(1 - t^a); returns c."""
    for d in degrees:
        mul_into(c, d)
    for a in weights:
        div_into(c, a)
    return c


def poincare_series(weights: list[int] | tuple[int, ...],
                    degrees: list[int] | tuple[int, ...],
                    bound: int) -> TruncatedSeries:
    """Series of prod(1 - t^d) / prod(1 - t^a) up to the bound."""
    _check_bound(bound)
    _check_factors(chain(weights, degrees))
    return TruncatedSeries(tuple(_times_poincare([1] + [0] * bound,
                                                 weights, degrees)))


def series_from_candidate(c, bound: int) -> TruncatedSeries:
    """Poincare series of a candidate's coordinate ring."""
    return poincare_series(c.weights, c.degrees, bound)


@dataclass(frozen=True, slots=True)
class RecoveredPresentation:
    weights: tuple[int, ...]
    degrees: tuple[int, ...]
    residual_clean: bool
    capped: bool = False


class TableMethod:
    """The table method, run online over a series fed in blocks.

    Keeps p, the series prod(1 - t^d) / prod(1 - t^a) of the weights a
    and degrees d read so far, up to the last index fed.  The residual
    at index m is c_m - p_m: a positive one reads that many weights m, a
    negative one that many degrees m, and each entry multiplies p by
    (1 - t^m)^-1 or (1 - t^m), which changes p only from index m on.  So
    the decision at index m reads only c_0..c_m, and a block is read
    without revisiting earlier ones; a new block rebuilds p from the
    entries to its new length.  Copies share the series of the entries
    read before the copy, per length, so each rebuilds only from its
    own later entries.
    """

    __slots__ = ("max_entries", "max_weights", "max_degrees", "weights",
                 "degrees", "capped", "coeffs", "_base")

    def __init__(self, max_entries: int | None = None,
                 max_weights: int | None = None,
                 max_degrees: int | None = None) -> None:
        self.max_entries = max_entries
        self.max_weights = max_weights
        self.max_degrees = max_degrees
        self.weights: list[int] = []
        self.degrees: list[int] = []
        self.capped = False
        self.coeffs: list[int] = []  # every coefficient fed
        # (w, d, {n: p_0..p_{n-1} of the first w weights and d degrees})
        self._base: tuple[int, int, dict[int, list[int]]] = (0, 0, {})

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def copy(self) -> TableMethod:
        """An independent table in the same state, to feed further."""
        if self._base[:2] != (len(self.weights), len(self.degrees)):
            self._base = (len(self.weights), len(self.degrees), {})
        other = TableMethod(self.max_entries, self.max_weights,
                            self.max_degrees)
        other.weights = self.weights.copy()
        other.degrees = self.degrees.copy()
        other.capped = self.capped
        other.coeffs = self.coeffs.copy()
        other._base = self._base
        return other

    def feed(self, block: Sequence[int]) -> bool:
        """Take the next coefficients; False once an entry cap stops the scan.

        The first block starts with the constant coefficient, which must
        be 1.  An index whose residual would take the entries past
        max_entries, or the weights past max_weights, or the degrees past
        max_degrees, stops the scan before any strip.
        """
        if not block:
            return True
        lo = self.length
        if lo == 0 and block[0] != 1:
            raise ValueError("series must have constant coefficient 1")
        c = self.coeffs
        c.extend(block)
        n_w, n_d, shared = self._base
        if len(c) not in shared:
            shared[len(c)] = _times_poincare([1] + [0] * (len(c) - 1),
                                             self.weights[:n_w],
                                             self.degrees[:n_d])
        p = _times_poincare(shared[len(c)].copy(),
                            self.weights[n_w:], self.degrees[n_d:])
        for m in range(max(lo, 1), len(c)):
            v = c[m] - p[m]
            if not v:
                continue
            count, is_weight = abs(v), v > 0
            side, side_cap = ((self.weights, self.max_weights) if is_weight
                              else (self.degrees, self.max_degrees))
            if ((self.max_entries is not None and count > self.max_entries
                 - len(self.weights) - len(self.degrees))
                    or (side_cap is not None
                        and count > side_cap - len(side))):
                self.capped = True
                return False
            side.extend([m] * count)
            strip = div_into if is_weight else mul_into
            for _ in range(count):
                strip(p, m)
        return True

    def presentation(self) -> RecoveredPresentation:
        """The entries read so far.

        residual_clean holds when the cap did not stop the scan and every
        entry is at most half the last index fed: then the entries are
        the unique presentation of the series.
        """
        top = max(self.weights + self.degrees, default=0)
        clean = not self.capped and 2 * top <= self.length - 1
        return RecoveredPresentation(tuple(self.weights), tuple(self.degrees),
                                     clean, self.capped)


def recover_weights_degrees(series: TruncatedSeries,
                            max_entries: int | None = None) -> RecoveredPresentation:
    """Read a presentation off a series (the table method).

    Feeds the whole series to one TableMethod: at each index m, the
    residual c_m - p_m against the series p of the entries read so far
    records that many weights m when positive, degrees m when negative.
    When weights and degrees share no value and every entry is at most
    half the bound, the recovery is the unique presentation of the
    series; residual_clean reports exactly that certified situation.  A
    series truncated too short for its entries comes back with
    residual_clean false.  max_entries aborts recoveries that keep
    producing entries; capped reports that abort.
    """
    if series[0] != 1:
        raise ValueError("series must have constant coefficient 1")
    table = TableMethod(max_entries)
    table.feed(series.coeffs)
    return table.presentation()


def _shape_bound(alpha: int) -> int:
    """ceil(1680 s) + alpha, s = max over c = 1..4 of ((4 + c + alpha)/c)^c."""
    s = max(Fraction(4 + cc + alpha, cc) ** cc for cc in range(1, 5))
    return -((-1680 * s.numerator) // s.denominator) + alpha


_SHAPE_BOUND = {alpha: _shape_bound(alpha) for alpha in (-1, 1)}


def recovery_bound(fb: FormalBasket, alpha: int) -> int:
    """Series length that provably captures every realizing presentation.

    Twice N, where N caps both the basket indices and the largest weight
    or degree any quasismooth realization with this amplitude can carry.
    """
    if alpha not in _SHAPE_BOUND:
        raise ValueError("recovery bound defined for amplitude -1 or +1")
    r_max = max((q.r for q in fb.basket), default=1)
    return 2 * max(r_max, _SHAPE_BOUND[alpha])


def max_weight_ok(a_max: int, r_max: int, degrees: tuple[int, ...]) -> bool:
    """A weight >= 2 must stay within the largest basket index or divide a degree."""
    if a_max < 2:
        return True
    return a_max <= r_max or any(d % a_max == 0 for d in degrees)


def divisor_matching(weights: Sequence[int], degrees: Sequence[int]) -> bool:
    """True when each degree can take a distinct weight that divides it.

    Such a matching writes prod(1 - t^d) / prod(1 - t^a) as a product of
    (1 - t^d) / (1 - t^a) = 1 + t^a + ... + t^(d-a) and 1 / (1 - t^a),
    so no coefficient of the series is negative.  Augmenting paths
    (Kuhn's algorithm) find a matching whenever one exists.
    """
    owner: dict[int, int] = {}  # weight position -> degree position

    def place(i: int, seen: set[int]) -> bool:
        for j, a in enumerate(weights):
            if j not in seen and degrees[i] % a == 0:
                seen.add(j)
                if j not in owner or place(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(degrees)))


# Coefficients in the first block of basket_series_blocks; each later
# block doubles the coefficients given so far.  Most formal baskets are
# decided within the first block.
_FIRST_BLOCK = 8


def series_numerator_degree(fb: FormalBasket, alpha: int) -> int:
    """Degree bound on the numerator of a formal basket's series.

    chi_m is a cubic in m plus, for each point of index r, a term
    periodic mod r (Buckley, Reid and Zhou, arXiv:1208.0457).  So the
    series of basket_series_blocks is N(t) / ((1 - t)^4 prod(1 - t^r))
    over the distinct indices r > 1, and deg N is at most 3 + sum(r)
    plus one for each coefficient not read off chi_m: c_0 for amplitude
    -1, c_0 and c_1 for +1.
    """
    return 4 + sum({q.r for q in fb.basket if q.r > 1}) + (alpha == 1)


def clears_denominator(weights: Sequence[int], degrees: Sequence[int],
                       poles: Collection[int], num: int) -> bool:
    """True when D prod(1 - t^d) / prod(1 - t^a) is a polynomial, deg <= num.

    D = (1 - t)^4 prod(1 - t^r) over the distinct poles r > 1, the
    denominator of a basket series (series_numerator_degree).  Since
    1 - t^k is, up to sign, the product of the cyclotomic polynomials
    Phi_n over the orders n dividing k, the quotient is a polynomial
    exactly when each order n divides no more weights than degrees and
    poles together, counting four more for n = 1; its degree is then
    4 + sum(r) + sum(d) - sum(a).
    """
    if (4 + sum(poles) + sum(degrees) - sum(weights) > num
            or len(weights) > 4 + len(poles) + len(degrees)):
        return False
    # order n > 1 -> the weights it divides, less the poles and degrees
    need: dict[int, int] = {}
    for a in weights:
        for n in _orders(a):
            need[n] = need.get(n, 0) + 1
    for x in chain(poles, degrees):
        for n in _orders(x):
            if n in need:
                need[n] -= 1
    return max(need.values(), default=0) <= 0


@cache
def _orders(a: int) -> tuple[int, ...]:
    """The divisors n > 1 of a."""
    return tuple({m for n in range(1, isqrt(a) + 1) if a % n == 0
                  for m in (n, a // n)} - {1})


def basket_series_blocks(fb: FormalBasket, alpha: int, bound: int,
                         start: int = 0, end: int | None = None
                         ) -> Iterator[list[int]]:
    """Expected section counts c_start..c_bound of a formal basket, in blocks.

    Amplitude +1 reads chi_m directly; amplitude -1 reads -chi_{m+1} by
    duality.  Each block sums the sigma_m of the basket's point types,
    times their counts, onto _chi_term; each point type's sigma_m come
    off one _point_sigmas read per call, so its prefix sums are made
    once.  Every chi_m is integral (_point_sigmas).  Blocks end at
    _FIRST_BLOCK times a power of two, whatever the start; the block
    that would run past end stops there instead, and the blocks after
    it double from there.
    """
    if alpha not in (-1, 1):
        raise ValueError("basket series defined for amplitude -1 or +1")
    counts = Counter((q.b, q.r) for q in fb.basket if q.r > 1)
    sign, shift = (1, 0) if alpha == 1 else (-1, 1)
    head = [1, 1 - fb.chi] if alpha == 1 else [1]  # not read off chi_m
    # the blocks' ks run on from the first one's
    first = max(start, len(head)) + shift
    columns = [(n, _point_sigmas(b, r, count(first)))
               for (b, r), n in counts.items()]
    lo, hi = start, _FIRST_BLOCK
    while hi <= lo:
        hi *= 2
    while lo <= bound:
        if end is not None and lo < end < hi:
            hi = end
        hi = min(hi, bound + 1)
        ks = range(max(lo, len(head)) + shift, hi + shift)
        chis = _chis([_chi_term(fb.chi, fb.chi2, k) for k in ks],
                     [[n * x for x in islice(sigmas, len(ks))]
                      for n, sigmas in columns])
        yield head[lo:hi] + [sign * c for c in chis]
        lo, hi = hi, 2 * hi


def series_from_basket(fb: FormalBasket, alpha: int, bound: int) -> TruncatedSeries:
    """Expected section-count series of a formal basket with nef and big +-K.

    Amplitude +1 reads chi_m directly; amplitude -1 reads -chi_{m+1} by
    duality.
    """
    return TruncatedSeries(tuple(chain.from_iterable(
        basket_series_blocks(fb, alpha, bound))))
