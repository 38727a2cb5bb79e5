"""Truncated integer power series for graded ring enumeration.

The generating function of a candidate's coordinate ring is
prod(1 - t^d) / prod(1 - t^a), expanded as an integer series.  These
series are exact up to a stated bound, support multiplication and
division by single factors (1 - t^k), and can be run backwards: the
recovery routine reads weights and degrees off a series one coefficient
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from .baskets import FormalBasket, RRKernel


# Largest series bound built on request: a bound allocates one integer
# per coefficient, and the longest certified recovery bound the drivers
# use is 86,116.
MAX_SERIES_BOUND = 1_000_000
# Most weights and degrees `wci table` reads off a series.  Each entry
# costs one pass over the series, and a presentation in the lists has
# at most a few dozen entries.
MAX_TABLE_ENTRIES = 100


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

    @staticmethod
    def one(bound: int) -> TruncatedSeries:
        _check_bound(bound)
        return TruncatedSeries((1,) + (0,) * bound)

    def mul_factor(self, k: int) -> TruncatedSeries:
        """Multiply by (1 - t^k)."""
        _check_factors((k,))
        c = list(self.coeffs)
        mul_into(c, k)
        return TruncatedSeries(tuple(c))

    def div_factor(self, k: int) -> TruncatedSeries:
        """Divide by (1 - t^k); exact inverse of mul_factor(k)."""
        _check_factors((k,))
        c = list(self.coeffs)
        div_into(c, k)
        return TruncatedSeries(tuple(c))

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

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


def poincare_series(weights: list[int] | tuple[int, ...],
                    degrees: list[int] | tuple[int, ...],
                    bound: int) -> TruncatedSeries:
    """Series of prod(1 - t^d) / prod(1 - t^a) up to the bound."""
    _check_bound(bound)
    _check_factors(chain(weights, degrees))
    c = [1] + [0] * bound
    for d in degrees:
        mul_into(c, d)
    for a in weights:
        div_into(c, a)
    return TruncatedSeries(tuple(c))


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

    Each weight (degree) read off at index m becomes a stage that
    multiplies (divides) the rest of the series by (1 - t^m).  A stage
    keeps the last m values it reads back: its input for a weight, its
    output for a degree.  When a stage starts at index m, the series it
    acts on reads 1, 0, ..., 0 below m, since every earlier index was
    already stripped to zero; so a block is stripped without revisiting
    earlier blocks, and the decision at index m reads only c_0..c_m.
    """

    __slots__ = ("max_entries", "max_weights", "max_degrees", "weights",
                 "degrees", "capped", "length", "_stages")

    def __init__(self, max_entries: int | None = None,
                 max_weights: int | None = None,
                 max_degrees: int | None = None) -> None:
        self.max_entries = max_entries
        self.max_weights = max_weights
        self.max_degrees = max_degrees
        self.weights: list[int] = []
        self.degrees: list[int] = []
        self.capped = False
        self.length = 0
        # [m, is_weight, the stage's last m values]
        self._stages: list[list] = []

    def feed(self, block: Sequence[int]) -> bool:
        """Take the next coefficients; False once an entry cap stops the scan.

        The first block starts with the constant coefficient, which must
        be 1.  An index whose value would take the entries past
        max_entries, or the weights past max_weights, or the degrees past
        max_degrees, stops the scan before any strip.
        """
        lo = self.length
        if lo == 0 and block and block[0] != 1:
            raise ValueError("series must have constant coefficient 1")
        c = list(block)
        for stage in self._stages:
            c = _through(stage, c)
        self.length = lo + len(c)
        for t in range(1 if lo == 0 else 0, len(c)):
            v = c[t]
            if not v:
                continue
            m, count, is_weight = lo + t, abs(v), v > 0
            side, side_cap = ((self.weights, self.max_weights) if is_weight
                              else (self.degrees, self.max_degrees))
            if ((self.max_entries is not None and count > self.max_entries
                 - len(self.weights) - len(self.degrees))
                    or (side_cap is not None
                        and count > side_cap - len(side))):
                self.capped = True
                return False
            side.extend([m] * count)
            for _ in range(count):
                stage = [m, is_weight, [1] + [0] * (m - 1)]
                self._stages.append(stage)
                c[t:] = _through(stage, c[t:])
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


def _through(stage: list, c: list[int]) -> list[int]:
    """Pass the next coefficients c through a stage, keeping its tail."""
    m, is_weight, tail = stage
    ext = tail + c
    if is_weight:
        out = list(map(sub, ext[m:], ext))
    else:
        div_into(ext, m)
        out = ext[m:]
    stage[2] = ext[-m:]
    return out


def recover_weights_degrees(series: TruncatedSeries,
                            max_entries: int | None = None) -> RecoveredPresentation:
    """Read a presentation off a series (the table method).

    Scan for the smallest index m with a nonzero coefficient: a positive
    value records that many weights m (strip each with a mul_factor), a
    negative value records degrees (strip with div_factor).  When weights
    and degrees share no value and every entry is at most half the bound,
    the recovery is the unique presentation of the series; residual_clean
    reports exactly that certified situation.  A series truncated too
    short for its entries comes back with residual_clean false.
    max_entries aborts recoveries that keep producing entries; capped
    reports that abort.
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


def basket_series_blocks(fb: FormalBasket, alpha: int,
                         bound: int) -> Iterator[list[int]]:
    """Expected section counts c_0..c_bound of a formal basket, in blocks.

    Amplitude +1 reads chi_m directly; amplitude -1 reads -chi_{m+1} by
    duality.  Raises BasketInconsistency on reaching a block with a
    non-integral chi_m.
    """
    if alpha not in (-1, 1):
        raise ValueError("basket series defined for amplitude -1 or +1")
    kern = RRKernel(fb.basket)
    vol = kern.k3(fb.chi, fb.chi2)
    sign, shift = (1, 0) if alpha == 1 else (-1, 1)
    head = [1, 1 - fb.chi] if alpha == 1 else [1]  # not read off chi_m
    lo, hi = 0, min(_FIRST_BLOCK, bound + 1)
    while lo < hi:
        chis = kern.chi_ints(fb.chi, vol, max(lo, len(head)) + shift,
                             hi + shift)
        yield head[lo:hi] + [sign * c for c in chis]
        lo, hi = hi, min(2 * hi, bound + 1)


def series_from_basket(fb: FormalBasket, alpha: int, bound: int) -> TruncatedSeries:
    """Expected section-count series of a formal basket with nef and big +-K.

    Amplitude +1 reads chi_m directly; amplitude -1 reads -chi_{m+1} by
    duality.  Raises BasketInconsistency when some chi_m is not integral.
    """
    return TruncatedSeries(tuple(chain.from_iterable(
        basket_series_blocks(fb, alpha, bound))))
