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

from .baskets import FormalBasket, chi_int_sequence


# Largest series bound built on request: a bound allocates one integer
# per coefficient, and the longest certified recovery bound the drivers
# use is 86,116.
MAX_SERIES_BOUND = 1_000_000


class SeriesParseError(ValueError):
    """Raised when series text does not parse."""


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
        if bound > MAX_SERIES_BOUND:
            raise ValueError(f"series bound {bound} exceeds {MAX_SERIES_BOUND}")
        return TruncatedSeries((1,) + (0,) * bound)

    def mul_factor(self, k: int) -> TruncatedSeries:
        """Multiply by (1 - t^k)."""
        if k < 1:
            raise ValueError("factor exponent must be >= 1")
        c = list(self.coeffs)
        for m in range(self.bound, k - 1, -1):
            c[m] -= c[m - k]
        return TruncatedSeries(tuple(c))

    def div_factor(self, k: int) -> TruncatedSeries:
        """Divide by (1 - t^k); exact inverse of mul_factor(k)."""
        if k < 1:
            raise ValueError("factor exponent must be >= 1")
        c = list(self.coeffs)
        for m in range(k, self.bound + 1):
            c[m] += c[m - k]
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
    s = TruncatedSeries.one(bound)
    for d in degrees:
        s = s.mul_factor(d)
    for a in weights:
        s = s.div_factor(a)
    return s


def series_from_candidate(c, bound: int) -> TruncatedSeries:
    """Poincare series of a candidate's coordinate ring."""
    return poincare_series(c.weights, c.degrees, bound)


@dataclass(frozen=True, slots=True)
class RecoveredPresentation:
    weights: tuple[int, ...]
    degrees: tuple[int, ...]
    residual_clean: bool


def _table_method(c: list[int], max_entries: int | None
                  ) -> tuple[list[int], list[int], bool]:
    """The table method's loop, run in place on the coefficient list c.

    Returns the weights and degrees read off c and whether max_entries
    stopped the scan.  The decision at index m reads only c_0..c_m, so
    a prefix of a series stops at the same index as the whole series
    whenever the cap is hit inside the prefix.
    """
    bound = len(c) - 1
    weights: list[int] = []
    degrees: list[int] = []
    m = 1
    while m <= bound:
        cm = c[m]
        if cm == 0:
            m += 1
            continue
        count = abs(cm)
        if max_entries is not None:
            budget = max_entries - len(weights) - len(degrees)
            if count > budget:
                return weights, degrees, True
        if cm > 0:
            weights.extend([m] * count)
            for _ in range(count):
                for i in range(bound, m - 1, -1):
                    c[i] -= c[i - m]
        else:
            degrees.extend([m] * count)
            for _ in range(count):
                for i in range(m, bound + 1):
                    c[i] += c[i - m]
        m += 1
    return weights, degrees, False


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
    max_entries aborts recoveries that keep producing entries.
    """
    if series[0] != 1:
        raise ValueError("series must have constant coefficient 1")
    c = list(series.coeffs)
    weights, degrees, capped = _table_method(c, max_entries)
    top = max(weights + degrees, default=0)
    clean = not capped and not any(c[1:]) and 2 * top <= series.bound
    return RecoveredPresentation(tuple(weights), tuple(degrees), clean)


def recovery_bound(fb: FormalBasket, alpha: int) -> int:
    """Series length that provably captures every realizing presentation.

    Twice N, where N caps both the basket indices and the largest weight
    or degree any quasismooth realization with this amplitude can carry.
    """
    if alpha not in (-1, 1):
        raise ValueError("recovery bound defined for amplitude -1 or +1")
    s = max(Fraction(4 + cc + alpha, cc) ** cc for cc in range(1, 5))
    ceil_s = -((-1680 * s.numerator) // s.denominator)
    r_max = max((q.r for q in fb.basket), default=1)
    n = max(r_max, ceil_s + alpha)
    return 2 * n


def max_weight_ok(a_max: int, r_max: int, degrees: tuple[int, ...]) -> bool:
    """A weight >= 2 must stay within the largest basket index or divide a degree."""
    if a_max < 2:
        return True
    return a_max <= r_max or any(d % a_max == 0 for d in degrees)


def series_from_basket(fb: FormalBasket, alpha: int, bound: int) -> TruncatedSeries:
    """Expected section-count series of a formal basket with nef and big +-K.

    Amplitude +1 reads chi_m directly; amplitude -1 reads -chi_{m+1} by
    duality.  Raises BasketInconsistency when some chi_m is not integral.
    """
    if alpha == 1:
        chis = chi_int_sequence(fb, bound)
        coeffs = [1]
        if bound >= 1:
            coeffs.append(1 - fb.chi)
            coeffs.extend(chis[2:bound + 1])
        return TruncatedSeries(tuple(coeffs))
    if alpha == -1:
        chis = chi_int_sequence(fb, bound + 1)
        coeffs = [1] + [-chis[m + 1] for m in range(1, bound + 1)]
        return TruncatedSeries(tuple(coeffs))
    raise ValueError("basket series defined for amplitude -1 or +1")
