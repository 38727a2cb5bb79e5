"""Independent checkers for the benchmark's outputs.

Nothing here calls wcikit.  Records are checked in their JSON form
(``ClassificationRecord.to_dict()``) against computations written out
from first principles:

- dimension and amplitude read off the weights and degrees;
- the degree identity K^3 = alpha^3 * prod(d) / prod(a), with K^3 taken
  from the formal basket by Reid's plurigenus formula;
- every basket index divides some weight;
- the basket's section-count series equals a brute-force count of the
  monomials of the presentation up to a small degree;
- the well-formedness, isolated and terminal gcd verdicts equal a
  literal scan over every subset of weights.

Each checker returns a list of error strings; an empty list means the
record passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

SERIES_CHECK_DEGREE = 10


def parse_text(text: str) -> tuple[list[int], list[int]]:
    """'a0,...,an / d1,...,dc' as two sorted integer lists."""
    left, right = text.split("/")
    return (sorted(int(s) for s in left.split(",")),
            sorted(int(s) for s in right.split(",")))


def _points(fb: dict) -> list[tuple[int, int]]:
    return [(b, r) for b, r, count in fb["basket"] for _ in range(count)]


def _local_term(points: list[tuple[int, int]], m: int) -> Fraction:
    """sum over points of sum_{j=1}^{m-1} (jb mod r)(r - jb mod r) / 2r."""
    total = Fraction(0)
    for b, r in points:
        total += Fraction(sum((j * b % r) * (r - j * b % r) for j in range(1, m)),
                          2 * r)
    return total


def basket_volume(fb: dict) -> Fraction:
    """K^3 from chi, chi_2 and the basket: 2 (chi_2 + 3 chi - l(2))."""
    return 2 * (fb["chi2"] + 3 * fb["chi"] - _local_term(_points(fb), 2))


def basket_chi(fb: dict, m: int) -> Fraction:
    """chi(mK) = (2m-1) m (m-1) K^3 / 12 - (2m-1) chi + l(m)."""
    return (Fraction((2 * m - 1) * m * (m - 1), 12) * basket_volume(fb)
            - (2 * m - 1) * fb["chi"] + _local_term(_points(fb), m))


def basket_series(fb: dict, alpha: int, bound: int) -> list[Fraction]:
    """Section counts h^0(O_X(m)), m <= bound, predicted by the basket.

    Amplitude +1: h^0(mK) is chi(mK) for m >= 2 and p_g = 1 - chi for
    m = 1.  Amplitude -1: h^0(-mK) = -chi((m+1)K) by Serre duality.
    """
    if alpha == 1:
        return [Fraction(1), Fraction(1 - fb["chi"])] + [
            basket_chi(fb, m) for m in range(2, bound + 1)]
    return [Fraction(1)] + [-basket_chi(fb, m + 1) for m in range(1, bound + 1)]


def monomial_series(weights: list[int], degrees: list[int], bound: int) -> list[int]:
    """Hilbert series of P(weights) cut by the degrees, by counting monomials.

    Every exponent vector of degree <= bound is visited once; the count
    is then multiplied by prod(1 - t^d).
    """
    counts = [0] * (bound + 1)
    ws = sorted(weights, reverse=True)

    def visit(i: int, deg: int) -> None:
        if i == len(ws) - 1:
            for top in range(deg, bound + 1, ws[i]):
                counts[top] += 1
            return
        while deg <= bound:
            visit(i + 1, deg)
            deg += ws[i]

    if ws:
        visit(0, 0)
    else:
        counts[0] = 1
    for d in degrees:
        counts = [c - (counts[m - d] if m >= d else 0) for m, c in enumerate(counts)]
    return counts


def wellformed_scan(weights: list[int]) -> bool:
    """Every n of the n+1 weights are coprime."""
    return all(gcd(*sub) == 1 for sub in combinations(weights, len(weights) - 1))


def _gcd_subsets(weights: list[int]):
    """(size, gcd) of every subset of weight positions whose gcd exceeds 1."""
    for k in range(1, len(weights) + 1):
        for sub in combinations(weights, k):
            g = gcd(*sub)
            if g > 1:
                yield k, g


def isolated_scan(weights: list[int], degrees: list[int]) -> bool:
    """Each k weights with common divisor g > 1: k <= c+1 and g divides >= k-1 degrees."""
    c = len(degrees)
    for k, g in _gcd_subsets(weights):
        if k > c + 1 or sum(1 for d in degrees if d % g == 0) < k - 1:
            return False
    return True


def terminal_scan(weights: list[int], degrees: list[int]) -> bool:
    """Each k weights with common divisor g > 1 meet min(k, c+1) degrees divisible by g.

    One degree short is allowed when g divides a + alpha for some weight
    a; for amplitude 0 the escape weight lies outside the subset and is
    itself divisible by g.
    """
    c, alpha = len(degrees), sum(degrees) - sum(weights)
    for k, g in _gcd_subsets(weights):
        need = min(k, c + 1)
        have = sum(1 for d in degrees if d % g == 0)
        if have >= need:
            continue
        if have == need - 1:
            if alpha == 0:
                if sum(1 for a in weights if a % g == 0) > k:
                    continue
            elif any((a + alpha) % g == 0 for a in weights):
                continue
        return False
    return True


def gcd_verdicts(weights: list[int], degrees: list[int]) -> dict[str, bool]:
    return {"well_formed_space": wellformed_scan(weights),
            "isolated_gcd_counts": isolated_scan(weights, degrees),
            "terminal_gcd_counts": terminal_scan(weights, degrees)}


def check_screen(text: str, report: dict) -> list[str]:
    """A screen report's gcd verdicts against literal subset scans."""
    weights, degrees = parse_text(text)
    errors = []
    if report["candidate"] != "%s / %s" % (",".join(map(str, weights)),
                                           ",".join(map(str, degrees))):
        errors.append(f"{text}: report is for {report['candidate']}")
    got = {ch["name"]: ch["passed"] for ch in report["checks"]}
    for name, want in gcd_verdicts(weights, degrees).items():
        if got.get(name) != want:
            errors.append(f"{text}: {name} reported {got.get(name)}, "
                          f"subset scan gives {want}")
    if report["passed"] != all(got.values()):
        errors.append(f"{text}: overall verdict disagrees with its checks")
    return errors


def check_record(rec: dict, alpha: int) -> list[str]:
    """Every independent condition a realized record must meet."""
    weights, degrees = sorted(rec["weights"]), sorted(rec["degrees"])
    name = f"{','.join(map(str, weights))} / {','.join(map(str, degrees))}"
    errors = []
    dim = len(weights) - len(degrees) - 1
    amp = sum(degrees) - sum(weights)
    if dim != 3 or amp != alpha:
        errors.append(f"{name}: dimension {dim}, amplitude {amp}")
    if (rec["dim"], rec["alpha"], rec["codim"]) != (dim, amp, len(degrees)):
        errors.append(f"{name}: reported dim/alpha/codim "
                      f"{rec['dim']}/{rec['alpha']}/{rec['codim']}")
    screen = {ch["name"]: ch["passed"] for ch in rec["screen"]["checks"]}
    for check, want in gcd_verdicts(weights, degrees).items():
        if screen.get(check) != want or not want:
            errors.append(f"{name}: {check} reported {screen.get(check)}, "
                          f"subset scan gives {want}")
    fb = rec["formal_basket"]
    if fb is None:
        return errors
    vol = basket_volume(fb)
    if vol != Fraction(alpha ** 3 * prod(degrees), prod(weights)):
        errors.append(f"{name}: basket K^3 {vol} is not alpha^3 prod(d)/prod(a)")
    if fb["k3"] != f"{vol.numerator}/{vol.denominator}":
        errors.append(f"{name}: reported K^3 {fb['k3']}, basket gives {vol}")
    for b, r in set(_points(fb)):
        if not any(a % r == 0 for a in weights):
            errors.append(f"{name}: basket index {r} divides no weight")
    want = monomial_series(weights, degrees, SERIES_CHECK_DEGREE)
    got = basket_series(fb, alpha, SERIES_CHECK_DEGREE)
    if got != want:
        errors.append(f"{name}: basket series {[str(x) for x in got]} != "
                      f"monomial count {want}")
    top = max(weights + degrees)
    if rec["series_bound"] < 2 * top:
        errors.append(f"{name}: series bound {rec['series_bound']} below "
                      f"twice the top entry {top}")
    return errors
