"""Weighted complete intersection candidates and their numerical screens.

A candidate is a pair of multisets: ambient weights a_0 <= ... <= a_n and
hypersurface degrees d_1 <= ... <= d_c, describing a family of complete
intersections of codimension c in the weighted projective space P(a).
Every check in this module is a necessary condition for the family to
contain a quasismooth, well formed member with at worst terminal isolated
singularities; all tests are exact integer arithmetic and none proves
existence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd, prod
from operator import le

from . import _jsonout


# Most weights and degrees, together, that parse_candidate accepts and
# `wci table` reads off a series.  The screens are quadratic in the
# entries, and a family in the lists has at most a few dozen.
MAX_ENTRIES = 100


class InvalidCandidate(ValueError):
    """Raised when weights or degrees cannot form a candidate."""


class CandidateParseError(ValueError):
    """Raised when candidate text does not parse."""


@dataclass(frozen=True, slots=True)
class Candidate:
    """Normalized weight and degree data; build via normalize()."""

    weights: tuple[int, ...]
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        w, d = self.weights, self.degrees
        if not w or not d:
            raise InvalidCandidate("weights and degrees must be nonempty")
        if min(w) < 1 or min(d) < 1:
            raise InvalidCandidate("entries must be positive integers")
        if not all(map(le, w, w[1:])):
            raise InvalidCandidate("weights must be sorted ascending")
        if not all(map(le, d, d[1:])):
            raise InvalidCandidate("degrees must be sorted ascending")
        if self.dim < 1:
            raise InvalidCandidate("need more weights than degrees plus one")

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    @property
    def codim(self) -> int:
        return len(self.degrees)

    @property
    def dim(self) -> int:
        return len(self.weights) - len(self.degrees) - 1

    @property
    def amplitude(self) -> int:
        """Degree sum minus weight sum; the canonical sheaf is O(amplitude)."""
        return sum(self.degrees) - sum(self.weights)

    def text(self) -> str:
        return "%s / %s" % (
            ",".join(map(str, self.weights)),
            ",".join(map(str, self.degrees)),
        )

    def __str__(self) -> str:
        return "X(%s) in P(%s)" % (
            ",".join(map(str, self.degrees)),
            ",".join(map(str, self.weights)),
        )


def normalize(weights: list[int] | tuple[int, ...],
              degrees: list[int] | tuple[int, ...]) -> Candidate:
    """Sort both multisets and validate them as a Candidate."""
    if not weights:
        raise InvalidCandidate("weights must be nonempty")
    return Candidate(tuple(sorted(weights)), tuple(sorted(degrees)))


def parse_candidate(text: str) -> Candidate:
    """Parse 'a0,a1,...,an / d1,...,dc'; whitespace is ignored."""
    parts = [[s.strip() for s in part.split(",")] for part in text.split("/")]
    if len(parts) != 2:
        raise CandidateParseError("expected one '/' between weights and degrees")
    if len(parts[0]) + len(parts[1]) > MAX_ENTRIES:
        raise CandidateParseError(
            f"more than {MAX_ENTRIES} weights and degrees")

    def ints(items: list[str], side: str) -> list[int]:
        if items == [""]:
            raise CandidateParseError(f"empty {side} list")
        for s in items:
            # int() alone also reads '1_0', '+4' and non-ASCII digits
            if not (s.isascii() and s.isdigit()):
                raise CandidateParseError(f"bad integer in {side}: {s!r}")
        try:
            values = [int(s) for s in items]
        except ValueError as exc:  # more digits than int() converts
            raise CandidateParseError(f"bad integer in {side}: {exc}") from None
        return values

    try:
        return normalize(ints(parts[0], "weights"), ints(parts[1], "degrees"))
    except InvalidCandidate as exc:
        raise CandidateParseError(str(exc)) from None


def deltas(c: Candidate) -> tuple[int, ...]:
    """Degree excesses d_j - a_{j+dim} of a normalized candidate.

    Their sum always equals a_0 + ... + a_dim + amplitude.
    """
    dim = c.dim
    return tuple(d - a for d, a in zip(c.degrees, c.weights[dim + 1:]))


def is_linear_cone(c: Candidate) -> bool:
    """True iff some degree equals some weight (a degenerate presentation)."""
    return bool(set(c.weights) & set(c.degrees))


def check_wps_wellformed(c: Candidate) -> bool:
    """True iff every n of the n+1 weights are collectively coprime.

    All weights but a_i have gcd(gcd(a_0..a_{i-1}), gcd(a_{i+1}..a_n)).
    """
    w = c.weights
    before = accumulate(w[:-1], gcd, initial=0)
    after = list(accumulate(reversed(w[1:]), gcd, initial=0))[::-1]
    return max(map(gcd, before, after)) <= 1


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


# The passing results, built once: being frozen, one instance can sit in
# every report, and a failing check builds its own with its witness.
_PASS = {name: CheckResult(name, True) for name in (
    "not_linear_cone", "well_formed_space", "degrees_dominate",
    "codim_bound", "large_weight_divides", "tail_delta_bound",
    "isolated_gcd_counts", "terminal_gcd_counts", "product_divides",
    "degree_ratio_bound")}
_VACUOUS_TAIL = CheckResult("tail_delta_bound", True, "vacuous: c <= dim")


def _weight_degree_checks(c: Candidate, dim: int,
                          dv: tuple[int, ...]) -> list[CheckResult]:
    """Quasismoothness fragment: large weights divide degrees, tail deltas bound.

    Part one: any weight exceeding the smallest degree must divide some
    degree.  Part two: when c >= dim + 1 the j-th delta from the top is at
    least the matching weight from the bottom.  dv is deltas(c).
    """
    results: list[CheckResult] = []
    d1 = c.degrees[0]
    bad = None
    for a in c.weights:
        if a > d1 and all(d % a for d in c.degrees):
            bad = a
            break
    results.append(_PASS["large_weight_divides"] if bad is None else
                   CheckResult("large_weight_divides", False,
                               f"weight {bad} > d1={d1} divides no degree"))

    cc = len(dv)
    if cc >= dim + 1:
        bad_pair = None
        for j in range(dim + 1):
            if dv[cc - 1 - j] < c.weights[dim - j]:
                bad_pair = (cc - j, dv[cc - 1 - j], c.weights[dim - j])
                break
        results.append(_PASS["tail_delta_bound"] if bad_pair is None else
                       CheckResult("tail_delta_bound", False,
                                   "delta_%d=%d < weight %d" % bad_pair))
    else:
        results.append(_VACUOUS_TAIL)
    return results


def _weight_divisors(c: Candidate) -> dict[int, int]:
    """Each divisor h > 1 of some weight, mapped to how many weights it divides.

    Every subset gcd is a key.  Each distinct weight a is scanned once,
    h in 2..a, and adds its multiplicity to every h that divides it, so
    the scan is linear in the largest weight.
    """
    w = c.weights
    out: dict[int, int] = {}
    for a in set(w):
        m = w.count(a)
        for h in range(2, a + 1):
            if a % h == 0:
                out[h] = out.get(h, 0) + m
    return out


def _gcd_checks(c: Candidate, cc: int, alpha: int) -> list[CheckResult]:
    """Isolated and terminal singularity screens on a threefold, one divisor scan.

    For each h > 1 dividing a weight, h divides w weights and d degrees;
    the divisor scan (_weight_divisors) counts w, and d is counted per h.
    Isolated singular locus: w <= c+1 and d >= w - 1, which is every
    subset of up to c+1 weights with gcd h having at least (subset size
    - 1) degrees divisible by h and every larger subset coprime.
    Terminal: h divides need = min(w, c+1) degrees outright, or one fewer
    while h also divides a_m + amplitude for some weight a_m outside the
    subset, one that h does not divide.  For amplitude 0 the escape weight must itself be divisible
    by h, which forces h to divide as many degrees as weights.  Each
    result's witness is its first failing h.  cc is the codimension and
    alpha the amplitude.
    """
    isolated = terminal = None
    degrees = c.degrees
    counts = _weight_divisors(c)
    for h in sorted(counts):
        w = counts[h]
        d = 0
        for d_ in degrees:
            if d_ % h == 0:
                d += 1
        if isolated is None:
            if w > cc + 1:
                isolated = (f"{w} weights share divisor {h}, "
                            f"at most {cc + 1} allowed")
            elif d < w - 1:
                isolated = (f"divisor {h}: {w} weights but only {d} degrees "
                            f"divisible, needs {w - 1}")
        need = min(w, cc + 1)
        if terminal is None and d < need:
            escape = d == need - 1 and (
                w > need if alpha == 0
                else any(a % h and (a + alpha) % h == 0 for a in c.weights))
            if not escape:
                terminal = (f"divisor {h}: {d} of {need} required degrees "
                            f"divisible, no escape weight")
        if isolated and terminal:
            break
    return [_PASS["isolated_gcd_counts"] if isolated is None else
            CheckResult("isolated_gcd_counts", False, isolated),
            _PASS["terminal_gcd_counts"] if terminal is None else
            CheckResult("terminal_gcd_counts", False, terminal)]


def check_cy_product(c: Candidate) -> bool:
    """Amplitude-zero threefolds: the weight product divides the degree product."""
    if c.dim != 3 or c.amplitude != 0:
        raise InvalidCandidate("product divisibility screen needs dim 3, amplitude 0")
    return prod(c.degrees) % prod(c.weights) == 0


@dataclass(frozen=True, slots=True)
class ScreenReport:
    candidate: Candidate
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def failed_names(self) -> list[str]:
        return [ch.name for ch in self.checks if not ch.passed]

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate.text(),
            "alpha": self.candidate.amplitude,
            "dim": self.candidate.dim,
            "passed": self.passed,
            "checks": [
                {"name": ch.name, "passed": ch.passed, "witness": ch.witness}
                for ch in self.checks
            ],
        }

    def to_json(self) -> str:
        return _jsonout.dumps(self.to_dict())


def necessary_screen(c: Candidate) -> ScreenReport:
    """Run every screen that applies to the candidate's dimension and amplitude.

    Check order is fixed so reports are deterministic.  Dimension 3 is
    required for the singularity screens, which share one divisor scan in
    _gcd_checks; other dimensions get only the presentation-level checks;
    dim, codim, amplitude and the deltas are read once.

    degrees_dominate: every paired degree strictly exceeds its weight,
    delta_j >= 1.  codim_bound: c <= dim + amplitude + 1 when amplitude
    >= 0, else c <= dim.

    degree_ratio_bound, for alpha >= 0 once the degrees dominate, is the
    cap sum d_j/t_j <= c + dim + 1 + alpha, with t_j = a_{dim+1+j} the
    weight paired with d_j.  It bounds prod(degrees)/prod(weights) by
    ((c+alpha+dim+1)/c)^c / (a_0 * ... * a_dim), which classify_cy
    enumerates under.  It passes by proof, without the sum: with t_j >=
    a_dim >= a_0, ..., a_dim and every delta_j = d_j - t_j >= 1,
    sum d_j/t_j = c + sum delta_j/t_j <= c + (a_0 + ... + a_dim +
    alpha)/t_0 <= the cap.
    """
    checks: list[CheckResult] = []
    lc = is_linear_cone(c)
    checks.append(_PASS["not_linear_cone"] if not lc else CheckResult(
        "not_linear_cone", False,
        f"shared value {min(set(c.weights) & set(c.degrees))}"))
    checks.append(_PASS["well_formed_space"] if check_wps_wellformed(c)
                  else CheckResult("well_formed_space", False))
    dim, dv, alpha = c.dim, deltas(c), c.amplitude
    cc = len(dv)
    order_ok = min(dv) >= 1
    checks.append(_PASS["degrees_dominate"] if order_ok else
                  CheckResult("degrees_dominate", False, f"deltas {dv}"))
    codim_ok = cc <= (dim + alpha + 1 if alpha >= 0 else dim)
    checks.append(_PASS["codim_bound"] if codim_ok else
                  CheckResult("codim_bound", False))
    checks.extend(_weight_degree_checks(c, dim, dv))
    if dim == 3:
        checks.extend(_gcd_checks(c, cc, alpha))
        if alpha == 0:
            checks.append(_PASS["product_divides"] if check_cy_product(c)
                          else CheckResult("product_divides", False))
    if alpha >= 0 and order_ok:
        checks.append(_PASS["degree_ratio_bound"])
    return ScreenReport(c, tuple(checks))
