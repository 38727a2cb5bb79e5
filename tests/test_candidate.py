import dataclasses
import hashlib
import random
from math import prod

import pytest

from oracles import (
    isolated_subsets_ok,
    necessary_screen_oracle,
    random_screen_candidate,
    terminal_subsets_ok,
    wellformed_oracle,
)
from wcikit import (
    Candidate,
    CandidateParseError,
    CheckResult,
    InvalidCandidate,
    RunConfig,
    check_cy_product,
    check_wps_wellformed,
    classify,
    deltas,
    is_linear_cone,
    necessary_screen,
    normalize,
    parse_candidate,
)
from wcikit.candidate import MAX_ENTRIES, _weight_divisors
from fractions import Fraction


def screen_checks(c):
    """necessary_screen's results for a candidate or its text, by check name."""
    if isinstance(c, str):
        c = parse_candidate(c)
    return {ch.name: ch for ch in necessary_screen(c).checks}


def ratio_sum(c):
    """sum d_j/a_{j+dim}, the quantity degree_ratio_bound caps."""
    return sum(Fraction(d, a) for d, a in zip(c.degrees, c.weights[c.dim + 1:]))


class TestParsing:
    def test_round_trip(self):
        c = parse_candidate("1,1,1,2,5 / 10")
        assert c.weights == (1, 1, 1, 2, 5)
        assert c.degrees == (10,)
        assert parse_candidate(c.text()) == c

    def test_whitespace_and_order(self):
        c = parse_candidate(" 5, 1 ,2,1,1 /  10 ")
        assert c.weights == (1, 1, 1, 2, 5)

    def test_str_form(self):
        c = parse_candidate("1,1,2,2,3,3 / 6,6")
        assert str(c) == "X(6,6) in P(1,1,2,2,3,3)"

    @pytest.mark.parametrize("text", [
        "1,1,1,1,1",          # no separator
        "1,1 / 2 / 3",        # two separators
        "1,1,1 /",            # empty degrees
        "/ 4",                # empty weights
        "1,x,1 / 4",          # junk token
        "1,1,0,1,1 / 4",      # zero weight
        "1,1,1,1,1 / -4",     # negative degree
        "1,1 / 4",            # dim < 1
        "1_0,1,1,1,1 / 14",   # digit separator, int() reads 10
        "+1,1,1,1,1 / 5",     # explicit sign
        "1,1,1,1,1 / ４",     # fullwidth digit
        "1,1,1,1,1 / ٥",      # Arabic-Indic digit
        "1,1,1,1,1 / " + "5" * 5000,  # more digits than int() converts
    ])
    def test_parse_errors(self, text):
        with pytest.raises(CandidateParseError):
            parse_candidate(text)

    def test_entry_cap(self):
        # the screens are quadratic in the entries, so a long candidate
        # is refused before any of them runs
        ones = ",".join(["1"] * (MAX_ENTRIES - 1))
        assert parse_candidate(ones + " / 2").codim == 1
        with pytest.raises(CandidateParseError, match="more than 100 "):
            parse_candidate(ones + ",1 / 2")

    def test_normalize_sorts(self):
        c = normalize([5, 1, 1, 2, 1], [10])
        assert c.weights == (1, 1, 1, 2, 5)

    def test_direct_construction_validates(self):
        for weights, degrees, message in [
                ((2, 1, 1, 1, 1), (4,), "weights must be sorted"),
                ((1, 1, 1, 1, 1, 1), (3, 2), "degrees must be sorted"),
                ((2, 0, 1, 1, 1), (4,), "positive"),  # sign before order
                ((1, 1, 1), (2, 2), "need more weights"),
                ((), (2,), "nonempty")]:
            with pytest.raises(InvalidCandidate, match=message):
                Candidate(weights, degrees)

    def test_invariants(self):
        c = parse_candidate("1,1,2,2,3,3 / 6,6")
        assert (c.n, c.codim, c.dim, c.amplitude) == (5, 2, 3, 0)


class TestDeltas:
    def test_values_and_total(self):
        c = parse_candidate("1,1,2,2,3,3 / 6,6")
        assert deltas(c) == (3, 3)
        assert sum(deltas(c)) == sum(c.weights[:c.dim + 1]) + c.amplitude

    def test_total_identity_random(self):
        rng = random.Random(11)
        for _ in range(200):
            n_d = rng.randint(1, 4)
            n_w = n_d + rng.randint(2, 5)
            c = normalize([rng.randint(1, 9) for _ in range(n_w)],
                          [rng.randint(1, 40) for _ in range(n_d)])
            assert sum(deltas(c)) == sum(c.weights[:c.dim + 1]) + c.amplitude


class TestBasicChecks:
    def test_linear_cone(self):
        assert is_linear_cone(parse_candidate("1,1,1,1,5 / 5"))
        assert not is_linear_cone(parse_candidate("1,1,1,1,1 / 5"))

    def test_wellformed_known(self):
        assert check_wps_wellformed(parse_candidate("1,1,1,1,1 / 4"))
        assert not check_wps_wellformed(parse_candidate("1,2,4,6,2 / 5"))
        # all four-element subsets of (2,2,3,3,5) are coprime
        assert check_wps_wellformed(parse_candidate("2,2,3,3,5 / 7"))

    def test_wellformed_matches_subset_scan(self):
        rng = random.Random(23)
        for _ in range(300):
            n_w = rng.randint(3, 7)
            c = normalize([rng.randint(1, 12) for _ in range(n_w)], [50])
            assert check_wps_wellformed(c) == wellformed_oracle(c.weights)
        # exactly one n-subset shares a prime: the weights other than the
        # odd one out, which sorts first, in the middle or last
        for shared, odd in (((2, 4, 6, 8), (1, 3, 5, 7, 9)),
                            ((3, 3, 6, 9), (2, 4, 5, 10))):
            for a in odd:
                c = normalize(shared + (a,), [50])
                assert not wellformed_oracle(c.weights)
                assert not check_wps_wellformed(c), c.weights
        # up to MAX_ENTRIES weights, all but k of them multiples of p
        for _ in range(200):
            p, k = rng.choice((2, 3, 5)), rng.randint(0, 2)
            n_w = rng.randint(3, MAX_ENTRIES)
            weights = [p * rng.randint(1, 20) for _ in range(n_w - k)]
            weights += [p * rng.randint(0, 20) + rng.randint(1, p - 1)
                        for _ in range(k)]
            c = normalize(weights, [50])
            assert check_wps_wellformed(c) == wellformed_oracle(c.weights)

    def test_degree_weight_order(self):
        assert screen_checks("1,1,1,2,5 / 10")["degrees_dominate"].passed
        order = screen_checks("1,1,1,1,7 / 6")["degrees_dominate"]
        assert (order.passed, order.witness) == (False, "deltas (-1,)")

    def test_codim_bound(self):
        assert screen_checks("1,1,1,1,1,1,1,1 / 2,2,2,2")["codim_bound"].passed
        # amplitude 0 allows at most dim+1 degrees
        assert not screen_checks(
            "1,1,1,1,1,1,1,1,1 / 1,2,2,2,2")["codim_bound"].passed
        # negative amplitude allows at most dim degrees
        assert screen_checks("1,1,1,1,1,1,1 / 2,2,2")["codim_bound"].passed
        assert not screen_checks(
            "1,1,1,1,2,2,3,3 / 2,2,2,3")["codim_bound"].passed


class TestDivisibilityFragments:
    def test_large_weight_must_divide(self):
        results = screen_checks("1,1,1,5 / 4")
        assert not results["large_weight_divides"].passed
        assert "5" in results["large_weight_divides"].witness

    def test_large_weight_divides_some_degree(self):
        results = screen_checks("1,1,1,1,1,5 / 3,10")
        assert results["large_weight_divides"].passed

    def test_large_weight_vacuous_when_small(self):
        results = screen_checks("1,1,1,1,7 / 9")
        assert results["large_weight_divides"].passed

    def test_tail_delta_bound_vacuous_low_codim(self):
        results = screen_checks("1,1,1,2,5 / 10")
        assert results["tail_delta_bound"].passed
        assert "vacuous" in results["tail_delta_bound"].witness

    def test_tail_delta_bound_active(self):
        results = screen_checks("1,1,1,1,1,1,1,1 / 2,2,2,2")
        assert results["tail_delta_bound"].passed

        results = screen_checks("1,2,2,2,3,3,3,3 / 4,4,4,4")
        assert not results["tail_delta_bound"].passed
        assert results["tail_delta_bound"].witness == "delta_4=1 < weight 2"


class TestGcdScreens:
    GCD_CHECKS = ("isolated_gcd_counts", "terminal_gcd_counts")

    def _gcd_results(self, c):
        checks = screen_checks(c)
        return [checks[name] for name in self.GCD_CHECKS]

    def test_known_pass(self):
        isolated, terminal = self._gcd_results("1,1,1,2,5 / 10")
        assert isolated.passed
        assert terminal.passed

    def test_known_isolated_failure(self):
        assert not self._gcd_results("1,1,2,2,2 / 6")[0].passed

    @pytest.mark.parametrize("text,isolated,terminal", [
        # amplitude -2: an escape weight a with h | a - 2 lies outside the
        # weights h divides, so no even weight counts at h = 2
        ("1,1,2,2,2 / 6",
         (False, "3 weights share divisor 2, at most 2 allowed"),
         (False, "divisor 2: 1 of 2 required degrees divisible, "
                 "no escape weight")),
        # each screen keeps its own first failing divisor: the scan goes
        # on past the isolated failure at 2 to the terminal one at 3
        ("2,2,2,3,3 / 12",
         (False, "3 weights share divisor 2, at most 2 allowed"),
         (False, "divisor 3: 1 of 2 required degrees divisible, "
                 "no escape weight")),
        ("1,1,1,1,100003 / 100007",
         (True, None),
         (False, "divisor 100003: 0 of 1 required degrees divisible, "
                 "no escape weight")),
        # amplitude -2 again, with codimension 2
        ("1,2,11,12,26,28 / 34,44",
         (False, "4 weights share divisor 2, at most 3 allowed"),
         (False, "divisor 2: 2 of 3 required degrees divisible, "
                 "no escape weight")),
    ])
    def test_golden_witnesses(self, text, isolated, terminal):
        results = self._assert_matches_oracles(parse_candidate(text))
        assert [(r.passed, r.witness) for r in results] == [isolated, terminal]

    @pytest.mark.parametrize("text,counts", [
        ("1,1,2,2,2 / 6", {2: 3}),
        ("2,2,2,3,3 / 12", {2: 3, 3: 2}),
    ])
    def test_weight_divisor_golden_counts(self, text, counts):
        assert _weight_divisors(parse_candidate(text)) == counts

    def test_weight_divisor_counts_match_brute_force(self):
        # repeated small weights, and in a fifth of the lists one weight
        # in [10^3, 10^4]; keys from trial division up to sqrt(a)
        rng = random.Random(59)
        for _ in range(2500):
            weights = [rng.randint(1, 12) for _ in range(rng.randint(3, 9))]
            if rng.random() < 0.2:
                weights[-1] = rng.randint(10**3, 10**4)
            hs = set()
            for a in weights:
                for h in range(1, int(a ** 0.5) + 1):
                    if a % h == 0:
                        hs.update((h, a // h))
            hs.discard(1)
            want = {h: sum(a % h == 0 for a in weights) for h in hs}
            assert _weight_divisors(normalize(weights, [50])) == want, weights

    def _assert_matches_oracles(self, c):
        isolated, terminal = self._gcd_results(c)
        cc = c.codim
        assert isolated.passed == isolated_subsets_ok(
            c.weights, c.degrees, cc), c.text()
        assert terminal.passed == terminal_subsets_ok(
            c.weights, c.degrees, cc, c.amplitude), c.text()
        return isolated, terminal

    def test_matches_subset_oracle(self):
        rng = random.Random(37)
        for _ in range(400):
            cc = rng.randint(1, 4)
            weights = sorted(rng.randint(1, 12) for _ in range(cc + 4))
            degrees = sorted(rng.randint(2, 30) for _ in range(cc))
            self._assert_matches_oracles(normalize(weights, degrees))

    def test_matches_subset_oracle_past_small_divisors(self):
        # one weight in [10^3, 10^4] beside small ones, mostly 1, so that
        # the scan often runs on through the large weight's divisors
        rng = random.Random(43)
        full_scans = 0
        for _ in range(50):
            cc = rng.randint(1, 4)
            weights = [rng.choice((1, 1, 2, 3, 5)) for _ in range(cc + 3)]
            big = rng.randint(10**3, 10**4)
            degrees = [rng.randint(2, 30) for _ in range(cc - 1)]
            degrees.append(big * rng.randint(1, 2)
                           + rng.choice((0, rng.randint(1, 12))))
            results = self._assert_matches_oracles(
                normalize(weights + [big], degrees))
            full_scans += not any(r.witness for r in results)
        assert full_scans >= 5


class TestProductAndRatio:
    def test_cy_product(self):
        assert check_cy_product(parse_candidate("1,1,1,2,5 / 10"))
        assert not check_cy_product(parse_candidate("1,1,1,1,3 / 7"))
        with pytest.raises(InvalidCandidate):
            check_cy_product(parse_candidate("1,1,1,1,2 / 7"))  # amplitude 1

    def test_ratio_screen_value(self):
        c = parse_candidate("1,1,1,2,5 / 10")
        assert screen_checks(c)["degree_ratio_bound"].passed
        cap = c.codim + c.amplitude + c.dim + 1
        assert (ratio_sum(c), cap) == (2, 5)
        bound = Fraction(cap, c.codim) ** c.codim / prod(c.weights[:4])
        assert bound == Fraction(5, 2)
        assert Fraction(prod(c.degrees), prod(c.weights)) <= bound

    def test_ratio_screen_dominates_product_ratio(self):
        # prod(degrees)/prod(weights) <= ((c+alpha+4)/c)^c / prod(a_0..a_3)
        # on a threefold with every delta >= 1 and alpha >= 0; at alpha 0
        # this is the bound classify_cy enumerates the weights under
        rng = random.Random(41)
        checked = cy = 0
        for _ in range(500):
            cc = rng.randint(1, 4)
            weights = sorted(rng.randint(1, 6) for _ in range(cc + 4))
            dim = 3
            degrees = []
            for j, a in enumerate(weights[dim + 1:]):
                degrees.append(a + rng.randint(1, 6))
            c = normalize(weights, sorted(degrees))
            if c.amplitude < 0:
                continue
            assert screen_checks(c)["degree_ratio_bound"].passed
            bound = (Fraction(cc + c.amplitude + 4, cc) ** cc
                     / prod(c.weights[:4]))
            assert Fraction(prod(c.degrees), prod(c.weights)) <= bound
            checked += 1
            cy += c.amplitude == 0
        assert checked > 50
        assert cy > 10

    def test_ratio_screen_holds_on_its_domain(self):
        # the sum d_j/a_{j+dim} never exceeds the cap once amplitude >= 0
        # and every delta >= 1 (proof in necessary_screen's docstring)
        rng = random.Random(47)
        checked = 0
        for _ in range(5000):
            c = random_screen_candidate(rng, big_share=0.05)
            if c.amplitude >= 0 and min(deltas(c)) >= 1:
                assert ratio_sum(c) <= c.codim + c.amplitude + c.dim + 1, \
                    c.text()
                assert screen_checks(c)["degree_ratio_bound"].passed
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("text", [
        "1,1,1,1,1 / 5", "1,1,1,1,1,1,1,1 / 2,2,2,3"])
    def test_ratio_screen_equality_cases(self, text):
        c = parse_candidate(text)
        assert ratio_sum(c) == c.codim + c.amplitude + c.dim + 1
        assert screen_checks(c)["degree_ratio_bound"].passed


class TestNecessaryScreen:
    def test_full_pass(self):
        report = necessary_screen(parse_candidate("1,1,1,2,5 / 10"))
        assert report.passed
        names = [ch.name for ch in report.checks]
        assert names == [
            "not_linear_cone", "well_formed_space", "degrees_dominate",
            "codim_bound", "large_weight_divides", "tail_delta_bound",
            "isolated_gcd_counts", "terminal_gcd_counts", "product_divides",
            "degree_ratio_bound",
        ]

    def test_linear_cone_fails(self):
        report = necessary_screen(parse_candidate("1,1,1,1,5 / 5"))
        assert not report.passed
        assert "not_linear_cone" in report.failed_names()

    def test_negative_amplitude_skips_ratio(self):
        report = necessary_screen(parse_candidate("1,1,1,1,1 / 4"))
        assert report.passed
        assert "degree_ratio_bound" not in [ch.name for ch in report.checks]

    def test_non_threefold_skips_singularity_screens(self):
        report = necessary_screen(normalize([1, 1, 1, 1], [3]))
        names = [ch.name for ch in report.checks]
        assert "isolated_gcd_counts" not in names
        assert "terminal_gcd_counts" not in names

    def test_matches_oracle_on_random_candidates(self):
        rng = random.Random(53)
        failed = set()
        for _ in range(20000):
            c = random_screen_candidate(rng, big_share=0.05)
            report = necessary_screen(c)
            assert report.to_dict() == \
                necessary_screen_oracle(c).to_dict(), c.text()
            failed.update(report.failed_names())
        # every check that can fail did, on some candidate
        assert failed == {
            "not_linear_cone", "well_formed_space", "degrees_dominate",
            "codim_bound", "large_weight_divides", "tail_delta_bound",
            "isolated_gcd_counts", "terminal_gcd_counts", "product_divides"}

    def test_matches_oracle_on_the_classified_lists(self, gt_report):
        reports = (classify(RunConfig(alpha=0)), classify(RunConfig(alpha=-1)),
                   gt_report[0])
        assert [len(r.records) for r in reports] == [13, 181, 122]
        for report in reports:
            for rec in report.records:
                want = necessary_screen_oracle(rec.candidate).to_dict()
                assert necessary_screen(rec.candidate).to_dict() == want
                assert rec.screen.to_dict() == want

    # sha256 of the reports below, one to_json() per line; every change
    # to the screen must leave it as it is
    OUTPUT_DIGEST = (
        "98d8d5e55f5d3770ae064c3a6211cb1f479c9c8d805b2cbe097846294931818b")

    def test_output_digest(self):
        rng = random.Random(61)
        texts = ["1,1,1,2,5 / 10", "2,2,2,3,3 / 12", "1,1,2,2,2 / 6",
                 "1,1,1,1,100003 / 100007"]
        candidates = [parse_candidate(t) for t in texts]
        candidates += [random_screen_candidate(rng, big_share=0.1)
                       for _ in range(5000)]
        h = hashlib.sha256()
        for c in candidates:
            h.update(necessary_screen(c).to_json().encode())
            h.update(b"\n")
        assert h.hexdigest() == self.OUTPUT_DIGEST

    def test_passing_results_are_shared_and_frozen(self):
        result = CheckResult("codim_bound", True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.passed = False
        vacuous = CheckResult("tail_delta_bound", True, "vacuous: c <= dim")
        # the candidates of test_output_digest; passing holds every passing
        # entry, so no id is reused while the failing ones are checked
        rng = random.Random(61)
        passing, failing = {}, []
        for _ in range(5000):
            c = random_screen_candidate(rng, big_share=0.1)
            for ch in necessary_screen(c).checks:
                if ch.passed:
                    assert ch in (CheckResult(ch.name, True), vacuous), ch
                    passing[id(ch)] = ch
                else:
                    failing.append(ch)
        assert failing
        assert not any(id(ch) in passing for ch in failing)

    def test_report_serializes(self):
        report = necessary_screen(parse_candidate("1,1,1,2,5 / 10"))
        data = report.to_dict()
        assert data["alpha"] == 0
        assert all(ch["passed"] for ch in data["checks"])
