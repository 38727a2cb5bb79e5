import random

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
    InvalidCandidate,
    RunConfig,
    check_codim_bound,
    check_cy_product,
    check_degree_weight_order,
    check_gcd_counts,
    check_weight_degree_divisibility,
    check_wps_wellformed,
    classify,
    degree_ratio_screen,
    deltas,
    is_linear_cone,
    necessary_screen,
    normalize,
    parse_candidate,
)
from wcikit.candidate import MAX_ENTRIES
from fractions import Fraction


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
        assert check_degree_weight_order(parse_candidate("1,1,1,2,5 / 10"))
        assert not check_degree_weight_order(parse_candidate("1,1,1,1,7 / 6"))

    def test_codim_bound(self):
        assert check_codim_bound(parse_candidate("1,1,1,1,1,1,1,1 / 2,2,2,2"))
        # amplitude 0 allows at most dim+1 degrees
        assert not check_codim_bound(
            parse_candidate("1,1,1,1,1,1,1,1,1 / 1,2,2,2,2"))
        # negative amplitude allows at most dim degrees
        assert check_codim_bound(parse_candidate("1,1,1,1,1,1,1 / 2,2,2"))
        assert not check_codim_bound(
            parse_candidate("1,1,1,1,2,2,3,3 / 2,2,2,3"))


class TestDivisibilityFragments:
    def test_large_weight_must_divide(self):
        results = {r.name: r for r in check_weight_degree_divisibility(
            parse_candidate("1,1,1,5 / 4"))}
        assert not results["large_weight_divides"].passed
        assert "5" in results["large_weight_divides"].witness

    def test_large_weight_divides_some_degree(self):
        results = {r.name: r for r in check_weight_degree_divisibility(
            parse_candidate("1,1,1,1,1,5 / 3,10"))}
        assert results["large_weight_divides"].passed

    def test_large_weight_vacuous_when_small(self):
        results = {r.name: r for r in check_weight_degree_divisibility(
            parse_candidate("1,1,1,1,7 / 9"))}
        assert results["large_weight_divides"].passed

    def test_tail_delta_bound_vacuous_low_codim(self):
        results = {r.name: r for r in check_weight_degree_divisibility(
            parse_candidate("1,1,1,2,5 / 10"))}
        assert results["tail_delta_bound"].passed
        assert "vacuous" in results["tail_delta_bound"].witness

    def test_tail_delta_bound_active(self):
        ok = parse_candidate("1,1,1,1,1,1,1,1 / 2,2,2,2")
        results = {r.name: r for r in check_weight_degree_divisibility(ok)}
        assert results["tail_delta_bound"].passed

        bad = parse_candidate("1,2,2,2,3,3,3,3 / 4,4,4,4")
        results = {r.name: r for r in check_weight_degree_divisibility(bad)}
        assert not results["tail_delta_bound"].passed


class TestGcdScreens:
    def test_dimension_guard(self):
        c = normalize([1, 1, 1, 1], [3])  # dim 2
        with pytest.raises(InvalidCandidate):
            check_gcd_counts(c)

    def test_known_pass(self):
        isolated, terminal = check_gcd_counts(parse_candidate("1,1,1,2,5 / 10"))
        assert isolated.passed
        assert terminal.passed

    def test_known_isolated_failure(self):
        c = parse_candidate("1,1,2,2,2 / 6")
        assert not check_gcd_counts(c)[0].passed

    @pytest.mark.parametrize("text,isolated,terminal", [
        ("1,1,2,2,2 / 6",
         (False, "3 weights share divisor 2, at most 2 allowed"),
         (True, None)),
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
    ])
    def test_golden_witnesses(self, text, isolated, terminal):
        results = check_gcd_counts(parse_candidate(text))
        assert [r.name for r in results] == [
            "isolated_gcd_counts", "terminal_gcd_counts"]
        assert [(r.passed, r.witness) for r in results] == [isolated, terminal]

    @staticmethod
    def _assert_matches_oracles(c):
        isolated, terminal = check_gcd_counts(c)
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
        ok, bound = degree_ratio_screen(parse_candidate("1,1,1,2,5 / 10"))
        assert ok
        assert bound == Fraction(5, 1) ** 1 / 2

    def test_ratio_screen_dominates_product_ratio(self):
        rng = random.Random(41)
        checked = 0
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
            ok, bound = degree_ratio_screen(c)
            if not ok:
                continue
            prod_d = 1
            for d in c.degrees:
                prod_d *= d
            prod_a = 1
            for a in c.weights:
                prod_a *= a
            assert Fraction(prod_d, prod_a) <= bound
            checked += 1
        assert checked > 50

    def test_ratio_screen_holds_on_its_domain(self):
        # the sum d_j/a_{j+dim} never exceeds the cap once amplitude >= 0
        # and every delta >= 1 (proof in necessary_screen's docstring)
        rng = random.Random(47)
        checked = 0
        for _ in range(5000):
            c = random_screen_candidate(rng, big_share=0.05)
            if c.amplitude >= 0 and min(deltas(c)) >= 1:
                assert degree_ratio_screen(c)[0], c.text()
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("text", [
        "1,1,1,1,1 / 5", "1,1,1,1,1,1,1,1 / 2,2,2,3"])
    def test_ratio_screen_equality_cases(self, text):
        c = parse_candidate(text)
        total = sum(Fraction(d, a)
                    for d, a in zip(c.degrees, c.weights[c.dim + 1:]))
        assert total == c.codim + c.amplitude + c.dim + 1
        assert degree_ratio_screen(c)[0]

    def test_ratio_screen_guards(self):
        with pytest.raises(InvalidCandidate):
            degree_ratio_screen(parse_candidate("1,1,1,1,1 / 4"))  # amplitude -1
        with pytest.raises(InvalidCandidate):
            degree_ratio_screen(parse_candidate("1,1,1,1,7 / 9"))  # delta < 1


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

    def test_report_serializes(self):
        report = necessary_screen(parse_candidate("1,1,1,2,5 / 10"))
        data = report.to_dict()
        assert data["alpha"] == 0
        assert all(ch["passed"] for ch in data["checks"])
