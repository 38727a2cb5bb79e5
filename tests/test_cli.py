import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import wcikit
from wcikit import cli, poincare_series
from wcikit.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_passing_candidate(self, capsys):
        code, out, _ = run(capsys, "check", "1,1,1,2,5 / 10")
        assert code == 0
        assert out.splitlines()[-1] == "pass"
        assert "ok   not_linear_cone" in out

    def test_failing_candidate(self, capsys):
        code, out, _ = run(capsys, "check", "1,1,1,5 / 4")
        assert code == 1
        assert out.splitlines()[-1] == "fail"
        assert "FAIL" in out

    def test_both_gcd_witnesses(self, capsys):
        # each gcd screen prints its own first failing divisor
        code, out, _ = run(capsys, "check", "2,2,2,3,3 / 12")
        assert code == 1
        lines = out.splitlines()
        assert ("FAIL isolated_gcd_counts  "
                "[3 weights share divisor 2, at most 2 allowed]") in lines
        assert ("FAIL terminal_gcd_counts  [divisor 3: 1 of 2 required "
                "degrees divisible, no escape weight]") in lines
        assert lines[-1] == "fail"

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "check", "junk")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_entry_cap(self, capsys):
        # the screens are quadratic in the entries: 8,000 would take
        # seconds, so more than 100 exit 2 before any screen runs
        ones = ",".join(["1"] * 99)
        code, out, _ = run(capsys, "check", ones + " / 2")  # 100 entries
        assert code == 0 and out.splitlines()[-1] == "pass"
        for n in (101, 8000):
            start = time.perf_counter()
            code, out, err = run(capsys, "check",
                                 ",".join(["1"] * (n - 1)) + " / 2")
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err == "error: more than 100 weights and degrees\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "1,1,1,2,5 / 10",
                           "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["passed"] is True
        assert any(c["name"] == "degree_ratio_bound" for c in blob["checks"])

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, "check", "1,1,1,1,1 / 4",
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[-1] == "pass"


class TestSeries:
    def test_quintic(self, capsys):
        code, out, _ = run(capsys, "series", "1,1,1,1,1 / 5", "--bound", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0 1"
        assert lines[-1] == "5 125"

    def test_intersection(self, capsys):
        code, out, _ = run(capsys, "series", "1,1,1,1,1,1,1,1 / 2,2,2,3",
                           "--bound", "2")
        assert code == 0
        assert out.splitlines()[-1] == "2 33"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "series", "1,1 /")
        assert code == 2 and err.startswith("error:")

    def test_negative_bound(self, capsys):
        code, _, err = run(capsys, "series", "1,1,1,1,1 / 5", "--bound", "-1")
        assert code == 2 and "--bound" in err

    def test_huge_bound_fails_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "series", "1,1,1,1,1 / 5",
                                 "--bound", "1000000000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--bound" in err
        assert peak < 1_000_000


class TestTable:
    def _feed(self, monkeypatch, text: str) -> None:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_recovers_from_stdin(self, capsys, monkeypatch):
        series = poincare_series((1, 1, 2, 2, 3, 3), (6, 6), 12)
        self._feed(monkeypatch, series.text() + "\n")
        code, out, _ = run(capsys, "table")
        assert code == 0
        assert out == "weights: 1,1,2,2,3,3 / degrees: 6,6 / clean\n"

    def test_recovers_from_file(self, capsys, tmp_path):
        series = poincare_series((1, 1, 1, 1, 1), (5,), 10)
        src = tmp_path / "series.txt"
        src.write_text(series.text() + "\n")
        code, out, _ = run(capsys, "table", str(src))
        assert code == 0
        assert out == "weights: 1,1,1,1,1 / degrees: 5 / clean\n"

    def test_truncated_series_is_flagged(self, capsys, monkeypatch):
        self._feed(monkeypatch, "0 1\n1 3\n")
        code, out, _ = run(capsys, "table")
        assert code == 1
        assert "clean: false" in out

    def test_junk_input(self, capsys, monkeypatch):
        self._feed(monkeypatch, "0 1\nx y\n")
        code, _, err = run(capsys, "table")
        assert code == 2 and err.startswith("error:")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", str(tmp_path / "absent.txt"))
        assert code == 2 and err.startswith("error:")

    def test_file_not_utf8(self, capsys, tmp_path):
        src = tmp_path / "series.txt"
        src.write_bytes(b"\xff\xfe0 1\n")
        code, out, err = run(capsys, "table", str(src))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert str(src) in err and "not UTF-8" in err

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"\xff\xfe0 1\n"), encoding="utf-8"))
        code, out, err = run(capsys, "table")
        assert code == 2 and out == ""
        assert err.startswith("error: <stdin>: not UTF-8")
        assert "Traceback" not in err

    def test_entry_cap_fails_fast(self, capsys, monkeypatch):
        # one coefficient of 10^8 would record 10^8 weights
        self._feed(monkeypatch, "0 1\n1 100000000\n2 0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "table")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and "100 weights and degrees" in err

    def test_constant_coefficient_must_be_one(self, capsys, monkeypatch):
        self._feed(monkeypatch, "0 2\n1 3\n")
        code, out, err = run(capsys, "table")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_json(self, capsys, monkeypatch):
        series = poincare_series((1, 1, 1, 1, 2), (6,), 12)
        self._feed(monkeypatch, series.text())
        code, out, _ = run(capsys, "table", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob == {"weights": [1, 1, 1, 1, 2], "degrees": [6],
                        "residual_clean": True}


class TestClassify:
    def test_cy_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--alpha", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# alpha +0  records 13  violations 0"
        assert lines[1] == "no\tdegrees\tweights"
        assert len(lines) == 15
        assert lines[2] == "1\t5\t1,1,1,1,1"

    def test_cy_json_deterministic(self, capsys):
        code, first, _ = run(capsys, "classify", "--alpha", "0",
                             "--format", "json")
        assert code == 0
        blob = json.loads(first)
        assert len(blob["records"]) == 13
        code, second, _ = run(capsys, "classify", "--alpha", "0",
                              "--format", "json")
        assert code == 0 and second == first

    def test_cy_csv(self, capsys):
        code, out, _ = run(capsys, "classify", "--alpha", "0",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "no,degrees,weights"
        assert len(lines) == 14
        assert lines[1] == '1,5,"1,1,1,1,1"'

    def test_codim_filter_empty(self, capsys):
        code, out, _ = run(capsys, "classify", "--alpha", "-1",
                           "--codim", "4")
        assert code == 0
        assert out.splitlines()[0].startswith("# alpha -1  records 0")

    def test_bad_codim_list(self, capsys):
        code, _, err = run(capsys, "classify", "--alpha", "0",
                           "--codim", "4,x")
        assert code == 2 and err.startswith("error:")

    def test_nonpositive_codim(self, capsys):
        code, _, err = run(capsys, "classify", "--alpha", "0", "--codim", "0")
        assert code == 2 and "positive" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "families.csv"
        code, out, _ = run(capsys, "classify", "--alpha", "0",
                           "--format", "csv", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "no,degrees,weights"


class TestOutputPath:
    """An --output path that cannot be written exits 2 with a message."""

    @pytest.mark.parametrize("argv", [
        ("check", "1,1,1,1,1 / 5"),
        ("series", "1,1,1,1,1 / 5"),
        ("table", "SERIES"),
        ("classify", "--alpha", "0"),
        ("selftest",),
    ], ids=["check", "series", "table", "classify", "selftest"])
    def test_missing_directory(self, capsys, tmp_path, argv):
        src = tmp_path / "series.txt"
        src.write_text(poincare_series((1, 1, 1, 1, 1), (5,), 10).text())
        target = tmp_path / "missing" / "out"
        argv = [str(src) if a == "SERIES" else a for a in argv]
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--output" in err
        assert str(target) in err and "Traceback" not in err
        assert not target.exists()


# sha256 of `wci classify --alpha A --format json`; a change to any
# record, statistic or violation has to update these in the open.
DIGESTS = {
    0: "544ab2c791c1c8de87e1fc00ba286ba5bc415ffe04232eae15746da776393dcb",
    -1: "861c2e1c8b2ec2cfaf0ac4f77e6ffecb647568ab5977710df143550b22a31e64",
    1: "70f831d28266de459fb64ede1c67ccffd23c1013023444dfcf69e06957ccbbed",
}


class TestByteIdentity:
    @pytest.mark.parametrize("alpha", [0, -1])
    def test_classify_json(self, capsys, alpha):
        code, out, _ = run(capsys, "classify", "--alpha", str(alpha),
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[alpha]

    def test_ample_canonical_json(self, gt_report):
        # the shared default +1 run, encoded as classify --format json
        # writes it
        out = gt_report[0].to_json() + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[1]


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "pass"
        assert all(line.startswith("ok") for line in lines[:-1])
        assert lines[:2] == ["ok   amplitude +0 list",
                             "ok   amplitude -1 list"]

    def test_wrong_digest_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._LIST_DIGESTS, -1, "0" * 64)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL amplitude -1 list" in lines
        assert "ok   amplitude +0 list" in lines
        assert lines[-1] == "fail"

    def test_digests_are_the_pinned_ones(self):
        assert cli._LIST_DIGESTS == {a: DIGESTS[a] for a in (0, -1)}

    def test_import_leaves_hashlib_unloaded(self):
        # hashlib loads OpenSSL; only selftest needs it.  No command
        # starts a process pool either.
        src = os.path.dirname(os.path.dirname(wcikit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, wcikit.cli; "
                "print(*(m in sys.modules for m in ("
                "'hashlib', 'multiprocessing', 'concurrent.futures')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "False False False\n"


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_alpha_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--alpha", "2"])
        assert exc.value.code == 2

    def test_selftest_has_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--bound", "300"), ("--full",),
                                       ("--jobs", "2")],
                             ids=["bound", "full", "jobs"])
    def test_classify_has_no_series_bound(self, capsys, flags):
        # every run reads each basket to its certified bound, in one
        # process
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--alpha", "-1", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
