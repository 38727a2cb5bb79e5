"""Command line front end.

Subcommands: check (screen one candidate), series (print its Poincare
series), table (recover a presentation from a series file), classify
(run a full driver), selftest (quick internal consistency run).  Exit
codes: 0 success, 1 a check or run reported a failure, 2 unusable
input or an --output path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from .baskets import (
    FormalBasket,
    Orbifold,
    canonical,
    chi_m,
    high_index_count_bounds,
    initial_basket,
    initial_counts_from_chis,
    k3,
)
from .candidate import CandidateParseError, necessary_screen, parse_candidate
from .classify import ClassificationRecord, RunConfig, classify, realize
from .series import (
    MAX_SERIES_BOUND,
    MAX_TABLE_ENTRIES,
    parse_series,
    poincare_series,
    recover_weights_degrees,
    series_from_basket,
    series_from_candidate,
)


class _OutputError(Exception):
    """The --output path could not be written."""


def _emit(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OutputError(exc) from None
    else:
        sys.stdout.write(text)


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        cand = parse_candidate(args.candidate)
    except CandidateParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = necessary_screen(cand)
    if args.format == "json":
        out = report.to_json() + "\n"
    else:
        lines = [f"candidate: {cand}"]
        for chk in report.checks:
            status = "ok" if chk.passed else "FAIL"
            suffix = f"  [{chk.witness}]" if chk.witness is not None else ""
            lines.append(f"{status:4s} {chk.name}{suffix}")
        lines.append("pass" if report.passed else "fail")
        out = "\n".join(lines) + "\n"
    _emit(out, args.output)
    return 0 if report.passed else 1


def _cmd_series(args: argparse.Namespace) -> int:
    try:
        cand = parse_candidate(args.candidate)
    except CandidateParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.bound < 0:
        print("error: --bound must be nonnegative", file=sys.stderr)
        return 2
    if args.bound > MAX_SERIES_BOUND:
        print(f"error: --bound {args.bound} exceeds the ceiling of "
              f"{MAX_SERIES_BOUND} coefficients", file=sys.stderr)
        return 2
    series = series_from_candidate(cand, args.bound)
    _emit(series.text() + "\n", args.output)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.file and args.file != "-":
        try:
            with open(args.file, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        raw = sys.stdin.read()
    try:
        series = parse_series(raw)
        rec = recover_weights_degrees(series, max_entries=MAX_TABLE_ENTRIES)
    except ValueError as exc:  # a SeriesParseError, or c_0 other than 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if rec.capped:
        print(f"error: the series needs more than {MAX_TABLE_ENTRIES} "
              f"weights and degrees", file=sys.stderr)
        return 2
    if args.format == "json":
        out = json.dumps({
            "weights": list(rec.weights),
            "degrees": list(rec.degrees),
            "residual_clean": rec.residual_clean,
        }, indent=2) + "\n"
    else:
        w = ",".join(str(a) for a in rec.weights)
        d = ",".join(str(a) for a in rec.degrees)
        clean = "clean" if rec.residual_clean else "clean: false"
        out = f"weights: {w} / degrees: {d} / {clean}\n"
    _emit(out, args.output)
    return 0 if rec.residual_clean else 1


def _record_rows(records: list[ClassificationRecord]) -> list[list[str]]:
    rows = []
    for i, rec in enumerate(records, start=1):
        rows.append([str(i),
                     ",".join(str(d) for d in rec.candidate.degrees),
                     ",".join(str(a) for a in rec.candidate.weights)])
    return rows


def _cmd_classify(args: argparse.Namespace) -> int:
    codim = None
    if args.codim:
        try:
            codim = tuple(sorted({int(p) for p in args.codim.split(",")}))
        except ValueError:
            print(f"error: bad codimension list {args.codim!r}", file=sys.stderr)
            return 2
        if any(c < 1 for c in codim):
            print("error: codimensions must be positive", file=sys.stderr)
            return 2
    config = RunConfig(alpha=args.alpha, codim=codim, jobs=args.jobs)
    report = classify(config)
    if args.format == "json":
        out = report.to_json() + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["no", "degrees", "weights"])
        writer.writerows(_record_rows(report.records))
        out = buf.getvalue()
    else:
        lines = [f"# alpha {report.alpha:+d}  records {len(report.records)}  "
                 f"violations {len(report.exhaustiveness_violations)}",
                 "no\tdegrees\tweights"]
        lines += ["\t".join(row) for row in _record_rows(report.records)]
        for v in report.exhaustiveness_violations:
            lines.append(f"! {v}")
        out = "\n".join(lines) + "\n"
    _emit(out, args.output)
    return 1 if report.exhaustiveness_violations else 0


def _selftest_checks(seed: int):
    """Yields (name, passed) pairs; cheap golden and property samples."""
    quartic = parse_candidate("1,1,1,1,1 / 4")
    fb = FormalBasket((), 1, -5)
    yield "smooth quartic volume", k3(fb) == -4
    got = series_from_basket(fb, -1, 5)
    want = series_from_candidate(quartic, 5)
    yield "smooth quartic antiplurigenera", got.coeffs == want.coeffs

    inter = parse_candidate("1,1,1,1,1,1,1,1 / 2,2,2,3")
    s = series_from_candidate(inter, 6)
    fb = FormalBasket((), 1 - s[1], s[2])
    yield "smooth intersection chi chain", (fb.chi, fb.chi2) == (-7, 33)
    yield "smooth intersection volume", k3(fb) == 24
    got = series_from_basket(fb, 1, 6)
    yield "smooth intersection plurigenera", got.coeffs == s.coeffs

    rec = realize(FormalBasket((Orbifold(1, 2),), -3, 11), 1)
    yield "realize genus-2 cone family", (
        rec is not None
        and rec.candidate.weights == (1, 1, 1, 1, 2)
        and rec.candidate.degrees == (7,))
    rec = realize(FormalBasket((Orbifold(1, 2),), 1, -4), -1)
    yield "realize degree-5 del Pezzo cousin", (
        rec is not None
        and rec.candidate.weights == (1, 1, 1, 1, 2)
        and rec.candidate.degrees == (5,))

    rng = random.Random(seed)
    ok = True
    for _ in range(60):
        n_w = rng.randint(2, 8)
        weights = sorted(rng.randint(1, 10) for _ in range(n_w))
        n_d = rng.randint(1, 4)
        degrees = sorted(rng.choice([v for v in range(2, 31)
                                     if v not in weights])
                         for _ in range(n_d))
        top = 2 * max(weights + degrees)
        series = poincare_series(weights, degrees, top)
        got = recover_weights_degrees(series)
        if not (got.residual_clean and list(got.weights) == weights
                and list(got.degrees) == degrees):
            ok = False
            break
    yield "series round trip sample", ok

    ok = True
    for _ in range(60):
        size = rng.randint(0, 5)
        points = []
        for _ in range(size):
            r = rng.randint(2, 12)
            choices = [b for b in range(1, r // 2 + 1)
                       if Fraction(b, r).denominator == r]
            points.append(Orbifold(rng.choice(choices), r))
        basket = canonical(points)
        chi, chi2 = rng.randint(-10, 40), rng.randint(-10, 40)
        fb = FormalBasket(basket, chi, chi2)
        if chi_m(fb, 2) != chi2:
            ok = False
            break
        chis = {m: chi_m(fb, m) for m in range(2, 7)}
        counts = initial_counts_from_chis(chi, chis)
        b0 = initial_basket(basket)
        n12 = sum(1 for q in b0 if q.r == 2)
        n13 = sum(1 for q in b0 if q.r == 3)
        n14p = sum(1 for q in b0 if q.r >= 4)
        sigma5 = sum(1 for q in b0 if q.r >= 5)
        lo, hi = high_index_count_bounds(chi, chis)
        if (counts.n12, counts.n13, counts.n14_plus) != (n12, n13, n14p):
            ok = False
            break
        if counts.sigma != len(b0) or not lo <= sigma5 <= hi:
            ok = False
            break
    yield "basket count identities sample", ok


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    lines = []
    for name, passed in _selftest_checks(args.seed):
        lines.append(f"{'ok' if passed else 'FAIL':4s} {name}")
        failures += 0 if passed else 1
    lines.append(f"{'pass' if failures == 0 else 'fail'}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wci",
        description="Screen, analyze and classify weighted complete "
                    "intersection threefolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the necessary-condition screen")
    p.add_argument("candidate", help="'a0,...,an / d1,...,dc'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("series", help="print the Poincare series")
    p.add_argument("candidate", help="'a0,...,an / d1,...,dc'")
    p.add_argument("--bound", type=int, default=20,
                   help=f"largest exponent to print (at most {MAX_SERIES_BOUND})")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("table",
                       help="recover weights and degrees from a series "
                            f"(at most {MAX_TABLE_ENTRIES} of them)")
    p.add_argument("file", nargs="?", default=None,
                   help="series file ('m c_m' lines); defaults to stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("classify", help="run a classification driver")
    p.add_argument("--alpha", type=int, choices=(-1, 0, 1), required=True)
    p.add_argument("--codim", default=None, help="comma list, e.g. 4,5")
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default="text")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most the number of cores")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("selftest", help="quick internal consistency checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be positive", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _OutputError as exc:
        print(f"error: cannot write --output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
