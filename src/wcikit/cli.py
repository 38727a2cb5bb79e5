"""Command line front end.

Subcommands: check (screen one candidate), series (print its Poincare
series), table (recover a presentation from a series file), classify
(run a full driver), selftest (check the amplitude 0 and -1 lists and
sample the +1 path).  Exit codes: 0 success, 1 a check or run reported
a failure, 2 unusable input or an --output path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from . import _jsonout
from .baskets import FormalBasket, Orbifold, k3
from .candidate import (
    MAX_ENTRIES,
    CandidateParseError,
    necessary_screen,
    parse_candidate,
)
from .classify import ClassificationRecord, RunConfig, classify, realize
from .series import (
    MAX_SERIES_BOUND,
    parse_series,
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
    source = args.file if args.file and args.file != "-" else None
    try:
        if source is None:
            raw = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as fh:
                raw = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {source or '<stdin>'}: not UTF-8 text ({exc})",
              file=sys.stderr)
        return 2
    try:
        series = parse_series(raw)
        rec = recover_weights_degrees(series, max_entries=MAX_ENTRIES)
    except ValueError as exc:  # a SeriesParseError, or c_0 other than 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if rec.capped:
        print(f"error: the series needs more than {MAX_ENTRIES} "
              f"weights and degrees", file=sys.stderr)
        return 2
    if args.format == "json":
        out = _jsonout.dumps({
            "weights": list(rec.weights),
            "degrees": list(rec.degrees),
            "residual_clean": rec.residual_clean,
        }) + "\n"
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
    config = RunConfig(alpha=args.alpha, codim=codim)
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


# sha256 of `wci classify --alpha A --format json` for the 13 amplitude
# 0 and 181 amplitude -1 families; tests/test_cli.py pins the same
# values.  The +1 list takes seconds, so selftest samples its path.
_LIST_DIGESTS = {
    0: "544ab2c791c1c8de87e1fc00ba286ba5bc415ffe04232eae15746da776393dcb",
    -1: "861c2e1c8b2ec2cfaf0ac4f77e6ffecb647568ab5977710df143550b22a31e64",
}


def _selftest_checks():
    """Yields (name, passed) pairs: the pinned lists and +1 golden samples."""
    import hashlib  # loads OpenSSL, which no other command needs

    for alpha, digest in _LIST_DIGESTS.items():
        out = classify(RunConfig(alpha=alpha)).to_json() + "\n"
        yield (f"amplitude {alpha:+d} list",
               hashlib.sha256(out.encode()).hexdigest() == digest)

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


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    lines = []
    for name, passed in _selftest_checks():
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
                            f"(at most {MAX_ENTRIES} of them)")
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
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("selftest",
                       help="check the amplitude 0 and -1 lists and +1 samples")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _OutputError as exc:
        print(f"error: cannot write --output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
