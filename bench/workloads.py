"""The two workloads: input generation, one operation, and output checks.

Every workload draws its inputs from ``random.Random`` seeded with the
workload name and ``--seed``.  wcikit is reached through ``sys.modules``
at call time, so a traced run sees the wrapped functions and a fresh
import in each set-up is honoured.  Checks use only ``checks``, never
wcikit, and never a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import checks

# The named families: in the -1 list, and passing the screen.
NAMED = {
    -1: ["1,1,1,1,1,1,1 / 2,2,2"],
    1: ["1,1,1,1,1,1,1,1 / 2,2,2,3", "1,1,1,1,1,1,1,1,1 / 2,2,2,2,2"],
}
# Published families (Reid's hypersurfaces, Iano-Fletcher's lists, the
# smooth complete intersections) by amplitude; all pass the screen.
PUBLISHED = {
    -1: ["1,1,1,1,1 / 4", "1,1,1,1,2 / 5", "1,1,1,1,3 / 6", "1,1,1,2,2 / 6",
         "1,1,1,2,3 / 7", "1,1,1,2,4 / 8", "1,1,2,2,3 / 8", "1,1,1,3,4 / 9",
         "1,1,2,3,3 / 9", "1,1,1,3,5 / 10", "1,1,2,2,5 / 10", "1,1,2,3,4 / 10",
         "1,1,2,3,5 / 11", "1,1,1,4,6 / 12", "1,1,2,3,6 / 12", "1,5,6,22,33 / 66",
         "1,1,1,1,1,1 / 2,3"],
    0: ["1,1,1,1,1 / 5", "1,1,1,1,2 / 6", "1,1,1,1,4 / 8", "1,1,1,2,5 / 10",
        "1,1,1,1,1,1 / 3,3", "1,1,1,1,1,1 / 2,4", "1,1,1,1,1,2 / 3,4",
        "1,1,1,1,2,2 / 4,4", "1,1,1,1,1,1,1 / 2,2,3", "1,1,1,1,1,1,1,1 / 2,2,2,2"],
    1: ["1,1,1,1,1 / 6", "1,1,1,1,2 / 7", "1,1,1,1,1,1 / 3,4", "1,1,1,1,1,1 / 2,5",
        "1,1,1,1,1,1,1 / 2,3,3", "1,1,1,1,1,1,1 / 2,2,4"],
}
FANO_CODIM_COUNTS = {1: 95, 2: 85, 3: 1}

SCREEN_PER_STRATUM = 48          # random candidates per (codimension, amplitude)
SCREEN_LARGE = 30                # candidates with one weight in [1e5, 1e6]


FAILED = object()  # the output of an operation that raised


def wci(module: str):
    return sys.modules[f"wcikit.{module}"]


@dataclass
class Inputs:
    ops: list
    named: dict = field(default_factory=dict)  # op index -> named family text


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], Inputs]
    op: Callable[[Inputs, Any], Any]
    check: Callable[[Inputs, list], list[str]]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


# -- fano-list: `wci classify --alpha -1 --format json`, whole, in process --

FANO_ARGV = ("classify", "--alpha", "-1", "--format", "json")


def fano_setup(seed: int) -> Inputs:
    return Inputs(ops=[FANO_ARGV])


def fano_op(inputs: Inputs, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wci("cli").main(list(argv))
    return code, buf.getvalue()


def fano_check(inputs: Inputs, outputs: list) -> list[str]:
    errors = []
    for out in outputs:
        if out is FAILED:
            continue
        code, text = out
        report = json.loads(text)
        if code != 0:
            errors.append(f"wci classify exited {code}")
        if report["exhaustiveness_violations"]:
            errors.append(f"violations: {report['exhaustiveness_violations'][:3]}")
        codims = Counter(r["codim"] for r in report["records"])
        if dict(codims) != FANO_CODIM_COUNTS:
            errors.append(f"codimension split {dict(codims)}, "
                          f"published {FANO_CODIM_COUNTS}")
        found = {r["candidate"] for r in report["records"]}
        for text in NAMED[-1] + PUBLISHED[-1]:
            if text not in found:
                errors.append(f"published family {text} missing")
        for rec in report["records"]:
            errors.extend(checks.check_record(rec, -1))
    return errors


# -- screen: `wci check` traffic --

def _random_candidate(rng: random.Random, codim: int, alpha: int) -> str:
    """Sorted weights in 1..25 and degrees with the given codimension and amplitude.

    The degree excesses d_j - a_{j+3} form a random composition of
    a_0 + ... + a_3 + alpha into codim positive parts.
    """
    while True:
        weights = sorted(rng.randint(1, 25) for _ in range(codim + 4))
        total = sum(weights[:4]) + alpha
        if total >= codim:
            break
    cuts = sorted(rng.sample(range(1, total), codim - 1))
    excess = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    degrees = sorted(w + e for w, e in zip(weights[4:], excess))
    return "%s / %s" % (",".join(map(str, weights)), ",".join(map(str, degrees)))


def _large_candidate(rng: random.Random, step: int) -> str:
    """A hypersurface whose top weight sits on a geometric ladder in [1e5, 1e6].

    The ladder, with 1% seeded jitter, keeps the divisor scan's cost per
    rung the same for every seed.
    """
    top = int(1e5 * 10 ** (step / (SCREEN_LARGE - 1)) * rng.uniform(0.995, 1.005))
    small = sorted(rng.randint(1, 12) for _ in range(4))
    alpha = rng.choice((-1, 0, 1))
    weights = small + [top]
    return "%s / %d" % (",".join(map(str, weights)), sum(weights) + alpha)


def screen_setup(seed: int) -> Inputs:
    rng = _rng("screen", seed)
    ops = [_random_candidate(rng, codim, alpha)
           for codim in (1, 2, 3, 4) for alpha in (-1, 0, 1)
           for _ in range(SCREEN_PER_STRATUM)]
    ops += [_large_candidate(rng, step) for step in range(SCREEN_LARGE)]
    fixed = [text for texts in list(NAMED.values()) + list(PUBLISHED.values())
             for text in texts]
    rng.shuffle(ops)
    named = {len(ops) + i: text for i, text in enumerate(fixed)}
    return Inputs(ops=ops + fixed, named=named)


def screen_op(inputs: Inputs, text: str):
    candidate = wci("candidate")
    return candidate.necessary_screen(candidate.parse_candidate(text))


def screen_check(inputs: Inputs, outputs: list) -> list[str]:
    errors = []
    for i, (text, report) in enumerate(zip(inputs.ops, outputs)):
        if report is FAILED:
            continue
        errors.extend(checks.check_screen(text, report.to_dict()))
        if i in inputs.named and not report.passed:
            errors.append(f"published family {text} fails the screen: "
                          f"{report.failed_names()}")
    return errors


WORKLOADS = {
    "fano-list": Workload(fano_setup, fano_op, fano_check),
    "screen": Workload(screen_setup, screen_op, screen_check),
}
