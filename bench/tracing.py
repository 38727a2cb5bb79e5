"""In-memory span tracer that wraps wcikit's public functions from outside.

Each traced function is replaced, in every wcikit module that binds it,
by a wrapper that records one span per call (function, parent span,
start, end) and adds to the function's call count, total time and self
time (total minus the time of wrapped calls inside it).  Modules are
imported by name and found in ``sys.modules``: the package attribute
``wcikit.classify`` is the function ``classify``, not the module.  A
name that no longer exists is reported as missing instead of failing
the run.  Nothing under ``src/`` is edited; ``uninstall`` restores
every binding.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# layer -> (module, functions); the module is where each function is defined.
LAYERS = {
    "classify": ("wcikit.classify",
                 ("iter_tuples", "tuple_chis", "candidate_formal_baskets", "realize")),
    "baskets": ("wcikit.baskets",
                ("descendants", "chi_m", "k3", "c2_load", "chi_int_sequence")),
    "series": ("wcikit.series",
               ("series_from_basket", "recover_weights_degrees",
                "series_from_candidate")),
    "candidate": ("wcikit.candidate",
                  ("parse_candidate", "normalize", "necessary_screen")),
    "cli": ("wcikit.cli", ("main",)),
}


def _count_results(tracer: Tracer, key: str, result) -> None:
    """Work counts read off a wrapped function's result."""
    if key == "classify.realize" and result is not None:
        tracer.counts["classify.realized"] += 1
    elif key == "baskets.descendants":
        tracer.counts["baskets.descendants.out"] += len(result)
    elif key == "baskets.chi_int_sequence":
        tracer.counts["baskets.chi_int_sequence.terms"] += len(result)
    elif key == "series.recover_weights_degrees" and result.residual_clean:
        tracer.counts["series.recover_weights_degrees.clean"] += 1
    elif key == "candidate.necessary_screen" and result.passed:
        tracer.counts["candidate.necessary_screen.passed"] += 1


class Tracer:
    """Spans kept in flat arrays; per-function totals kept as they close."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.phases: list[tuple[str, int]] = []
        self._stack: list[list] = []  # [span index, time of wrapped children]
        self._restore: list[tuple[object, str, object]] = []

    def phase(self, name: str) -> None:
        """Mark where a named phase (set-up, round) starts in the span list."""
        self.phases.append((name, len(self.span_fn)))

    def _open(self, fid: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.span_fn), 0.0])
        self.span_fn.append(fid)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())

    def _close(self, fid: int) -> None:
        end = perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        self.total[fid] += dur
        self.self_time[fid] += dur - child

    def _wrap(self, fid: int, key: str, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                tracer.calls[fid] += 1
                it = fn(*args, **kwargs)
                while True:
                    tracer._open(fid)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(fid)
                        return
                    except BaseException:
                        tracer._close(fid)
                        raise
                    tracer._close(fid)
                    if key == "classify.iter_tuples":
                        tracer.counts["classify.tuples"] += 1
                    yield item
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            tracer.calls[fid] += 1
            tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(fid)
            _count_results(tracer, key, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed function under each name a wcikit module binds it to."""
        homes = {}
        for modname, _ in LAYERS.values():
            try:
                homes[modname] = importlib.import_module(modname)
            except ImportError:
                homes[modname] = None
        modules = [m for name, m in list(sys.modules.items())
                   if name == "wcikit" or name.startswith("wcikit.")]
        for layer, (modname, names) in LAYERS.items():
            home = homes[modname]
            for name in names:
                key = f"{layer}.{name}"
                fn = getattr(home, name, None) if home is not None else None
                if not callable(fn):
                    self.missing.append(key)
                    continue
                fid = len(self.keys)
                self.keys.append(key)
                self.calls.append(0)
                self.total.append(0.0)
                self.self_time.append(0.0)
                wrapper = self._wrap(fid, key, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-function calls, s and self_s, plus the derived counts and yields."""
        out: dict[str, float] = {}
        stats = dict(zip(self.keys, zip(self.calls, self.total, self.self_time)))
        for layer, (_, names) in LAYERS.items():
            for name in names:
                key = f"{layer}.{name}"
                calls, total, self_s = stats.get(key, (0, 0.0, 0.0))
                if layer == "cli":
                    out[f"{key}.self_s"] = self_s
                    continue
                out[f"{key}.calls"] = calls
                out[f"{key}.s"] = total
                out[f"{key}.self_s"] = self_s
        realize_calls = stats.get("classify.realize", (0,))[0]
        screens = stats.get("candidate.necessary_screen", (0,))[0]
        c = self.counts
        out["classify.tuples"] = c["classify.tuples"]
        out["classify.baskets"] = realize_calls
        out["classify.realized"] = c["classify.realized"]
        out["classify.realize.yield"] = (
            c["classify.realized"] / realize_calls if realize_calls else 0.0)
        out["baskets.descendants.out"] = c["baskets.descendants.out"]
        out["baskets.chi_int_sequence.terms"] = c["baskets.chi_int_sequence.terms"]
        out["series.recover_weights_degrees.clean"] = c[
            "series.recover_weights_degrees.clean"]
        out["candidate.necessary_screen.pass_yield"] = (
            c["candidate.necessary_screen.passed"] / screens if screens else 0.0)
        return out

    def write(self, path: str) -> None:
        """Spans as columns (function, parent span, start, end) plus phase marks."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.keys, "missing": self.missing,
                       "phases": self.phases,
                       "fn": self.span_fn.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, fh)
