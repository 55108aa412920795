"""Span recorder that wraps afscreen's public functions from outside.

A traced function is wrapped by identity: every ``afscreen`` module
namespace that binds the function object gets the wrapper, so a call
is recorded whichever module it goes through (``pipeline`` calls
``detect_reference`` through its own ``from .qrs import`` binding, and
``qrs`` calls ``kernels.pt_decide`` through the module attribute).
Moving a call site to another module keeps it traced.

Each call leaves one span: name, start, end, parent span, the process
that ran it, the patient id it serves (taken from an argument carrying
``patient_id``, else inherited from the parent span) and any counts the
call's arguments or result give. Spans stay in memory. Pool workers
forked from a traced process inherit the wrappers; they append their
spans to ``spans-<pid>.jsonl`` in the spool directory each time a call
whose parent lives in another process returns, and ``collect`` merges
those files back. Times are ``time.perf_counter`` readings, which on
Linux share one monotonic clock across processes.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

# Modules whose public functions the traced run wraps. synth only builds
# inputs and stats serves evaluate, so neither is on a timed path.
TRACED_MODULES = ("record_io", "qrs", "kernels", "quality", "features",
                  "forest", "pipeline", "cli")
# Functions from other packages that afscreen binds and that are worth a
# span of their own: (module, name as bound there).
FOREIGN = (("qrs", "sosfiltfilt"),)


# Counts recorded at span end: name -> f(args, kwargs, result) -> dict.
COUNTS = {
    "record_io.parse_edf": lambda a, k, r: {"bytes": len(a[0])},
    "record_io.parse_wfdb": lambda a, k, r: {
        "bytes": len(a[0]) + len(a[1])},
    "record_io.parse_rr_csv": lambda a, k, r: {"bytes": len(a[0])},
    "kernels.pt_decide": lambda a, k, r: {"candidates": len(a[0])},
    "qrs.detect_reference": lambda a, k, r: {"peaks": len(r)},
    "qrs.detect_test": lambda a, k, r: {"peaks": len(r)},
    "quality.score_windows": lambda a, k, r: {
        "windows": len(r[1]),
        "included": sum(1 for q in r[1] if q.included)},
    "forest.predict_proba_many": lambda a, k, r: {"rows": len(r)},
    "forest.train": lambda a, k, r: {"trees": len(r.trees)},
    "pipeline.run_cohort": lambda a, k, r: {"ledger_rows": len(r[1].errors)},
}


def _patient_of(args, kwargs):
    pid = kwargs.get("patient_id")
    if isinstance(pid, str) and pid:
        return pid
    for x in args:
        if isinstance(x, list) and len(x) == 1:
            x = x[0]
        pid = getattr(x, "patient_id", None)
        if isinstance(pid, str) and pid:
            return pid
    return None


def public_functions(modules=TRACED_MODULES):
    """(span name, function) for each public function afscreen defines.

    A function counts for the module that defines it, under the name it
    has there, so ``pipeline.featurize`` is traced as
    ``features.featurize`` and ``kernels.pt_decide`` keeps its public
    name although its ``__name__`` is that of the loop form.
    """
    out = []
    for short in modules:
        mod = sys.modules[f"afscreen.{short}"]
        for name, val in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(val)
                    and val.__module__ == mod.__name__):
                out.append((f"{short}.{name}", val))
    for short, name in FOREIGN:
        out.append((f"{short}.{name}",
                    getattr(sys.modules[f"afscreen.{short}"], name)))
    return out


class Tracer:
    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spans: list[dict] = []
        self._pid = os.getpid()
        self._stack: list[tuple[str, str | None]] = []
        self._seq = 0
        self._saved: list[tuple[object, str, object]] = []
        self._forked_from: int | None = None

    # -- installation ---------------------------------------------------

    def install(self, targets, adapt=None) -> None:
        """Wrap each (name, function) in every namespace binding it.

        ``adapt`` maps a span name to a function applied on top of the
        recording wrapper (the benchmark uses it to capture the
        reference detector's peaks).
        """
        self.spool.mkdir(parents=True, exist_ok=True)
        adapt = adapt or {}
        wrappers = {}
        for name, fn in targets:
            wrapped = self._wrap(name, fn)
            if name in adapt:
                wrapped = adapt[name](wrapped)
            wrappers[id(fn)] = (fn, wrapped)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "afscreen"
                                         or n.startswith("afscreen."))]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                tracer._forked()
            parent, parent_patient = (tracer._stack[-1] if tracer._stack
                                      else (None, None))
            sid = f"{tracer._pid}:{tracer._seq}"
            tracer._seq += 1
            patient = _patient_of(args, kwargs) or parent_patient
            tracer._stack.append((sid, patient))
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                span = {"id": sid, "parent": parent, "name": name,
                        "start": t0, "end": t1, "pid": tracer._pid,
                        "patient": patient, "ok": ok}
                if ok and count is not None:
                    span["counts"] = count(args, kwargs, result)
                tracer.spans.append(span)
                if (tracer._forked_from is not None
                        and (parent is None
                             or not parent.startswith(f"{tracer._pid}:"))):
                    tracer._flush()

        return traced

    def _forked(self) -> None:
        # First traced call in a forked pool worker: the inherited spans
        # belong to the parent, which keeps its own copy.
        self._forked_from = self._pid
        self._pid = os.getpid()
        self._seq = 0
        self.spans = []

    def _flush(self) -> None:
        with open(self.spool / f"spans-{self._pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """Take all spans recorded so far, from this process and workers."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return spans
