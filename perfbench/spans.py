"""Span tracing from outside the program: wrap public freqbin functions, then restore them.

`from .x import y` copies a function into every importing namespace (bell, cli,
binspace, the package root), so each binding is replaced, not just the
defining module's. Spans live in fixed-width in-memory columns up to SPAN_CAP;
per-function calls and self times are aggregated for every call, including
those past the cap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

TRACED = (
    "bessel.bessel_j", "bessel.truncation_order",
    "binspace.correlated_state", "binspace.apply_dispersion", "binspace.modulation_kernel",
    "binspace.apply_modulator", "binspace.parity_probabilities",
    "closedform.effective_drive", "closedform.ideal_probabilities", "closedform.apply_crosstalk",
    "bell.chsh_ideal", "bell.chsh_finite", "bell.optimize_symmetric", "bell.optimize_general",
    "counts.synthesize_histogram", "counts.emit_histogram", "counts.ingest_histogram",
    "counts.extract_counts", "counts.chsh_estimate",
    "cli.main",
)
SPAN_CAP = 100_000


class Tracer:
    """Span recorder; install() patches every freqbin binding, uninstall() restores them."""

    def __init__(self):
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.kernel_keys: set = set()
        self.modulator_bytes = 0
        self.optimize_evals = 0
        self.rows = {"emit": 0, "ingest": 0}
        self.bytes = {"emit": 0, "ingest": 0}
        self.task = -1
        self._stack: list[list] = []  # [span id, child seconds, function index]
        self._next_id = 0
        self._cols = {"id": array("q"), "fn": array("i"), "start": array("d"),
                      "end": array("d"), "parent": array("q"), "task": array("i")}
        self._patched: list[tuple] = []

    # -- patching ---------------------------------------------------------------
    def install(self) -> None:
        targets = {}
        for index, qualified in enumerate(TRACED):
            module_name, fn_name = qualified.split(".")
            original = getattr(sys.modules["freqbin." + module_name], fn_name)
            targets[id(original)] = (original, self._wrap(index, original))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "freqbin" or name.startswith("freqbin.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, index: int, fn):
        observe = _OBSERVERS.get(TRACED[index])
        clock = time.perf_counter
        stack = self._stack
        cols = self._cols

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                self.calls[index] += 1
                self.self_s[index] += elapsed - frame[1]
                if span_id < SPAN_CAP:
                    cols["id"].append(span_id)
                    cols["fn"].append(index)
                    cols["start"].append(start)
                    cols["end"].append(end)
                    cols["parent"].append(parent)
                    cols["task"].append(self.task)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- output -----------------------------------------------------------------
    @property
    def spans_recorded(self) -> int:
        return len(self._cols["id"])

    @property
    def spans_total(self) -> int:
        return self._next_id

    def write_spans(self, path) -> None:
        """Spans as columns; fn indexes `functions`, parent is a span id or -1."""
        payload = {"functions": list(TRACED), "cap": SPAN_CAP, "total_spans": self._next_id,
                   "columns": {k: v.tolist() for k, v in self._cols.items()}}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _observe_kernel(tracer, args, kwargs, result):
    setting = args[0] if args else kwargs["setting"]
    policy = args[1] if len(args) > 1 else kwargs.get("policy")
    tracer.kernel_keys.add((setting, policy))


def _observe_modulator(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    arm = args[1] if len(args) > 1 else kwargs["arm"]
    axis = 0 if arm == "A" else 1
    widened = result.amplitudes.shape[axis] - state.amplitudes.shape[axis]  # 2P unless clipped
    tracer.modulator_bytes += (widened + 1) * (state.amplitudes.nbytes + result.amplitudes.nbytes)


def _observe_chsh_ideal(tracer, args, kwargs, result):
    if any(frame[2] == _OPTIMIZE_GENERAL for frame in tracer._stack):
        tracer.optimize_evals += 1


def _observe_emit(tracer, args, kwargs, result):
    tracer.rows["emit"] += result.count("\n") - 1  # minus the header line
    tracer.bytes["emit"] += len(result.encode("utf-8"))


def _observe_ingest(tracer, args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    tracer.rows["ingest"] += sum(arr.size for arr in result.counts.values())
    tracer.bytes["ingest"] += source.tell() if hasattr(source, "tell") else len(source)


_OPTIMIZE_GENERAL = TRACED.index("bell.optimize_general")
_OBSERVERS = {
    "binspace.modulation_kernel": _observe_kernel,
    "binspace.apply_modulator": _observe_modulator,
    "bell.chsh_ideal": _observe_chsh_ideal,
    "counts.emit_histogram": _observe_emit,
    "counts.ingest_histogram": _observe_ingest,
}
