"""Traced runs: spans around qergodic's layer functions, recorded from outside
the library.

`Tracer.install` replaces every module attribute of the loaded `qergodic.*`
modules that is one of the LAYER_FUNCTIONS (the defining module and every
module that imported it by name) with a wrapper that records a span: name,
start, end, parent span and the counts read off its arguments or result.
Spans are kept in memory per operation; `end_op` folds them into per-layer
sums, and the spans of the first operations are kept raw for the trace file.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from typing import Callable, Dict, List, Optional

RAW_OPS = 3  # operations whose spans are kept raw for the trace file


def _mc_counts(args, kwargs, out, fn):
    trials = inspect.signature(fn).bind(*args, **kwargs).arguments["trials"]
    return {"model.mc_trials": trials, "model.mc_survivors": out[0].trials_surviving}


# span name -> (defining module, attribute, counts read from (args, kwargs, result, original))
LAYER_FUNCTIONS: Dict[str, tuple] = {
    "model.validate": ("qergodic.model", "validate", None),
    "model.occupation_profile": ("qergodic.model", "occupation_profile", None),
    "model.monte_carlo_occupation": ("qergodic.model", "monte_carlo_occupation", _mc_counts),
    "structure.condense": (
        "qergodic.structure", "condense",
        lambda a, k, out, fn: {"structure.blocks": out.k, "structure.edges": len(out.sub_blocks)},
    ),
    "structure.aperiodic_lift": (
        "qergodic.structure", "aperiodic_lift", lambda a, k, out, fn: {"structure.lift_phases": out.N},
    ),
    "spectral.spectrum_set": (
        "qergodic.spectral", "spectrum_set",
        lambda a, k, out, fn: {"spectral.block_states": sum(len(b.v) for b in out.blocks)},
    ),
    "paths.enumerate_paths": ("qergodic.paths", "enumerate_paths", None),
    "paths.classify_path": ("qergodic.paths", "classify_path", None),
    "paths.maximal_paths": (
        "qergodic.paths", "maximal_paths", lambda a, k, out, fn: {"paths.dominant": len(out.maximal)},
    ),
    "limits.full_qed": ("qergodic.limits", "full_qed", None),
    "limits.check_assumptions": ("qergodic.limits", "check_assumptions", None),
    "limits.block_qed": ("qergodic.limits", "block_qed", None),
    "limits.state_qed": ("qergodic.limits", "state_qed", None),
    "limits.quasi_stationary_distribution": ("qergodic.limits", "quasi_stationary_distribution", None),
    "cli.main": ("qergodic.cli", "main", None),
    "cli.parse_document": ("qergodic.cli", "parse_document", None),
    "cli.emit_json": ("qergodic.cli", "emit_json", lambda a, k, out, fn: {"cli.out_bytes": len(out)}),
}

# per-layer time metric -> span names whose outermost spans it sums
BUSY_MS = {
    "paths.enumerate_ms": {"paths.enumerate_paths"},
    "paths.classify_ms": {"paths.classify_path"},
    "paths.maximal_ms": {"paths.maximal_paths"},
    "spectral.spectrum_set_ms": {"spectral.spectrum_set"},
    "structure.condense_ms": {"structure.condense"},
    "structure.lift_ms": {"structure.aperiodic_lift"},
    "limits.full_qed_ms": {"limits.full_qed"},
    "limits.certify_ms": {"limits.check_assumptions"},
    "limits.measure_ms": {"limits.block_qed", "limits.state_qed"},
    "limits.qsd_ms": {"limits.quasi_stationary_distribution"},
    "model.validate_ms": {"model.validate"},
    "model.profile_ms": {"model.occupation_profile"},
    "model.mc_ms": {"model.monte_carlo_occupation"},
    "cli.main_ms": {"cli.main"},
    "cli.parse_ms": {"cli.parse_document"},
    "cli.emit_ms": {"cli.emit_json"},
}
SELF_MS = {"limits.full_qed_self_ms": "limits.full_qed", "cli.main_self_ms": "cli.main"}
CALLS = {
    "paths.classified": "paths.classify_path",
    "spectral.spectrum_set_calls": "spectral.spectrum_set",
    "structure.condense_calls": "structure.condense",
    "model.profile_calls": "model.occupation_profile",
}
COUNTS = ("paths.dominant", "spectral.block_states", "structure.blocks", "structure.edges",
          "structure.lift_phases", "model.mc_trials", "cli.out_bytes")
RATIOS = {  # useful outcomes over attempts
    "paths.dominant_frac": ("paths.dominant", "paths.classified"),
    "model.mc_survival_frac": ("model.mc_survivors", "model.mc_trials"),
}


class Tracer:
    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: List[list] = []  # current operation: [name, start, end, parent index, counts]
        self._stack: List[int] = []
        self._patches = self._find_bindings()
        self.ops = 0
        self.sums: Dict[str, float] = defaultdict(float)
        self.self_ms: Dict[str, float] = defaultdict(float)  # per span name, for the trace file
        self.raw: List[dict] = []

    def _find_bindings(self):
        """(module, attribute, original, wrapper) for every binding of a layer
        function in the qergodic modules loaded now."""
        loaded = [m for name, m in sorted(sys.modules.items()) if name == "qergodic" or name.startswith("qergodic.")]
        patches = []
        for span, (mod_name, attr, counts) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue  # module not loaded by this workload, or function gone
            wrapper = self._wrap(span, original, counts)
            for mod in loaded:
                for name, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, name, original, wrapper))
        return patches

    def _wrap(self, span: str, fn: Callable, counts: Optional[Callable]):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [span, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, out, fn)
            return out

        return wrapper

    def install(self) -> None:
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._patches:
            setattr(mod, name, original)

    def end_op(self) -> None:
        """Fold the spans of one finished operation into the per-layer sums."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, counts in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
            for metric, counted in CALLS.items():
                if name == counted:
                    self.sums[metric] += 1
            for key, value in (counts or {}).items():
                self.sums[key] += value
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            self.self_ms[name] += (t1 - t0 - child_time[i]) * 1e3
            for metric, names in BUSY_MS.items():
                if name in names and not self._inside(parent, names):
                    self.sums[metric] += (t1 - t0) * 1e3
        if self.ops < RAW_OPS and spans:
            op_start = spans[0][1]
            self.raw.extend(
                {"op": self.ops, "name": s[0], "start_us": round((s[1] - op_start) * 1e6, 1),
                 "dur_us": round((s[2] - s[1]) * 1e6, 1), "parent": s[3], "counts": s[4]}
                for s in spans
            )
        self.ops += 1
        spans.clear()

    def _inside(self, parent: int, names) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics, each a mean per traced operation."""
        n = max(self.ops, 1)
        s = self.sums
        out = {m: s[m] / n for m in (*BUSY_MS, *CALLS, *COUNTS)}
        out.update({m: self.self_ms[span] / n for m, span in SELF_MS.items()})
        out.update({m: s[num] / s[den] if s[den] else 0.0 for m, (num, den) in RATIOS.items()})
        return out
