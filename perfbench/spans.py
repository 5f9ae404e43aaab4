"""Span recording around the public functions of each eploop layer.

The tracer lives in the benchmark, not in the program: `Tracer.install`
replaces each listed function with a wrapper in every `eploop` module that
holds it, by name or as a value of a module-level dict (the engine table
`loops.ENGINES`). A function imported by name elsewhere would otherwise keep
calling the original and bypass the wrapper.

Spans stay in memory as (name index, start ns, end ns, parent span, request
id, error flag) and are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = {
    "walk": ("d_coefficients", "u_step", "walk_operator_closed", "control_operator"),
    "linalg": ("kron", "inverse4"),
    "spectrum": ("eigensystem",),
    "metrics": ("classify", "fidelity_pure"),
    "loops": ("evolve_full", "evolve_simplified", "bell_eigenstate", "schedule_from_phases",
              "min_case_fidelity", "optimize_schedule"),
    "tomo": ("simulate_counts", "reconstruct", "bootstrap_error"),
    "harness": ("disorder_run", "reproduce_figure", "report_dict", "dump_json", "write_text"),
    "cli": ("main", "build_parser"),
}
NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.enabled = False
        self.text_bytes = 0  # bytes handed to harness.write_text while enabled
        self.sites: dict[str, int] = {}

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            error = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, self.request, error)

        return traced

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def counted(path, text, *args, **kwargs):
            if self.enabled:
                self.text_bytes += len(text.encode("utf-8"))
            return fn(path, text, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every listed function at its definition and every import site."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "eploop" or name.startswith("eploop.")]
        for index, name in enumerate(NAMES):
            module, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"eploop.{module}"), fn_name)
            inner = self._count_bytes(original) if name == "harness.write_text" else original
            wrapper = self._wrap(index, inner)
            sites = 0
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        sites += 1
                    elif isinstance(value, dict) and attr != "__builtins__":
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper
                                sites += 1
            if sites == 0:
                raise RuntimeError(f"{name} not found in any eploop module")
            self.sites[name] = sites

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": NAMES, "sites": self.sites, "text_bytes": self.text_bytes,
                       "spans": self.spans}, fh, separators=(",", ":"))
