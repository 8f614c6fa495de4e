"""Outside-in span tracer for the exwave modules.

The tracer wraps named functions from the outside: every binding of the
function object in any loaded ``exwave`` module is replaced, so names that a
module imported by value (``harness.run``, ``cli.sweep``, ``solver.psi``, ...)
are caught as well as the defining module's own global.  Methods are wrapped
on their class.  Spans (name, start, end, parent) are kept in memory; self
time is a span's duration minus the durations of its direct children.

Nothing under ``src/`` is edited: ``install`` patches the loaded modules and
``restore`` puts every original binding back.  A listed function that does
not exist (renamed or removed by a refactor) is reported in ``absent`` and
yields no metrics.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer boundaries, as "<module>.<qualified name>".  Module names are relative
# to the exwave package; a qualified name with a dot is a method on a class.
TRACED = (
    "solver.run",
    "solver.step",
    "solver._laplacian",
    "solver._forcing",
    "solver.apply_boundary",
    "testfn.cutoff_estimate_sup_ratios",
    "testfn.phi_R_derivatives",
    "testfn.phi_R_radial_derivative",
    "testfn.laplacian_psi_phi_R",
    "testfn.bridge_derivatives",
    "testfn.bridge",
    "testfn.cutoff_value",
    "testfn.ScaledCutoff.phi_R",
    "testfn.psi",
    "quadrature.functional_IR",
    "quadrature.chain_check",
    "oracle.integrate_adaptive",
    "harness.sweep",
    "harness.report",
    "harness.fit_scaling",
    "harness.verify_cutoff_estimates",
    "config.sweep_spec_from_ini",
    "cli.cmd_sweep",
)


class Tracer:
    """Record spans around the calls into the traced exwave functions."""

    def __init__(self, names=TRACED, package: str = "exwave"):
        self.names = tuple(names)
        self.package = package
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self.absent: list[str] = []
        self.bindings: list[str] = []  # "<module>.<attr>" of every patched name
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> "Tracer":
        self.absent.clear()
        self.bindings.clear()
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None
            and (key == self.package or key.startswith(self.package + "."))
        ]
        for name in self.names:
            mod_name, _, qual = name.partition(".")
            home = sys.modules.get(f"{self.package}.{mod_name}")
            owner_name, _, attr = qual.rpartition(".")
            owner = home
            if owner_name:
                owner = getattr(home, owner_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, fn)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapped)
        return self

    def _patch(self, obj, attr: str, new) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)
        owner = f"{obj.__module__}.{obj.__qualname__}" if isinstance(obj, type) else obj.__name__
        self.bindings.append(f"{owner}.{attr}")

    def restore(self) -> None:
        for obj, attr, old in reversed(self._saved):
            setattr(obj, attr, old)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis -----------------------------------------------------------

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear spans while a span is open")
        self.spans.clear()

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds and self seconds; plus the
        seconds covered by top-level spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
            if name not in self.absent
        }
        top_ns = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += (end - start) * 1e-9
            rec["self_s"] += (end - start - child_ns[i]) * 1e-9
            if parent < 0:
                top_ns += end - start
        return {"functions": out, "top_level_s": top_ns * 1e-9}
