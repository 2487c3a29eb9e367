"""Outside-in layer tracing: wrap nhq's public functions from the benchmark.

Each traced name is wrapped at every ``nhq`` module namespace that binds it
(``weyl_mul`` is bound in ``repspace``, ``trace``, ``suites`` and the
package itself), and ``Tracer.uninstall`` puts the originals back.  Timed
wrappers keep a stack of open spans, so a span's self time is its wall
time minus the wall time of the wrapped calls made inside it.  Count-only
wrappers sit on the innermost loops and add no span.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# metric prefix -> (defining module, function); timed spans with calls and self_s
TIMED = {
    "necklace.necklace_bracket": ("nhq.necklace", "necklace_bracket"),
    "necklace.minimal_rotation_offset": ("nhq.necklace", "minimal_rotation_offset"),
    "necklace.double_bracket": ("nhq.necklace", "double_bracket"),
    "quiver.path_mul": ("nhq.quiver", "path_mul"),
    "schedler.straighten": ("nhq.schedler", "straighten"),
    "schedler.qpa_mul": ("nhq.schedler", "qpa_mul"),
    "schedler.ideal_generator": ("nhq.schedler", "ideal_generator"),
    "repspace.weyl_mul": ("nhq.repspace", "weyl_mul"),
    "repspace.tau": ("nhq.repspace", "tau"),
    "repspace.tau_kernel": ("nhq.repspace", "tau_kernel"),
    "repspace.rational_nullspace": ("nhq.repspace", "rational_nullspace"),
    "repspace.quantum_moment": ("nhq.repspace", "quantum_moment"),
    "trace.trace_quantum_config": ("nhq.trace", "trace_quantum_config"),
    "trace.trace_classical": ("nhq.trace", "trace_classical"),
    "trace.decompose_ideal_image": ("nhq.trace", "decompose_ideal_image"),
    "trace.kernel_constraint": ("nhq.trace", "kernel_constraint"),
    "cli.main": ("nhq.cli", "main"),
}

# metric prefix -> (module, name prefix); every public function of the module
# whose name starts with the prefix shares one span statistic
TIMED_GROUPS = {
    "expr.parse": ("nhq.expr", "parse_"),
    "expr.format": ("nhq.expr", "format_"),
}

# metric name -> (defining module, function); call counts only
COUNTED = {
    "necklace.canonical_necklace.calls": ("nhq.necklace", "canonical_necklace"),
    "trace.solve_chi.calls": ("nhq.trace", "solve_chi"),
}

# metric name -> (module, class, attributes); call counts of methods
COUNTED_METHODS = {
    "rings.hbar_mul.calls": ("nhq.rings", "HBarPolynomial", ("__mul__", "__rmul__")),
    "rings.hbar_add.calls": ("nhq.rings", "HBarPolynomial", ("__add__", "__radd__")),
    "linear.lc_init.calls": ("nhq.linear", "LinearCombination", ("__init__",)),
    "repspace.operator_tokens": ("nhq.repspace", "WeylElement", ("operator_token",)),
}


class Tracer:
    """Installs the wrappers, collects the statistics, restores the originals."""

    def __init__(self):
        self.spans = {}  # prefix -> [calls, self seconds]
        self.counts = {}  # metric -> count
        self._stack = [0.0]
        self._lift_depth = 0
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, stat):
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt

        return wrapper

    def _counted(self, fn, metric):
        counts = self.counts
        counts.setdefault(metric, 0)

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lift(self, fn):
        def wrapper(*args, **kwargs):
            self._lift_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._lift_depth -= 1

        return wrapper

    def _normal_form(self, fn):
        counts = self.counts
        counts["schedler.normal_forms"] = 0

        def wrapper(*args, **kwargs):
            if not self._lift_depth:
                counts["schedler.normal_forms"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, name, value):
        # read the raw attribute so that a classmethod is restored as one
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _rebind(self, original, wrapper, only=None):
        """Point every nhq namespace binding of ``original`` at ``wrapper``."""
        for modname, module in list(sys.modules.items()):
            if modname != "nhq" and not modname.startswith("nhq."):
                continue
            if only is not None and modname != only:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def install(self):
        # load every traced module first, so that each binding is found
        tables = (TIMED, TIMED_GROUPS, COUNTED, COUNTED_METHODS)
        for modname in sorted({entry[0] for table in tables for entry in table.values()}):
            importlib.import_module(modname)
        for prefix, (modname, fname) in TIMED.items():
            stat = self.spans.setdefault(prefix, [0, 0.0])
            original = getattr(importlib.import_module(modname), fname)
            self._rebind(original, self._timed(original, stat))
        for prefix, (modname, start) in TIMED_GROUPS.items():
            stat = self.spans.setdefault(prefix, [0, 0.0])
            module = importlib.import_module(modname)
            for fname, fn in list(vars(module).items()):
                if fname.startswith(start) and callable(fn) and getattr(fn, "__module__", None) == modname:
                    self._rebind(fn, self._timed(fn, stat))
        for metric, (modname, fname) in COUNTED.items():
            original = getattr(importlib.import_module(modname), fname)
            self._rebind(original, self._counted(original, metric))
        for metric, (modname, cname, attrs) in COUNTED_METHODS.items():
            cls = getattr(importlib.import_module(modname), cname)
            for attr in attrs:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._counted(raw.__func__, metric)))
                else:
                    self._set(cls, attr, self._counted(raw, metric))
        schedler = importlib.import_module("nhq.schedler")
        # one bracket_sign call per height swap, through schedler's own binding
        # only: necklace_bracket calls the same function through necklace's
        self._rebind(schedler.bracket_sign, self._counted(schedler.bracket_sign, "schedler.rewrites"),
                     only="nhq.schedler")
        # outside lift, each canonical_configuration call through schedler
        # closes one straightening that was computed rather than cached
        self._rebind(schedler.lift, self._lift(schedler.lift))
        self._rebind(schedler.canonical_configuration,
                     self._normal_form(schedler.canonical_configuration), only="nhq.schedler")

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def checkpoint(self):
        return {k: list(v) for k, v in self.spans.items()}, dict(self.counts)

    def rollback(self, mark) -> None:
        """Forget everything recorded since ``checkpoint``."""
        spans, counts = mark
        for k, v in spans.items():
            self.spans[k][:] = v
        self.counts.update(counts)

    def metrics(self) -> dict:
        out = {}
        for prefix, (calls, self_s) in self.spans.items():
            out[prefix + ".calls"] = calls
            out[prefix + ".self_s"] = self_s
        out.update(self.counts)
        return out
