"""In-process tracer: spans around the public functions of each lieps layer.

The tracer lives in the benchmark, not in the program.  ``install`` replaces
each wrapped function by a timing wrapper in every ``lieps.*`` module that
holds the function object, because ``from .ybe import is_r_matrix``-style
imports make several aliases of one function; methods are replaced on their
class.  ``uninstall`` puts the originals back.

Spans are kept on a stack.  A span's self time is its duration minus the
time covered by its child spans.  Only aggregates are kept (calls and self
time per function, plus the derived counters below), so memory stays flat
however many spans a pass opens.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

# layer -> wrapped public functions; "Class.method" names a method
TARGETS = {
    "cli": ("run_cli", "parse_bivector_expr"),
    "catalog": ("parse", "realize"),
    "liecore": ("make_isotropy", "validate", "bracket", "ad_matrix"),
    "exact": ("rref", "kernel", "solve", "inverse", "Mat.__matmul__", "dot"),
    "invariants": ("invariant_bivectors", "fixed_quotient_covectors"),
    "ybe": ("canonical_lift", "hcirc_bracket", "yang_baxter_tensor"),
    "foliation": ("leaf_algebra", "leaf_cocycle", "leaf_decomposition"),
    "connections": ("l_operator", "mstar_bracket", "build_connection", "torsion",
                    "curvature", "poisson_compat"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)

_TENSOR = "ybe.yang_baxter_tensor"


def _lieps_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lieps" or name.startswith("lieps."))]


def _max_bits(mat) -> int:
    best = 0
    for row in mat.entries:
        for x in row:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.rref_max_cells = 0
        self.rref_max_bits = 0
        self.tensor_bivectors = set()  # (job number, sharp matrix entries)
        self.ad_in_tensor = 0
        self.job = 0
        self._stack = []  # one [name, child_ns] frame per open span
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        pre = {
            "exact.rref": self._on_rref,
            _TENSOR: self._on_tensor,
            "liecore.ad_matrix": self._on_ad_matrix,
            "cli.run_cli": self._on_run_cli,
        }.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if pre is not None:
                pre(args)
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                calls[name] += 1
                self_ns[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return span

    def _on_rref(self, args):
        m = args[0]
        self.rref_max_cells = max(self.rref_max_cells, m.rows * m.cols)
        self.rref_max_bits = max(self.rref_max_bits, _max_bits(m))

    def _on_tensor(self, args):
        self.tensor_bivectors.add((self.job, args[0].r_mat.entries))

    def _on_ad_matrix(self, args):
        if any(frame[0] == _TENSOR for frame in self._stack):
            self.ad_in_tensor += 1

    def _on_run_cli(self, args):
        self.job += 1

    def exclude(self, seconds):
        """Keep ``seconds`` of work done by the benchmark out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += round(seconds * 1e9)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target in every lieps module; return names left unwrapped."""
        modules = _lieps_modules()
        originals = {}
        for layer, fns in TARGETS.items():
            mod = importlib.import_module(f"lieps.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, fn)
                originals[id(orig)] = name
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, orig))
        return self._leftover(modules, originals)

    @staticmethod
    def _leftover(modules, originals):
        """Targets still reachable unwrapped from module globals or containers."""
        found = set()
        for m in modules:
            for value in vars(m).values():
                items = [value]
                if isinstance(value, dict):
                    items += list(value.values())
                elif isinstance(value, (list, tuple, set, frozenset)):
                    items += list(value)
                for item in items:
                    if id(item) in originals:
                        found.add(originals[id(item)])
        return sorted(found)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-pass calls and self time per span, plus the derived counters."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_ns[name] / passes / 1e9, "s")
        tensors = self.calls[_TENSOR]
        out["exact.rref.max_cells"] = (self.rref_max_cells, "count")
        out["exact.rref.max_bits"] = (self.rref_max_bits, "bits")
        out["ybe.yang_baxter_tensor.per_bivector"] = (
            tensors / len(self.tensor_bivectors) if tensors else 0.0, "ratio")
        out["liecore.ad_matrix.per_tensor"] = (
            self.ad_in_tensor / tensors if tensors else 0.0, "ratio")
        return out
