"""Layer spans and counters for the traced benchmark run.

The tracer wraps hopfdual's public functions and methods from outside.  A
function is replaced in every hopfdual module namespace (and module-level
dict) that holds it, a method on its class; ``uninstall`` puts every original
back.  Spans (name, start, end, parent) are kept in memory and written once,
at the end of the pass.  Leaf calls made more than 10⁵ times per pass (ring
operations, ``LinearMap.apply``/``column``, ``AlgebraData.product``, Sweedler
expansions) are counted, not timed.

Self time is a span's duration minus the time its child spans cover.  Time
the tracer spends on its own bookkeeping (counting nonzeros of composed
matrices) is taken off the span clock.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

RING_CLASSES = (("IntegerRing", "Z"), ("RationalRing", "Q"),
                ("ModularRing", "Zn"))
RING_OPS = ("add", "sub", "mul", "neg", "inv")

# (module, attribute path, span name, metric group)
TIMED = [
    ("linalg", "LinearMap.compose", "linalg.compose", None),
    ("linalg", "kron", "linalg.kron", None),
    ("linalg", "invert_map", "linalg.invert_map", None),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form", None),
    ("linalg", "PreparedSolver.solve", "linalg.PreparedSolver.solve", None),
    ("linalg", "determinant", "linalg.determinant", None),
    ("hopf", "tensor_algebra", "hopf.tensor_algebra", None),
    ("hopf", "tensor_coalgebra", "hopf.tensor_coalgebra", None),
    ("hopf", "AlgebraData.opposite", "hopf.opposite", None),
    ("hopf", "AlgebraData.validate", "hopf.AlgebraData.validate", "hopf.validate"),
    ("hopf", "CoalgebraData.validate", "hopf.CoalgebraData.validate", "hopf.validate"),
    ("hopf", "BialgebraData.validate", "hopf.BialgebraData.validate", "hopf.validate"),
    ("hopf", "HopfData.validate", "hopf.HopfData.validate", "hopf.validate"),
    ("hopf", "validate_hopf", "hopf.validate_hopf", "hopf.validate"),
    ("hopf", "convolution_invert", "hopf.convolution_invert", None),
    ("hopf", "algebra_morphism_witness", "hopf.algebra_morphism_witness", None),
    ("hopf", "certify_algebra_iso", "hopf.certify_algebra_iso", None),
    ("actions", "validate_weak_action", "actions.validate_weak_action", None),
    ("actions", "ComoduleAlgebraData.validate",
     "actions.ComoduleAlgebraData.validate", None),
    ("actions", "coinvariants", "actions.coinvariants", None),
    ("crossed", "build_crossed_product", "crossed.build_crossed_product", None),
    ("crossed", "validate_cocycle", "crossed.validate_cocycle", None),
    ("crossed", "opposite_crossed", "crossed.opposite_crossed", None),
    ("crossed", "crossed_from_integral", "crossed.crossed_from_integral", None),
    ("crossed", "integral_from_crossed", "crossed.integral_from_crossed", None),
    ("smash", "right_smash", "smash.right_smash", None),
    ("smash", "op_smash", "smash.op_smash", None),
    ("smash", "hat_smash", "smash.hat_smash", None),
    ("smash", "op_hat_smash", "smash.op_hat_smash", None),
    ("smash", "left_smash", "smash.left_smash", None),
    ("smash", "_coordinate_smash", "smash._coordinate_smash", None),
    ("smash", "smash_compare", "smash.smash_compare", None),
    ("duality", "build_diagram", "duality.build_diagram", None),
    ("duality", "alpha_map", "duality.alpha_map", None),
    ("duality", "gamma_map", "duality.gamma_map", None),
    ("duality", "delta_map", "duality.delta_map", None),
    ("duality", "pi_map", "duality.pi_map", None),
    ("duality", "nu_map", "duality.nu_map", None),
    ("duality", "chi_map", "duality.chi_map", None),
    ("duality", "duality_iso", "duality.duality_iso", None),
    ("duality", "matrix_iso", "duality.matrix_iso", None),
    ("duality", "compat_check", "duality.compat_check", None),
    ("duality", "coaction_table", "duality.coaction_table", None),
    ("duality", "final_chain", "duality.final_chain", None),
    ("duality", "theorem_suite", "duality.theorem_suite", None),
    ("suites", "run_hopf_suite", "suites.hopf", None),
    ("suites", "run_crossed_suite", "suites.crossed", None),
    ("suites", "run_smash_suite", "suites.smash", None),
    ("suites", "run_duality_suite", "suites.duality", None),
    ("suites", "run_cleft_suite", "suites.cleft", None),
    ("suites", "run_opposite_suite", "suites.opposite", None),
]

# spans whose results are matrices: their entries and nonzeros are counted
FILLED = ("linalg.compose", "linalg.kron")

# (module, attribute path, counter)
COUNTED = [
    ("linalg", "LinearMap.apply", "linalg.apply.calls"),
    ("linalg", "LinearMap.column", "linalg.column.calls"),
    ("hopf", "AlgebraData.product", "hopf.product.calls"),
]
SWEEDLER = ("CoalgebraData.sweedler_basis", "CoalgebraData.sweedler")

MARK = "__perfbench_original__"


def hopfdual_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hopfdual"
                                  or name.startswith("hopfdual."))]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, outermost keys]
        self.counts = {}
        self.entries = 0
        self.nonzeros = 0
        self._stack = []
        self._open = {}          # span name or group -> open spans
        self._paused = 0.0
        self._patches = []       # (owner, key, original, how)
        self._groups = {name: group for _, _, name, group in TIMED if group}

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        keys = (name, self._groups[name]) if name in self._groups else (name,)
        outermost = tuple(key for key in keys if not self._open.get(key))
        for key in keys:
            self._open[key] = self._open.get(key, 0) + 1
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None,
                           self._stack[-1] if self._stack else -1, outermost])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        self._stack.pop()
        self._open[span[0]] -= 1
        if span[0] in self._groups:
            self._open[self._groups[span[0]]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count_fill(self, matrix) -> None:
        start = time.perf_counter()
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        self.entries += rows * cols
        self.nonzeros += rows * cols - sum(row.count(0) for row in matrix)
        self._paused += time.perf_counter() - start

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name):
        tracer = self
        fill = name in FILLED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if fill:
                tracer.count_fill(result.matrix)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _counted(self, fn, key):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _terms(self, fn):
        counts = self.counts
        counts.setdefault("hopf.sweedler_terms", 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["hopf.sweedler_terms"] += len(result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original, "class"))
        setattr(cls, attr, make(original))

    def _patch_function(self, original, wrapper):
        """Replace ``original`` wherever a hopfdual module binds it."""
        for module in hopfdual_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, original, "module"))
                    setattr(module, key, wrapper)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patches.append((value, dkey, original, "dict"))
                            value[dkey] = wrapper

    def _resolve(self, module_name, path):
        module = sys.modules[f"hopfdual.{module_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            return getattr(module, cls_name), attr
        return module, path

    def install(self) -> None:
        """Wrap every target; hopfdual must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        rings = sys.modules["hopfdual.rings"]
        for cls_name, short in RING_CLASSES:
            cls = getattr(rings, cls_name)
            key = f"rings.{short}.ops"
            for op in RING_OPS:
                if op in cls.__dict__:
                    self._patch_method(cls, op, lambda f, k=key: self._counted(f, k))
        for module_name, path, key in COUNTED:
            cls, attr = self._resolve(module_name, path)
            self._patch_method(cls, attr, lambda f, k=key: self._counted(f, k))
        for path in SWEEDLER:
            cls, attr = self._resolve("hopf", path)
            self._patch_method(cls, attr, self._terms)
        for module_name, path, name, _ in TIMED:
            owner, attr = self._resolve(module_name, path)
            if isinstance(owner, type):
                self._patch_method(owner, attr,
                                   lambda f, n=name: self._timed(f, n))
            else:
                original = getattr(owner, attr)
                self._patch_function(original, self._timed(original, name))

    def uninstall(self) -> None:
        """Put every original back, most recent patch first."""
        while self._patches:
            owner, key, original, how = self._patches.pop()
            if how == "dict":
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def aggregate(self):
        """Rows per span name and per group: calls, inclusive seconds ``s``
        (of spans not nested in another of the same name or group, so nesting
        is not counted twice) and self seconds ``self_s``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names, groups = {}, {}
        for n, (name, start, end, _, outermost) in enumerate(self.spans):
            rows = [(names, name)]
            if name in self._groups:
                rows.append((groups, self._groups[name]))
            for table, key in rows:
                row = table.setdefault(key, {"calls": 0, "s": 0.0,
                                             "self_s": 0.0})
                row["calls"] += 1
                row["self_s"] += end - start - child[n]
                if key in outermost:
                    row["s"] += end - start
        return names, groups

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: n for n, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": names,
                       "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7),
                                  s[3]] for s in self.spans]}, fh)
