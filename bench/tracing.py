"""Span tracing around the layer functions of heckesat, from outside the program.

Each traced function is replaced by a wrapper in its defining module and
in every heckesat module that imported it by name; methods are replaced
on their class.  A call records one span (name, start, end, parent span,
job id) in flat arrays kept in memory; ``summary`` turns them into
calls, self time and the derived ratios once the run is over, and
``write`` saves them.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute path) of every traced function, grouped by layer.
TRACED = (
    ("laurent", "Laurent.__mul__"), ("laurent", "Laurent.eval_quad"),
    ("intmat", "hnf_padic"), ("intmat", "snf_type"), ("intmat", "det"),
    ("intmat", "mat_mul"),
    ("rootdata", "weyl_group"), ("rootdata", "build_group"),
    ("rootdata", "orbit"),
    ("satake", "hecke_polynomial"), ("satake", "is_weyl_invariant"),
    ("satake", "GroupAlgebraElement.__mul__"),
    ("satake", "evaluate_vanishing"), ("satake", "specialize"),
    ("padic", "convolve_double"), ("padic", "PCoset.from_matrix"),
    ("padic", "decompose_double_coset"), ("padic", "satake_numeric"),
    ("corresp", "compose"), ("corresp", "act"), ("corresp", "vanishing_test"),
    ("elliptic", "FieldExt.__init__"), ("elliptic", "FieldExt.mul"),
    ("elliptic", "FieldExt.inv"), ("elliptic", "add_points"),
    ("elliptic", "count_points"),
    ("elliptic", "verify_frobenius_annihilation"),
)

# Calls whose distinct inputs are tracked, keyed from the call arguments.
INPUT_KEYS = {
    "satake.hecke_polynomial": lambda a: (a[0].name, tuple(a[1])),
    "elliptic.FieldExt.__init__": lambda a: (a[1], a[2]),
    "elliptic.count_points": lambda a: (a[0], a[1] if len(a) > 1 else 1),
}

# Result sizes summed per function.
RESULT_SIZES = {
    "rootdata.weyl_group": lambda r: len(r.elements),
    "padic.decompose_double_coset": len,
    "padic.convolve_double": lambda r: len(r.terms),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.job = -1
        self.inputs = {name: set() for name in INPUT_KEYS}
        self.sizes = {name: 0 for name in RESULT_SIZES}

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        key = INPUT_KEYS.get(name)
        size = RESULT_SIZES.get(name)
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if key is not None:
                self.inputs[name].add(key(args))
            if size is not None:
                self.sizes[name] += size(result)
            return result

        return traced

    def install(self):
        """Replace every traced function by its wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "heckesat" or n.startswith("heckesat.")]
        for mod_name, path in TRACED:
            mod = sys.modules[f"heckesat.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, attr, wrapper)

    def _nested(self, child, ancestor):
        """Calls of ``child`` with a call of ``ancestor`` on their stack."""
        cid, aid = self.names.index(child), self.names.index(ancestor)
        names, parents = self.span_name, self.span_parent
        count = 0
        for i in range(len(names)):
            if names[i] != cid:
                continue
            j = parents[i]
            while j >= 0 and names[j] != aid:
                j = parents[j]
            count += j >= 0
        return count

    def summary(self):
        """Per-function calls, self and total time, plus derived metrics."""
        n = len(self.names)
        calls, total, child = [0] * n, [0.0] * n, [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            d = ends[i] - starts[i]
            calls[names[i]] += 1
            total[names[i]] += d
            if parents[i] >= 0:
                child[names[parents[i]]] += d
        layers = {name: {"calls": calls[k], "self_s": total[k] - child[k],
                         "total_s": total[k]}
                  for k, name in enumerate(self.names)}

        def per(a, b):
            return a / b if b else 0.0

        def repeat(name):
            return per(layers[name]["calls"], len(self.inputs[name]))

        snf_calls = layers["intmat.snf_type"]["calls"]
        conv_products = self._nested("padic.PCoset.from_matrix",
                                     "padic.convolve_double")
        derived = {
            "intmat.det_per_snf": per(
                self._nested("intmat.det", "intmat.snf_type"), snf_calls),
            "rootdata.weyl_elements_built": self.sizes["rootdata.weyl_group"],
            "satake.hecke_polynomial.repeat_ratio": repeat(
                "satake.hecke_polynomial"),
            "padic.coset_products": conv_products,
            "padic.products_per_result_type": per(
                conv_products, self.sizes["padic.convolve_double"]),
            "padic.decompose_double_coset.cosets": self.sizes[
                "padic.decompose_double_coset"],
            "padic.enum_accept_ratio": per(
                self.sizes["padic.decompose_double_coset"],
                self._nested("intmat.snf_type", "padic.decompose_double_coset")),
            "elliptic.field_builds_per_distinct_pk": repeat(
                "elliptic.FieldExt.__init__"),
            "elliptic.count_repeat_ratio": repeat("elliptic.count_points"),
        }
        return layers, derived

    def write(self, stem):
        """Save the spans: ``stem.json`` names the arrays in ``stem.spans``."""
        arrays = (self.span_name, self.span_parent, self.span_job,
                  self.span_start, self.span_end)
        with open(f"{stem}.spans", "wb") as fh:
            for a in arrays:
                a.tofile(fh)
        with open(f"{stem}.json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_name),
                       "layout": ["name:i32", "parent:i32", "job:i32",
                                  "start:f64", "end:f64"]}, fh)
