"""Spans around dyadlab's layers, recorded from outside the package.

`Tracer.install()` wraps the functions and methods in `TARGETS`: class
attributes are replaced on the class, and a module-level function is
replaced in every loaded `dyadlab` module that binds it, because `harness`
and `cli` import `decompose` and friends by name.  Each call becomes a span
(name, start, end, parent) kept in memory in flat arrays; `write()` saves
them with the run id, and `layer_metrics()` derives the per-layer numbers
from a saved file: self time (a span's duration minus its child spans),
call counts and the counters the hooks keep.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (layer metric stem, module, attribute); several targets may share a stem
TARGETS = [
    ("core.cells", "dyadlab.core", "DyadicCube.cells"),
    ("core.rect_index", "dyadlab.core", "DyadicRectangle.index"),
    ("measures.lp_norm", "dyadlab.measures", "lp_norm"),
    ("measures.bmo_norm", "dyadlab.measures", "bmo_norm"),
    ("measures.lower_sf_check", "dyadlab.measures", "lower_sf_check"),
    ("measures.ainfty", "dyadlab.measures", "ainfty_characteristic"),
    ("measures.product_bmo", "dyadlab.measures", "_product_bmo"),
    ("measures.product_bmo", "dyadlab.measures", "sequence_product_bmo"),
    ("model_ops.apply", "dyadlab.model_ops", "ShiftOperator.apply"),
    ("model_ops.apply", "dyadlab.model_ops", "PartialParaproduct.apply"),
    ("model_ops.apply", "dyadlab.model_ops", "FullParaproduct.apply"),
    ("model_ops.form", "dyadlab.model_ops", "ShiftOperator.form"),
    ("model_ops.form", "dyadlab.model_ops", "PartialParaproduct.form"),
    ("model_ops.form", "dyadlab.model_ops", "FullParaproduct.form"),
    ("model_ops.axis_profile_bmo", "dyadlab.model_ops", "axis_profile_bmo"),
    ("model_ops.sparse_dominate", "dyadlab.model_ops", "sparse_dominate_paraproduct"),
    ("model_ops.build", "dyadlab.model_ops", "ShiftOperator.__init__"),
    ("model_ops.build", "dyadlab.model_ops", "PartialParaproduct.__init__"),
    ("model_ops.build", "dyadlab.model_ops", "FullParaproduct.__init__"),
    ("model_ops.to_json", "dyadlab.model_ops", "dmo_to_json"),
    ("model_ops.to_json", "dyadlab.model_ops", "ShiftOperator.to_payload"),
    ("model_ops.to_json", "dyadlab.model_ops", "PartialParaproduct.to_payload"),
    ("model_ops.to_json", "dyadlab.model_ops", "FullParaproduct.to_payload"),
    ("commutators.adapted_max", "dyadlab.commutators", "AdaptedMaximal.apply"),
    ("commutators.expansion", "dyadlab.commutators", "paraproduct_bifactor"),
    ("commutators.expansion", "dyadlab.commutators", "paraproduct_onefactor"),
    ("commutators.expansion", "dyadlab.commutators", "expand_bipar"),
    ("commutators.expansion", "dyadlab.commutators", "expand_onepar"),
    ("commutators.expansion", "dyadlab.commutators", "expand_none"),
    ("commutators.commutator_form", "dyadlab.commutators", "commutator_form_direct"),
    ("commutators.commutator_form", "dyadlab.commutators", "commutator_form_decomposed"),
    ("commutators.commutator_form", "dyadlab.commutators", "iterated_form_direct"),
    ("commutators.commutator_form", "dyadlab.commutators", "iterated_form_decomposed"),
    ("commutators.duality_check", "dyadlab.commutators", "coefficient_duality_check"),
    ("representation.from_kernel", "dyadlab.representation", "KernelTensor.from_kernel"),
    ("representation.decompose", "dyadlab.representation", "decompose"),
    ("representation.residual", "dyadlab.representation",
     "Decomposition.residual_on_haar_triples"),
    ("representation.export_full", "dyadlab.representation",
     "Decomposition.extracted_full_paraproducts"),
    ("representation.export_shift", "dyadlab.representation",
     "Decomposition.extracted_shift_families"),
    ("representation.export_partial", "dyadlab.representation",
     "Decomposition.extracted_partial_paraproducts"),
    ("representation.coeff_reports", "dyadlab.representation",
     "Decomposition.shift_coefficient_report"),
    ("representation.coeff_reports", "dyadlab.representation",
     "Decomposition.partial_symbol_report"),
    ("representation.axis_decomp", "dyadlab.representation", "AxisDecomposition.__init__"),
    ("kernels.eval", "dyadlab.kernels", "KernelSpec.__call__"),
    ("lower_bounds.partner", "dyadlab.lower_bounds", "find_nondegenerate_partner"),
    ("lower_bounds.gamma", "dyadlab.lower_bounds", "gamma_constant"),
    ("harness.report_add", "dyadlab.harness", "Report.add"),
]

# stems reported as self seconds (`<stem>.s`) and as call counts (`<stem>.calls`)
SELF_TIME = ["core.cells", "measures.lp_norm", "measures.bmo_norm", "measures.lower_sf_check",
             "measures.ainfty", "measures.product_bmo", "model_ops.apply", "model_ops.form",
             "model_ops.axis_profile_bmo", "model_ops.sparse_dominate", "model_ops.build",
             "model_ops.to_json", "commutators.adapted_max", "commutators.expansion",
             "commutators.commutator_form", "commutators.duality_check",
             "representation.from_kernel", "representation.decompose",
             "representation.residual", "representation.export_full",
             "representation.export_shift", "representation.export_partial",
             "representation.coeff_reports", "kernels.eval", "lower_bounds.partner",
             "lower_bounds.gamma"]
CALLS = ["core.cells", "core.rect_index", "measures.lp_norm", "model_ops.apply",
         "model_ops.form", "model_ops.build", "commutators.adapted_max",
         "representation.axis_decomp", "kernels.eval", "lower_bounds.partner"]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.stems: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.partner_keys: set = set()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- hooks that count work where it happens ---------------------------------
    def _partner_key(self, args, kwargs):
        c0 = args[2] if len(args) > 2 else kwargs.get("C0", 1.0)
        self.partner_keys.add((args[1], c0))

    def _report_row(self, args, kwargs, result):
        self.count("harness.rows")
        self.count("harness.rows_failed", int(not args[0].rows[-1].passed))

    # -- wrapping -----------------------------------------------------------------
    def _wrap(self, fn, label: str, stem: str, before=None, after=None):
        name_id = len(self.names)
        self.names.append(label)
        self.stems.append(stem)
        names, parents, stack = self.name, self.parent, self.stack
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import numpy as np

        def kernel_points(args, kwargs):
            self.count("kernels.eval.points", np.broadcast(*args[1:], *kwargs.values()).size)

        hooks = {"kernels.eval": (kernel_points, None),
                 "lower_bounds.partner": (self._partner_key, None),
                 "harness.report_add": (None, self._report_row)}
        for stem, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            before, after = hooks.get(stem, (None, None))
            label = f"{module_name.split('.')[-1]}.{attr}"
            owner, _, name = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[name]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, label, stem, before, after))
                else:
                    wrapped = self._wrap(raw, label, stem, before, after)
                setattr(cls, name, wrapped)
                continue
            original = getattr(module, name)
            wrapped = self._wrap(original, label, stem, before, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "dyadlab" or mod_name.startswith("dyadlab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def write(self, path: str) -> None:
        """Span columns as raw arrays after a one-line JSON header."""
        header = {"run_id": self.run_id, "names": self.names, "stems": self.stems,
                  "n": len(self.name), "counters": self.counters,
                  "partner_distinct": len(self.partner_keys)}
        with open(path, "wb") as fp:
            fp.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(fp)


def read_spans(path: str):
    with open(path, "rb") as fp:
        header = json.loads(fp.readline())
        n = header["n"]
        cols = [array("i"), array("i"), array("d"), array("d")]
        for col in cols:
            col.fromfile(fp, n)
    return header, cols


def layer_metrics(path: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a span file: {name: (value, unit)}."""
    header, (name, parent, start, end) = read_spans(path)
    stems = header["stems"]
    n = header["n"]
    dur = [end[i] - start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += dur[i]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(n):
        stem = stems[name[i]]
        self_s[stem] = self_s.get(stem, 0.0) + dur[i] - covered[i]
        calls[stem] = calls.get(stem, 0) + 1
    counters = header["counters"]
    out: dict[str, tuple[float, str]] = {}
    for stem in SELF_TIME:
        out[f"{stem}.s"] = (self_s.get(stem, 0.0), "s")
    for stem in CALLS:
        out[f"{stem}.calls"] = (calls.get(stem, 0), "count")
    out["kernels.eval.points"] = (counters.get("kernels.eval.points", 0), "count")
    builds = calls.get("model_ops.build", 0)
    out["model_ops.applies_per_build"] = (
        calls.get("model_ops.apply", 0) / builds if builds else 0.0, "ratio")
    partners = calls.get("lower_bounds.partner", 0)
    out["lower_bounds.partner.distinct_ratio"] = (
        header["partner_distinct"] / partners if partners else 0.0, "ratio")
    out["harness.rows"] = (counters.get("harness.rows", 0), "count")
    out["harness.rows_failed"] = (counters.get("harness.rows_failed", 0), "count")
    out["cli.out_bytes"] = (counters.get("cli.out_bytes", 0), "bytes")
    return out
