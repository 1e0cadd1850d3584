"""Outside-in layer trace: wrap energyrep's public functions with spans.

The tracer is installed from the benchmark's own launcher after
``energyrep.cli`` has been imported.  It replaces every binding of each
traced function -- the defining module's attribute, names imported into other
energyrep modules (``from .grid import inner_product``), and values of
module-level dicts such as ``suites.SUITES`` -- so that calls reach the
wrapper whichever name the caller uses.  Spans (name, start, end, parent,
size) stay in memory until ``summary`` derives per-layer figures from them.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (layer name, module, attribute path).  Several attributes may share a
# layer name; their spans are then counted together.
TRACED = (
    ("suites.spectrum", "energyrep.suites", "suite_spectrum"),
    ("suites.ladders", "energyrep.suites", "suite_ladders"),
    ("suites.seminorms", "energyrep.suites", "suite_seminorms"),
    ("suites.gauge", "energyrep.suites", "suite_gauge"),
    ("suites.fock", "energyrep.suites", "suite_fock"),
    ("suites.conformal", "energyrep.suites", "suite_conformal"),
    ("operators.eigendecomposition", "energyrep.operators",
     "DiscreteOperator.eigendecomposition"),
    ("operators.assemble_h", "energyrep.operators", "assemble_h"),
    ("operators.conjugated_operator", "energyrep.operators",
     "conjugated_operator"),
    ("operators.residuals", "energyrep.operators",
     "DiscreteOperator.symmetry_residual"),
    ("operators.residuals", "energyrep.operators",
     "SpectralDecomposition.eigen_residual"),
    ("operators.residuals", "energyrep.operators",
     "SpectralDecomposition.gram_residual"),
    ("seminorms.seminorm_p", "energyrep.seminorms", "seminorm_p"),
    ("seminorms.seminorm_prime", "energyrep.seminorms", "seminorm_prime"),
    ("seminorms.equivalence_probe", "energyrep.seminorms", "equivalence_probe"),
    ("grid.inner_product", "energyrep.grid", "inner_product"),
    ("grid.covariant_derivative", "energyrep.grid", "covariant_derivative"),
    ("grid.field_to_csv", "energyrep.grid", "field_to_csv"),
    ("su2.dexp_batch", "energyrep.su2", "dexp_batch"),
    ("su2.rotation_of", "energyrep.su2", "rotation_of"),
    ("gauge.gauge_from_algebra", "energyrep.gauge", "gauge_from_algebra"),
    ("gauge.log_derivative", "energyrep.gauge", "log_derivative"),
    ("gauge.v_action", "energyrep.gauge", "v_action"),
    ("gauge.regularity_check", "energyrep.gauge", "regularity_check"),
    ("gauge.cutoff_approximation", "energyrep.gauge", "cutoff_approximation"),
    ("fock.apply_u", "energyrep.fock", "apply_u"),
    ("fock.TruncatedFockVector.from_coherent", "energyrep.fock",
     "TruncatedFockVector.from_coherent"),
    ("fock.conformal_check", "energyrep.fock", "conformal_check"),
    ("hermite.build_ladders", "energyrep.hermite", "build_ladders"),
    ("hermite.commutation_bound_check", "energyrep.hermite",
     "commutation_bound_check"),
    ("hermite.expansion_matrix", "energyrep.hermite", "expansion_matrix"),
    ("sampling.random_one_form", "energyrep.sampling", "random_one_form"),
    ("sampling.random_gauge_field", "energyrep.sampling", "random_gauge_field"),
    ("report.write", "energyrep.report", "Report.write_json"),
    ("report.write", "energyrep.report", "write_csv"),
)


def _eig_size(args, kwargs):
    """Matrix dimension n of the operator being diagonalized."""
    return int(args[0].matrix.shape[0])


def _dexp_nodes(args, kwargs):
    """Number of 2x2 blocks in one dexp_batch call."""
    return int(getattr(args[0], "size", 0)) // 4


SIZES = {
    "operators.eigendecomposition": _eig_size,
    "su2.dexp_batch": _dexp_nodes,
}


class Tracer:
    """Records one span per traced call of one process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, size]
        self._stack = []
        self._undo = []

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        size_of = SIZES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else 0
            span = [name, clock(), 0.0, stack[-1] if stack else -1, size]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return functools.wraps(func)(traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, replacement):
        """Replace every binding of `original` in the energyrep modules."""
        found = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "energyrep"
                                   or modname.startswith("energyrep.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
                    found += 1
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, item))
                            value[key] = replacement
                            found += 1
        return found

    def install(self):
        for name, modname, path in TRACED:
            mod = sys.modules[modname]
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(mod, owner_path)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr,
                              classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(owner, attr, self._wrap(name, raw))
            else:
                original = getattr(mod, attr)
                if not self._rebind_everywhere(original,
                                               self._wrap(name, original)):
                    raise RuntimeError(f"no binding of {modname}.{attr}")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if type(owner) is dict:
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per layer: calls, inclusive seconds, self seconds, sizes.

        Self time is a span's duration less the durations of its direct
        child spans.  `size` and `size_cubed` sum the sizes and their cubes,
        `max_size` keeps the largest.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, size in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "size": 0, "size_cubed": 0, "max_size": 0})
        for i, (name, start, end, parent, size) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["size"] += size
            row["size_cubed"] += size ** 3
            row["max_size"] = max(row["max_size"], size)
        return dict(out)
