"""The traced layers: which library functions are wrapped, and the per-layer
metrics derived from the wrapped calls.

Every public module-level function of each layer module is wrapped at
every module binding (``solve_boundary`` is bound in ``solve``, ``nerves``,
``cells`` and ``slices``), plus the methods in ``METHODS``.  Each metric
names the workload on which it must be nonzero and the end-to-end metric
it should move.
"""

from __future__ import annotations

import inspect
import sys

from tracer import Tracer, rebind, wrap_method

LAYERS = (
    "chains", "simplex", "tensor", "solve", "cells",
    "slices", "nerves", "retract", "linalg", "serialize",
)

# (layer, class, attribute, traced name)
METHODS = (
    ("chains", "Chain", "make", "chain_make"),
    ("chains", "Chain", "__add__", "chain_add"),
    ("chains", "AdcMorphism", "__init__", "morphism_init"),
    ("chains", "AdcMorphism", "apply", "apply"),
    ("chains", "AdcMorphism", "after", "after"),
    ("chains", "AdcMorphism", "__eq__", "morphism_eq"),
    ("tensor", "Pushout", "induced", "induced"),
    ("nerves", "SimplicialSetTrunc", "act", "act"),
    ("nerves", "SimplicialSetTrunc", "simplices", "level"),
    ("nerves", "SimplicialSetTrunc", "counts", "counts"),
    ("nerves", "SimplicialSetTrunc", "identity_failures", "identity_failures"),
)

# Coarse calls that also keep a span; every other wrapped call is
# aggregated only, because the kernels run about a million times a run.
SPANS = frozenset({
    "retract.verify_suite", "retract.cylinder_to_cone", "retract.cylinder_attachment",
    "retract.wedge_projection", "retract.wedge_inclusion",
    "retract.wedge_projection_endo", "retract.partial_wedge_projection",
    "retract.slice_retract_data", "nerves.nerve", "nerves.hom_enumerate",
    "nerves.enumerate_morphisms", "nerves.identity_failures", "nerves.counts",
    "nerves.under_slice", "nerves.over_slice", "nerves.bisimplicial_comparison",
    "cells.enumerate_cells", "cells.lambda_of_nu", "slices.enumerate_slice_cells",
    "linalg.smith_normal_form", "tensor.pushout_complex", "tensor.induced",
    "serialize.complex_from_json", "serialize.complex_to_json", "serialize.dumps",
    "chains.check_morphism",
})

MAP_BUILDERS = (
    "cylinder_to_cone", "cylinder_attachment", "wedge_projection",
    "wedge_inclusion", "wedge_projection_endo", "partial_wedge_projection",
)

# name, unit, better, workload where it must be nonzero, what it should move
METRICS = (
    ("chains.chain_make.calls", "count", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("chains.chain_add.calls", "count", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("chains.morphism_init.calls", "count", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("chains.morphism_init.self_s", "s", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("chains.apply.calls", "count", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("chains.apply.self_s", "s", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("chains.after.calls", "count", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("chains.morphism_eq.calls", "count", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("chains.check_morphism.calls", "count", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("chains.self_s", "s", "lower", "theorem-a", "cold_s on theorem-a, then nerve"),
    ("simplex.c_of_map.calls", "count", "lower", "theorem-a", "cold_s and warm_s on theorem-a"),
    ("simplex.c_of_map.hit_ratio", "ratio", "higher", "theorem-a", "cold_s and warm_s on theorem-a"),
    ("simplex.cache_entries", "count", "lower", "theorem-a", "peak_rss_mib on every workload"),
    ("simplex.self_s", "s", "lower", "theorem-a", "cold_s and warm_s on theorem-a"),
    ("tensor.tensor_morphism.calls", "count", "lower", "theorem-a", "cold_s on theorem-a only"),
    ("tensor.pushout_complex.calls", "count", "lower", "theorem-a", "cold_s on theorem-a only"),
    ("tensor.induced.calls", "count", "lower", "theorem-a", "cold_s on theorem-a only"),
    ("tensor.induced.self_s", "s", "lower", "theorem-a", "cold_s on theorem-a only"),
    ("tensor.tensor_complex.hit_ratio", "ratio", "higher", "theorem-a", "cold_s on theorem-a only"),
    ("tensor.self_s", "s", "lower", "theorem-a", "cold_s on theorem-a only"),
    ("solve.calls", "count", "lower", "nerve", "cold_s on nerve; flat on census"),
    ("solve.distinct_targets", "count", "lower", "nerve", "cold_s on nerve; flat on census"),
    ("solve.reuse_ratio", "ratio", "lower", "nerve", "cold_s on nerve; flat on census"),
    ("solve.solutions", "count", "lower", "nerve", "cold_s on nerve; flat on census"),
    ("solve.incomplete_calls", "count", "lower", "census", "nothing; flags bounded solves"),
    ("solve.self_s", "s", "lower", "nerve", "cold_s on nerve; cold_s, peak_rss_mib flat on census"),
    ("nerves.act.calls", "count", "lower", "nerve", "cold_s and peak_rss_mib on nerve"),
    ("nerves.act.self_s", "s", "lower", "nerve", "cold_s and peak_rss_mib on nerve"),
    ("nerves.hom_enumerate.self_s", "s", "lower", "nerve", "cold_s on nerve"),
    ("nerves.identity_failures.self_s", "s", "lower", "nerve", "cold_s on nerve"),
    ("nerves.simplices", "count", "lower", "nerve", "cold_s and peak_rss_mib on nerve"),
    ("nerves.self_s", "s", "lower", "nerve", "cold_s and peak_rss_mib on nerve"),
    ("cells.enumerate_cells.calls", "count", "lower", "census", "cold_s on census"),
    ("cells.cells_found", "count", "lower", "census", "cold_s on census"),
    ("cells.compose.calls", "count", "lower", "census", "cold_s on census"),
    ("cells.self_s", "s", "lower", "census", "cold_s on census"),
    ("slices.enumerate_slice_cells.calls", "count", "lower", "census", "cold_s on census"),
    ("slices.self_s", "s", "lower", "census", "cold_s on census"),
    ("linalg.smith_normal_form.calls", "count", "lower", "census", "cold_s on census only"),
    ("linalg.matrix_entries", "count", "lower", "census", "cold_s on census only"),
    ("linalg.self_s", "s", "lower", "census", "cold_s on census only"),
    ("retract.map_builds", "count", "lower", "theorem-a", "cold_s on theorem-a only"),
    ("retract.verify_suite.calls", "count", "lower", "theorem-a", "cold_s on theorem-a only"),
    ("retract.self_s", "s", "lower", "theorem-a", "cold_s on theorem-a only"),
    ("serialize.bytes_out", "count", "lower", "census", "no end-to-end metric; guards CLI output"),
    ("serialize.self_s", "s", "lower", "census", "no end-to-end metric"),
    ("trace.overhead_ratio", "ratio", "lower", "all", "nothing; traced cold_s / untraced cold_s"),
)


def public_functions(module):
    """Public functions defined in ``module``, lru-cached ones included."""
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_") or not callable(value) or inspect.isclass(value):
            continue
        if getattr(inspect.unwrap(value), "__module__", None) == module.__name__:
            out[name] = value
    return out


class LayerTrace:
    """Wraps the layers of an imported ``steiner_lab`` and derives metrics."""

    def __init__(self, lab):
        self.lab = lab
        self.tracer = Tracer()
        self.caches = {
            "c_delta": lab.simplex.c_delta,
            "c_of_map": lab.simplex.c_of_map,
            "tensor_complex": lab.tensor.tensor_complex,
        }
        self.solve_keys = set()
        self.solutions = 0
        self.incomplete = 0
        self.levels = {}
        self.spaces = []  # keeps measured spaces alive so ids stay unique
        self.cells_found = 0
        self.matrix_entries = 0
        self.bytes_out = 0

    # -- observers ---------------------------------------------------------

    def _solved(self, key, result):
        self.solve_keys.add(key)
        self.solutions += len(result.chains)
        self.incomplete += not result.complete

    def _observe_boundary(self, args, kwargs, result):
        self._solved((args[0], args[1], args[2]), result)

    def _observe_augmentation(self, args, kwargs, result):
        self._solved((args[0], 0, args[1]), result)

    def _observe_level(self, args, kwargs, result):
        space, n = args
        key = (id(space), n)
        if key not in self.levels:
            self.levels[key] = len(result)
            self.spaces.append(space)

    def _observe_cells(self, args, kwargs, result):
        self.cells_found += len(result.cells)

    def _observe_snf(self, args, kwargs, result):
        rows, ncols = args
        self.matrix_entries += len(rows) * ncols

    def _observe_dumps(self, args, kwargs, result):
        self.bytes_out += len(result.encode())

    def install(self):
        observers = {
            "solve.solve_boundary": self._observe_boundary,
            "solve.solve_augmentation": self._observe_augmentation,
            "nerves.level": self._observe_level,
            "cells.enumerate_cells": self._observe_cells,
            "linalg.smith_normal_form": self._observe_snf,
            "serialize.dumps": self._observe_dumps,
        }
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "steiner_lab" or name.startswith("steiner_lab."))
        ]
        for layer in LAYERS:
            module = getattr(self.lab, layer)
            for fname, fn in public_functions(module).items():
                name = f"{layer}.{fname}"
                wrapped = self.tracer.wrap(name, fn, name in SPANS, observers.get(name))
                if not rebind(modules, fn, wrapped):
                    raise RuntimeError(f"no binding of {name} was replaced")
        for layer, cls_name, attr, short in METHODS:
            name = f"{layer}.{short}"
            cls = getattr(getattr(self.lab, layer), cls_name)
            wrap_method(self.tracer, cls, attr, name, name in SPANS, observers.get(name))

    # -- metrics -----------------------------------------------------------

    def _calls(self, name):
        return self.tracer.stats.get(name, (0, 0.0, 0.0))[0]

    def _self_s(self, name):
        return self.tracer.stats.get(name, (0, 0.0, 0.0))[2]

    def _hit_ratio(self, cache):
        info = self.caches[cache].cache_info()
        total = info.hits + info.misses
        return info.hits / total if total else 0.0

    def metrics(self):
        """Every per-layer metric except the overhead ratio."""
        calls, own = self._calls, self._self_s
        solve_calls = calls("solve.solve_boundary") + calls("solve.solve_augmentation")
        distinct = len(self.solve_keys)
        out = {
            "chains.chain_make.calls": calls("chains.chain_make"),
            "chains.chain_add.calls": calls("chains.chain_add"),
            "chains.morphism_init.calls": calls("chains.morphism_init"),
            "chains.morphism_init.self_s": own("chains.morphism_init"),
            "chains.apply.calls": calls("chains.apply"),
            "chains.apply.self_s": own("chains.apply"),
            "chains.after.calls": calls("chains.after"),
            "chains.morphism_eq.calls": calls("chains.morphism_eq"),
            "chains.check_morphism.calls": calls("chains.check_morphism"),
            "simplex.c_of_map.calls": calls("simplex.c_of_map"),
            "simplex.c_of_map.hit_ratio": self._hit_ratio("c_of_map"),
            "simplex.cache_entries": sum(
                self.caches[c].cache_info().currsize for c in ("c_delta", "c_of_map")
            ),
            "tensor.tensor_morphism.calls": calls("tensor.tensor_morphism"),
            "tensor.pushout_complex.calls": calls("tensor.pushout_complex"),
            "tensor.induced.calls": calls("tensor.induced"),
            "tensor.induced.self_s": own("tensor.induced"),
            "tensor.tensor_complex.hit_ratio": self._hit_ratio("tensor_complex"),
            "solve.calls": solve_calls,
            "solve.distinct_targets": distinct,
            "solve.reuse_ratio": 1 - distinct / solve_calls if solve_calls else 0.0,
            "solve.solutions": self.solutions,
            "solve.incomplete_calls": self.incomplete,
            "nerves.act.calls": calls("nerves.act"),
            "nerves.act.self_s": own("nerves.act"),
            # enumerate_morphisms is hom_enumerate's engine; together they
            # are the hom-enumeration's own time
            "nerves.hom_enumerate.self_s": own("nerves.hom_enumerate")
            + own("nerves.enumerate_morphisms"),
            "nerves.identity_failures.self_s": own("nerves.identity_failures"),
            "nerves.simplices": sum(self.levels.values()),
            "cells.enumerate_cells.calls": calls("cells.enumerate_cells"),
            "cells.cells_found": self.cells_found,
            "cells.compose.calls": calls("cells.compose"),
            "slices.enumerate_slice_cells.calls": calls("slices.enumerate_slice_cells"),
            "linalg.smith_normal_form.calls": calls("linalg.smith_normal_form"),
            "linalg.matrix_entries": self.matrix_entries,
            "retract.map_builds": sum(calls(f"retract.{b}") for b in MAP_BUILDERS),
            "retract.verify_suite.calls": calls("retract.verify_suite"),
            "serialize.bytes_out": self.bytes_out,
        }
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(
                s[2] for name, s in self.tracer.stats.items() if name.startswith(prefix)
            )
        return out

    def span_summary(self):
        """Spans in a compact form: names listed once, rows by index."""
        names = sorted({s[0] for s in self.tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "self_s"],
            "rows": [
                [index[n], round(a, 7), round(b, 7), p, round(o, 7)]
                for n, a, b, p, o in self.tracer.spans
            ],
            "aggregates": {
                n: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
                for n, s in sorted(self.tracer.stats.items())
                if s[0]
            },
        }


def unmet(metrics, workload):
    """Metrics mapped to ``workload`` that read zero: a missed rebinding."""
    return [
        name for name, _, _, mapped, _ in METRICS
        if mapped in (workload, "all") and name in metrics and not metrics[name]
    ]
