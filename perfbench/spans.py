"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each function listed in ``LAYERS`` by a
wrapper that records a span (layer, start, end, parent span, item id).
The wrapper is bound under every name that held the function in a
loaded ``mixedprod`` module, because callers look functions up in
different places: ``complexes`` imports ``reduced_homology_ranks`` and
``_faces_by_dim`` by name, ``ideals.stanley_reisner_complex`` imports
``make_complex`` when called, and ``ideals`` and ``homology`` reach
``kernels`` by attribute.  A listed function that no longer exists is
reported as missing and its layer reads zero; it never fails the run.

Self time is a span's duration minus the durations of its direct
children.  Layer counters that need the arguments or the result
(generators expanded, matrix entries, cache hits, ...) are gathered
after the span has closed, so their cost shows as tracing overhead and
not as self time.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric prefix -> (module, function names); the functions of one entry
# share a layer.
LAYERS = {
    "cli.build_parser": ("cli", ["build_parser"]),
    "cli.main": ("cli", ["main"]),
    "sweep.run_sweep": ("sweep", ["run_sweep"]),
    "sweep.check_spec": ("sweep", ["check_spec"]),
    "products.closed_forms": ("products", [
        "qr_profile", "normalize", "spec_from_profile", "closed_form_dual",
        "closed_form_primary_decomposition", "is_unmixed_closed_form",
        "is_cm_closed_form", "is_scm_closed_form"]),
    "products.expand_generators": ("products", ["expand_generators"]),
    "products.facet_partition": ("products", ["facet_partition"]),
    "products.shelling_order": ("products", ["shelling_order"]),
    "ideals.alexander_dual": ("ideals", ["alexander_dual"]),
    "ideals.minimal_primes": ("ideals", ["minimal_primes"]),
    "ideals.stanley_reisner_complex": ("ideals", ["stanley_reisner_complex"]),
    "kernels.minimal_hitting_sets": ("kernels", ["minimal_hitting_sets"]),
    "complexes.make_complex": ("complexes", ["make_complex"]),
    "complexes.link": ("complexes", ["link"]),
    "complexes.skeleton": ("complexes", ["skeleton"]),
    "complexes.reisner_cm": ("complexes", ["reisner_cm"]),
    "complexes.duval_scm": ("complexes", ["duval_scm"]),
    "complexes.is_strongly_connected": ("complexes", ["is_strongly_connected"]),
    "complexes.verify_shelling_order": ("complexes", ["verify_shelling_order"]),
    "complexes.find_shelling": ("complexes", ["find_shelling"]),
    "homology.faces": ("homology", ["_faces_by_dim"]),
    "homology.boundary_matrix": ("homology", ["boundary_matrix"]),
    "homology.reduced_homology_ranks": ("homology", ["reduced_homology_ranks"]),
    "kernels.rank_int": ("kernels", ["rank_int"]),
}
NAMES = list(LAYERS)
INDEX = {name: i for i, name in enumerate(NAMES)}


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _count_generators(state, args, kwargs, result):
    return len(result.generators)


def _count_facets(state, args, kwargs, result):
    return sum(len(block) for block in result)


def _count_input_sets(state, args, kwargs, result):
    return len(_arg(args, kwargs, 0, "masks"))


def _count_faces(state, args, kwargs, result):
    return sum(len(faces) for faces in result.values())


def _count_matrix_entries(state, args, kwargs, result):
    return len(result.rows) * len(result.cols)


def _count_rank_entries(state, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    return len(rows) * len(rows[0]) if len(rows) else 0


def _count_inconclusive(state, args, kwargs, result):
    return result.status == "inconclusive"


def _count_repeat_dual(state, args, kwargs, result):
    ideal = _arg(args, kwargs, 0, "ideal")
    if ideal in state.dualised:
        return 1
    state.dualised.add(ideal)
    return 0


def _count_kept_facets(state, args, kwargs, result):
    state.extra["complexes.make_complex.input_facets"] = (
        state.extra.get("complexes.make_complex.input_facets", 0)
        + len(_arg(args, kwargs, 1, "facets")))
    return len(result.facets)


# metric name -> (layer, counter); the counter returns the amount to add.
COUNTERS = {
    "products.expand_generators.generators": ("products.expand_generators", _count_generators),
    "products.facet_partition.facets": ("products.facet_partition", _count_facets),
    "ideals.alexander_dual.repeats": ("ideals.alexander_dual", _count_repeat_dual),
    "kernels.minimal_hitting_sets.input_sets": ("kernels.minimal_hitting_sets", _count_input_sets),
    "complexes.make_complex.output_facets": ("complexes.make_complex", _count_kept_facets),
    "complexes.find_shelling.inconclusive": ("complexes.find_shelling", _count_inconclusive),
    "homology.faces.faces": ("homology.faces", _count_faces),
    "homology.boundary_matrix.entries": ("homology.boundary_matrix", _count_matrix_entries),
    "kernels.rank_int.entries": ("kernels.rank_int", _count_rank_entries),
}


def _modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mixedprod" or name.startswith("mixedprod."))]


class Tracer:
    """Spans of one process, kept in memory until ``result`` is called."""

    def __init__(self):
        self.layer = []     # per span: index into NAMES
        self.parent = []    # per span: parent span index, or -1
        self.item = []      # per span: id of the spec or call being run
        self.start = []
        self.end = []
        self.current = -1
        self.current_item = -1
        self.dualised = set()
        self.extra = {}
        self.missing = []
        self._patched = []

    def set_item(self, item):
        """Start a new spec or call; spans recorded from now on carry its id."""
        self.current_item = item
        self.dualised = set()

    def install(self):
        counters = {}
        for metric, (layer, fn) in COUNTERS.items():
            counters.setdefault(layer, []).append((metric, fn))
        modules = _modules()
        for name, (module_name, functions) in LAYERS.items():
            module = sys.modules.get("mixedprod." + module_name)
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self._wrap(INDEX[name], original, counters.get(name, []))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, index, fn, counters):
        state = self
        layer, parent, item = self.layer, self.parent, self.item
        starts, ends = self.start, self.end
        wants_list = index == INDEX["complexes.make_complex"]

        def wrapper(*args, **kwargs):
            if wants_list:
                # the input facet count needs a sized list, not a generator
                if len(args) > 1:
                    args = (args[0], list(args[1])) + args[2:]
                elif "facets" in kwargs:
                    kwargs["facets"] = list(kwargs["facets"])
            span = len(layer)
            layer.append(index)
            parent.append(state.current)
            item.append(state.current_item)
            starts.append(0.0)
            ends.append(0.0)
            outer = state.current
            state.current = span
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                state.current = outer
                starts[span] = t0
                ends[span] = t1
            for metric, count in counters:
                state.extra[metric] = state.extra.get(metric, 0) + count(state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def result(self):
        """Per-layer totals plus the raw spans of this process."""
        n = len(self.layer)
        child_time = [0.0] * n
        built_matrix = set()
        bm = INDEX["homology.boundary_matrix"]
        for span in range(n):
            p = self.parent[span]
            if p >= 0:
                child_time[p] += self.end[span] - self.start[span]
                if self.layer[span] == bm:
                    built_matrix.add(p)
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        rhr_hits = 0
        rhr = INDEX["homology.reduced_homology_ranks"]
        for span in range(n):
            k = self.layer[span]
            calls[k] += 1
            self_s[k] += self.end[span] - self.start[span] - child_time[span]
            if k == rhr and span not in built_matrix:
                rhr_hits += 1
        counts = dict(self.extra)
        counts["homology.reduced_homology_ranks.hits"] = rhr_hits
        spans = list(zip(self.layer, self.parent, self.item, self.start, self.end))
        return {"calls": calls, "self_s": self_s, "counts": counts,
                "missing": list(self.missing), "spans": spans}
