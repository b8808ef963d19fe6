"""Per-layer tracing from outside the program.

`Tracer` wraps public functions of the `helly` modules and patches every
module or class attribute through which a caller resolves them (for example
`weak_modularity` is bound in `graphs`, `recognition` and `cli`).  Each
wrapped call pushes a frame; a layer's self time is its duration minus the
time of the wrapped calls made inside it.  Coarse calls also record a span
(id, parent id, request id, name, start, end) while `record` is set; hot
calls, made thousands of times per op, only update counters.  A target that no longer exists is listed
in `missing` and reports zeros.
"""

import importlib
import math
import time

# (metric prefix, module, attribute path, hot, reported fields); fields other
# than calls and self_s are counters taken from the call's arguments or result
CS = ("calls", "self_s")
TARGETS = [
    ("graphs.dist_row", "graphs", "Graph.dist_row", True, ("calls", "cold", "self_s")),
    ("graphs.ball_mask", "graphs", "Graph.ball_mask", True, CS),
    ("graphs.interval_mask", "graphs", "Graph.interval_mask", True, CS),
    ("graphs.weak_modularity", "graphs", "weak_modularity", False, ("self_s",)),
    ("graphs.Graph.from_json", "graphs", "Graph.from_json", False, ("self_s",)),
    ("recognition.is_one_helly", "recognition", "is_one_helly", False, CS),
    ("recognition.is_median", "recognition", "is_median", False, CS),
    ("recognition.dismantling_order", "recognition", "dismantling_order", False, CS),
    ("recognition.is_clique_helly_certified", "recognition", "is_clique_helly_certified",
     False, CS),
    ("recognition.is_helly", "recognition", "is_helly", False, CS),
    ("recognition.maximal_cliques", "recognition", "maximal_cliques", False, CS),
    ("recognition.all_cliques", "recognition", "all_cliques", False, CS),
    ("geometry.hyperbolicity", "geometry", "hyperbolicity", False,
     ("calls", "self_s", "quadruples")),
    ("hypergraphs.helly_property_certified", "hypergraphs", "helly_property_certified",
     False, CS),
    ("hypergraphs.is_conformal_certified", "hypergraphs", "is_conformal_certified", False, CS),
    ("hypergraphs.is_triangle_free_hypergraph", "hypergraphs", "is_triangle_free_hypergraph",
     False, CS),
    ("hypergraphs.dual", "hypergraphs", "dual", False, CS),
    ("hull.hellyfication", "hull", "hellyfication", False, ("calls", "self_s", "forms")),
    ("hull.is_extremal", "hull", "is_extremal", True, CS),
    ("hull.sup_distance", "hull", "sup_distance", True, CS),
    ("hull.FiniteMetric.validate", "hull", "FiniteMetric.validate", False, ("self_s",)),
    ("hull.hull_distance_profile", "hull", "hull_distance_profile", False, ("self_s",)),
    ("bicombing.fellow_traveler_check", "bicombing", "fellow_traveler_check", False,
     ("calls", "self_s", "tuples")),
    ("bicombing.normal_clique_path", "bicombing", "normal_clique_path", True, CS),
    ("bicombing.imprint", "bicombing", "imprint", True, CS),
    ("bicombing.imprint_mask", "bicombing", "imprint_mask", True, CS),
    ("bicombing.normal_paths", "bicombing", "normal_paths", False, CS),
    ("bicombing.uniform_distance", "bicombing", "uniform_distance", True, CS),
    ("bicombing.min_distance", "bicombing", "min_distance", True, CS),
    ("constructions.thicken_median", "constructions", "thicken_median", False, ("self_s",)),
    ("constructions.strong_product", "constructions", "strong_product", False, ("self_s",)),
    ("constructions.nerve_graph_of_cliques", "constructions", "nerve_graph_of_cliques",
     False, ("self_s",)),
    ("constructions.face_graph", "constructions", "face_graph", False, ("self_s",)),
    ("symmetry.fixed_clique", "symmetry", "fixed_clique", False, ("self_s",)),
    ("symmetry.close_group", "symmetry", "close_group", False, ("self_s",)),
    ("cli.main", "cli", "main", False, ("calls", "self_s", "uncaught")),
]

MODULES = ("graphs", "recognition", "hypergraphs", "geometry", "hull", "bicombing",
           "constructions", "symmetry", "cli")


# counters derived from a call: (args, kwargs, result, pre) -> increment
_COUNTERS = {
    "quadruples": lambda a, k, r, p: math.comb((a[0] if a else k["g"]).n, 4),
    "forms": lambda a, k, r, p: len(r.forms),
    "tuples": lambda a, k, r, p: r.tuples_checked,
    # a dist_row call is cold when the row was not memoized before it
    "cold": lambda a, k, r, p: int(p),
}


def _row_missing(args):
    g, u = args
    return g._rows[u] is None


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "extra")

    def __init__(self, extra_names):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra = dict.fromkeys(extra_names, 0)


class Tracer:
    def __init__(self):
        modules = {m: importlib.import_module(f"helly.{m}") for m in MODULES}
        self.stats = {}
        self.missing = []
        self.spans = []          # (id, parent id, request, name, start, end)
        self.record = False
        self.request = None
        self._stack = [[0.0, 0]]  # frames: [time of wrapped children, span id]
        self._next_id = 1
        self._patches = []       # (owner, attribute, original, replacement)
        for prefix, module, path, hot, fields in TARGETS:
            extra = tuple(f for f in fields if f not in CS)
            self.stats[prefix] = Stat(extra)
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(prefix)
                continue
            classmeth = isinstance(raw, classmethod)
            rep = self._wrap(prefix, raw.__func__ if classmeth else raw, hot, extra)
            if classmeth:
                rep = classmethod(rep)
            if outer:  # a class attribute: every caller resolves it through the class
                self._patches.append((owner, attr, raw, rep))
            else:  # a function: patch every module that binds it
                self._patches += [(mod, name, raw, rep) for mod in modules.values()
                                  for name, value in vars(mod).items() if value is raw]

    def install(self):
        for owner, attr, _, rep in self._patches:
            setattr(owner, attr, rep)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def reset(self):
        for st in self.stats.values():
            st.calls, st.self_s, st.total_s = 0, 0.0, 0.0
            for k in st.extra:
                st.extra[k] = 0

    def snapshot(self, time_scale=1.0):
        return {p: {"calls": st.calls, "self_s": st.self_s * time_scale,
                    "total_s": st.total_s * time_scale, **st.extra}
                for p, st in self.stats.items()}

    def _wrap(self, prefix, fn, hot, extra):
        st = self.stats[prefix]
        stack = self._stack
        clock = time.perf_counter
        pre = _row_missing if "cold" in extra else None
        counters = [(k, _COUNTERS[k]) for k in extra if k in _COUNTERS]
        counts_uncaught = "uncaught" in extra
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                try:
                    p = pre(args)
                except (AttributeError, IndexError, TypeError, ValueError):
                    p = False
                    if prefix + ".cold" not in tracer.missing:
                        tracer.missing.append(prefix + ".cold")
            else:
                p = None
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, tracer._next_id]
                tracer._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if counts_uncaught:
                    st.extra["uncaught"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                st.calls += 1
                st.self_s += dt - frame[0]
                st.total_s += dt
                if tracer.record and not hot:
                    tracer.spans.append((frame[1], parent[1], tracer.request, prefix,
                                         t0, t0 + dt))
            for k, fn_count in counters:
                st.extra[k] += fn_count(args, kwargs, result, p)
            return result

        wrapper.__wrapped__ = fn
        return wrapper
