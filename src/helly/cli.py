"""Command-line surface: classification, hulls, bicombings, builders,
generators, and named reproduction checks.

Exit codes: 0 success, 2 usage, 3 validation/resource error, 4 invariant
violation (a verified guarantee failed on the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import (SIZE_CAP, InvariantViolation, ResourceCapExceeded, ValidationError,
                     int_lists, json_object, json_value)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"cannot read {path}: not UTF-8 text") from None


def _graph(text):
    from .graphs import Graph
    return Graph.from_json(text)


def _load_graph(path):
    return _graph(_read(path))


def _emit(obj):
    print(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def _cmd_check(args):
    from . import recognition
    g = _load_graph(args.graph)
    out = dict(vars(recognition.is_helly(g)))  # not asdict: no deep copy of the certificate
    out["is_median"] = recognition.is_median(g)
    _emit(out)
    return 0


def _cmd_hull(args):
    from . import hull
    from .graphs import Graph
    data = json_object(_read(args.input))  # decoded once, as a graph or as a metric
    if "edges" in data:
        metric = hull.FiniteMetric.of_graph(Graph.from_object(data))
    else:
        metric = hull.FiniteMetric.from_object(data)
    hg = hull.hellyfication(metric)
    _emit({
        "forms": [list(f) for f in hg.forms],
        "edges": [list(e) for e in hg.graph.edges()],
        "embed": list(hg.embed),
        "distance_profile": hull.hull_distance_profile(hg),
    })
    return 0


def _cmd_bicombing(args):
    from dataclasses import asdict
    from . import bicombing
    g = _load_graph(args.graph)
    if args.fellow_traveler:
        budget = args.budget if args.budget else None
        _emit(asdict(bicombing.fellow_traveler_check(g, max_tuples=budget, seed=args.seed)))
        return 0
    if args.pair is None:
        raise ValidationError("--pair U V or --fellow-traveler required")
    u, v = args.pair
    path = bicombing.normal_clique_path(g, u, v)
    _emit({
        "clique_path": path.to_lists(),
        "normal_paths": [list(p) for p in bicombing.normal_paths(g, u, v)],
    })
    return 0


def _cmd_build(args):
    from . import constructions
    if args.kind == "product":
        gs = [_load_graph(p) for p in args.inputs]
        g, _, _ = constructions.strong_product(gs)
    elif args.kind == "thicken":
        g = constructions.thicken_median(_load_graph(args.inputs[0]))
    elif args.kind == "rips":
        g = constructions.rips_power(_load_graph(args.inputs[0]), args.delta)
    elif args.kind == "face":
        g, _ = constructions.face_graph(_load_graph(args.inputs[0]))
    elif args.kind == "nerve":
        g, _ = constructions.nerve_graph_of_cliques(_load_graph(args.inputs[0]))
    elif args.kind == "glue":
        parts = [_load_graph(p) for p in args.inputs]
        gluings = int_lists(json_value(args.gluings), "--gluings")
        if any(len(t) != 4 for t in gluings):
            raise ValidationError("each --gluings entry must be [i, vi, j, vj]")
        g, _ = constructions.glue_at_vertices(parts, gluings)
    elif args.kind == "sgp":
        from .graphs import Graph
        # one JSON file: {"factors": [<graph JSON>...], "pieces": [[null|vertex,...],...]}
        data = json_object(_read(args.inputs[0]), "factors", "pieces")
        factors, pieces = data["factors"], data["pieces"]
        if not (isinstance(factors, list) and isinstance(pieces, list) and all(
                isinstance(p, list) and all(e is None or type(e) is int for e in p)
                for p in pieces)):
            raise ValidationError("sgp JSON needs a factor list and pieces of null or int")
        desc = constructions.SgpDescription(tuple(Graph.from_object(f) for f in factors),
                                            tuple(tuple(p) for p in pieces))
        g, _, _ = constructions.sgp_build(desc)
        three_piece, _ = constructions.sgp_three_piece(desc)
        _emit({"graph": json.loads(g.to_json()), "three_piece": three_piece})
        return 0
    print(g.to_dot() if args.dot else g.to_json())
    return 0


# name -> (size, make).  Both take the generator's parameters, whose names
# the usage message prints; make also takes the geometry module first.  size
# is the vertex count, or for `complete` and `random` the n(n - 1)/2 pairs
# they visit, read off the parameters so that `gen` refuses a graph past
# SIZE_CAP before building any of it.
_GENERATORS = {
    "path": (lambda n: n, lambda geo, n: geo.path_graph(n)),
    "cycle": (lambda n: n, lambda geo, n: geo.cycle_graph(n)),
    "complete": (lambda n: n * (n - 1) // 2, lambda geo, n: geo.complete_graph(n)),
    "star": (lambda leaves: leaves + 1, lambda geo, leaves: geo.star_graph(leaves)),
    "wheel": (lambda rim: rim + 1, lambda geo, rim: geo.wheel_graph(rim)),
    "hypercube": (lambda dim: 1 << min(dim, 64), lambda geo, dim: geo.hypercube_graph(dim)),
    "grid": (lambda rows, cols: rows * cols,
             lambda geo, rows, cols: geo.grid_graph(rows, cols)),
    "king": (lambda rows, cols: rows * cols,
             lambda geo, rows, cols: geo.king_graph(rows, cols)),
    "sun3": (lambda: 6, lambda geo: geo.sun3()),
    "house": (lambda: 5, lambda geo: geo.house_graph()),
    "bowtie": (lambda: 5, lambda geo: geo.bowtie_graph()),
    "k4-minus": (lambda: 4, lambda geo: geo.k4_minus()),
    "k33-minus": (lambda: 6, lambda geo: geo.k33_minus()),
    "l1-grid": (lambda k: (2 * k + 1) ** 2, lambda geo, k: geo.l1_grid(k)[0]),
    "linf-diamond": (lambda k: 8 * k * k + 4 * k + 1, lambda geo, k: geo.linf_diamond(k)[0]),
    "t3-deltoid": (lambda side: (side + 1) * (side + 2) // 2,
                   lambda geo, side: geo.t3_deltoid(side)[0]),
    "t3-patch": (lambda radius: 3 * radius * (radius + 1) + 1,
                 lambda geo, radius: geo.t3_patch(radius)[0]),
    "z3-box": (lambda half_side: (2 * half_side + 1) ** 3,
               lambda geo, half_side: geo.z3_box(half_side)[0]),
    "ncp-figure": (lambda: 9, lambda geo: geo.ncp_figure()[0]),
    "random": (lambda n, percent, seed: n * (n - 1) // 2,
               lambda geo, n, percent, seed: geo.random_connected_graph(n, percent / 100.0, seed)),
    "tree": (lambda n, seed: n, lambda geo, n, seed: geo.random_tree(n, seed)),
}


def _cmd_gen(args):
    import inspect
    if args.name not in _GENERATORS:
        raise ValidationError(
            f"unknown generator {args.name!r}; known: {', '.join(sorted(_GENERATORS))}")
    size, make = _GENERATORS[args.name]
    names = list(inspect.signature(size).parameters)
    if len(args.params) != len(names):
        raise ValidationError(f"{args.name!r} takes parameters {names}, got {args.params}")
    # a negative parameter makes an empty or invalid graph, which the generator refuses
    count = size(*(max(p, 0) for p in args.params))
    if count > SIZE_CAP:
        raise ResourceCapExceeded(f"generator {args.name!r} size {count} exceeds cap {SIZE_CAP}")
    from . import geometry
    g = make(geometry, *args.params)
    print(g.to_dot() if args.dot else g.to_json())
    return 0


def _cmd_hyp(args):
    from . import geometry
    for name, value in (("--cap", args.cap), ("--sample", args.sample)):
        if value < 0:
            raise ValidationError(f"{name} must be nonnegative, got {value}")
    g = _load_graph(args.graph)
    if g.n > args.cap:
        bound = geometry.hyperbolicity_sampled(g, samples=args.sample, seed=args.seed)
        _emit({"two_delta_lower_bound": bound, "sampled": args.sample, "seed": args.seed})
        return 0
    res = geometry.hyperbolicity(g, cap=args.cap)
    _emit({"two_delta": res.two_delta, "witness": list(res.witness)})
    return 0


def _cmd_coarse(args):
    from . import geometry
    g = _load_graph(args.graph)
    defect = geometry.coarse_helly_defect(g, args.centers, args.radii,
                                          require_pairwise=not args.no_pairwise_check)
    _emit({"defect": defect})
    return 0


def _cmd_fix(args):
    from . import symmetry
    g = _load_graph(args.graph)
    action = symmetry.GroupAction.from_json(g, _read(args.action))
    clique = symmetry.fixed_clique(action)
    _emit({"fixed_clique": list(clique), "group_order": len(symmetry.close_group(action))})
    return 0


def _cmd_hyper_check(args):
    from . import hypergraphs
    h = hypergraphs.Hypergraph.from_json(_read(args.hypergraph))
    helly_ok, helly_witness = hypergraphs.helly_property_certified(h)
    # H is conformal iff its dual H* has the Helly property (Berge).  Both
    # tests are one Berge-Duchet run: Gilmore's runs on the stars S_v over
    # the edge indices, helly_property(dual(h)) on the nonempty stars, and
    # an empty star holds no index, so it changes neither verdict nor witness
    conf_ok, conf_witness = hypergraphs.is_conformal_certified(h)
    _emit({
        "helly_property": helly_ok,
        "helly_failing_triple": list(helly_witness) if helly_witness else None,
        "conformal": conf_ok,
        "gilmore_failing_edge_triple": list(conf_witness) if conf_witness else None,
        "triangle_free": hypergraphs.is_triangle_free_hypergraph(h),
        "dual_helly_property": conf_ok,
    })
    return 0


def _cmd_repro(args):
    from . import claims
    if args.list:
        for name in claims.CLAIMS:
            print(name)
        return 0
    if args.example is None:
        raise ValidationError("name a reproduction or pass --list")
    claim = claims.CLAIMS.get(args.example)
    if claim is None:
        raise ValidationError(
            f"unknown reproduction {args.example!r}; known: {', '.join(claims.CLAIMS)}")
    ok = True
    for line, good in claim():
        print(f"  {line}")
        ok = ok and good
    print(f"{args.example}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise InvariantViolation(f"reproduction {args.example} falsified")
    return 0


@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="helly",
        description="Exact computation with Helly graphs at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a graph (Helly report as JSON)")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("hull", help="discrete injective hull of a graph or metric JSON")
    p.add_argument("input")
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("bicombing", help="normal clique-paths and fellow-traveler constants")
    p.add_argument("graph")
    p.add_argument("--pair", nargs=2, type=int, metavar=("U", "V"))
    p.add_argument("--fellow-traveler", action="store_true")
    p.add_argument("--budget", type=int, default=0, help="sample size for large graphs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bicombing)

    p = sub.add_parser("build", help="apply a Helly-preserving construction")
    p.add_argument("kind", choices=["product", "thicken", "rips", "face", "nerve",
                                    "sgp", "glue"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--gluings", default="[]", help="JSON list of [i, vi, j, vj]")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("gen", help="emit a named generator graph as JSON")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("hyp", help="exact four-point hyperbolicity (reported as 2*delta)")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=256,
                   help="exhaustive up to this many vertices, sampled beyond")
    p.add_argument("--sample", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hyp)

    p = sub.add_parser("coarse", help="coarse Helly defect of a ball family")
    p.add_argument("graph")
    p.add_argument("--centers", nargs="+", type=int, required=True)
    p.add_argument("--radii", nargs="+", type=int, required=True)
    p.add_argument("--no-pairwise-check", action="store_true")
    p.set_defaults(func=_cmd_coarse)

    p = sub.add_parser("fix", help="invariant clique of a finite action on a Helly graph")
    p.add_argument("graph")
    p.add_argument("action")
    p.set_defaults(func=_cmd_fix)

    p = sub.add_parser("hyper-check", help="Helly/conformality report for a hypergraph")
    p.add_argument("hypergraph")
    p.set_defaults(func=_cmd_hyper_check)

    p = sub.add_parser("repro", help="run a named verification and print PASS/FAIL")
    p.add_argument("example", nargs="?")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ResourceCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
