"""Command-line surface: classification, hulls, bicombings, builders,
generators, and named reproduction checks.

Exit codes: 0 success, 2 usage, 3 validation/resource error, 4 invariant
violation (a verified guarantee failed on the input).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from functools import cache

from .errors import (InvariantViolation, ResourceCapExceeded, ValidationError, int_lists,
                     json_object, json_value)
from .graphs import Graph
from . import (bicombing, claims, constructions, geometry, hull, hypergraphs, recognition,
               symmetry)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"cannot read {path}: not UTF-8 text") from None


def _load_graph(path):
    return Graph.from_json(_read(path))


def _emit(obj):
    print(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def _cmd_check(args):
    g = _load_graph(args.graph)
    report = recognition.is_helly(g)
    out = report.to_dict()
    out["is_median"] = recognition.is_median(g)
    _emit(out)
    return 0


def _cmd_hull(args):
    text = _read(args.input)
    if "edges" in json_object(text):
        metric = hull.FiniteMetric.of_graph(Graph.from_json(text))
    else:
        metric = hull.FiniteMetric.from_json(text)
    hg = hull.hellyfication(metric)
    _emit({
        "forms": [list(f) for f in hg.forms],
        "edges": [list(e) for e in hg.graph.edges()],
        "embed": list(hg.embed),
        "distance_profile": hull.hull_distance_profile(hg),
    })
    return 0


def _cmd_bicombing(args):
    g = _load_graph(args.graph)
    if args.fellow_traveler:
        budget = args.budget if args.budget else None
        rep = bicombing.fellow_traveler_check(g, max_tuples=budget, seed=args.seed)
        _emit({
            "clique_constant": rep.clique_constant,
            "path_constant": rep.path_constant,
            "clique_witness": rep.clique_witness,
            "path_witness": rep.path_witness,
            "tuples_checked": rep.tuples_checked,
        })
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
        # one JSON file: {"factors": [<graph JSON>...], "pieces": [[null|vertex,...],...]}
        data = json_object(_read(args.inputs[0]), "factors", "pieces")
        factors, pieces = data["factors"], data["pieces"]
        if not (isinstance(factors, list) and isinstance(pieces, list) and all(
                isinstance(p, list) and all(e is None or type(e) is int for e in p)
                for p in pieces)):
            raise ValidationError("sgp JSON needs a factor list and pieces of null or int")
        desc = constructions.SgpDescription(tuple(Graph.from_json(json.dumps(f)) for f in factors),
                                            tuple(tuple(p) for p in pieces))
        g, _, _ = constructions.sgp_build(desc)
        three_piece, _ = constructions.sgp_three_piece(desc)
        _emit({"graph": json.loads(g.to_json()), "three_piece": three_piece})
        return 0
    else:
        raise ValidationError(f"unknown build kind {args.kind!r}")
    print(g.to_dot() if args.dot else g.to_json())
    return 0


_GENERATORS = {
    "path": geometry.path_graph,
    "cycle": geometry.cycle_graph,
    "complete": geometry.complete_graph,
    "star": geometry.star_graph,
    "wheel": geometry.wheel_graph,
    "hypercube": geometry.hypercube_graph,
    "grid": geometry.grid_graph,
    "king": geometry.king_graph,
    "sun3": geometry.sun3,
    "house": geometry.house_graph,
    "bowtie": geometry.bowtie_graph,
    "k4-minus": geometry.k4_minus,
    "k33-minus": geometry.k33_minus,
    "l1-grid": lambda k: geometry.l1_grid(k)[0],
    "linf-diamond": lambda k: geometry.linf_diamond(k)[0],
    "t3-deltoid": lambda side: geometry.t3_deltoid(side)[0],
    "t3-patch": lambda radius: geometry.t3_patch(radius)[0],
    "z3-box": lambda half_side: geometry.z3_box(half_side)[0],
    "ncp-figure": lambda: geometry.ncp_figure()[0],
    "random": lambda n, percent, seed: geometry.random_connected_graph(
        n, percent / 100.0, seed),
    "tree": geometry.random_tree,
}


def _cmd_gen(args):
    maker = _GENERATORS.get(args.name)
    if maker is None:
        raise ValidationError(
            f"unknown generator {args.name!r}; known: {', '.join(sorted(_GENERATORS))}")
    names = list(inspect.signature(maker).parameters)
    if len(args.params) != len(names):
        raise ValidationError(f"{args.name!r} takes parameters {names}, got {args.params}")
    g = maker(*args.params)
    print(g.to_dot() if args.dot else g.to_json())
    return 0


def _cmd_hyp(args):
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
    g = _load_graph(args.graph)
    defect = hull.coarse_helly_defect(g, args.centers, args.radii,
                                      require_pairwise=not args.no_pairwise_check)
    _emit({"defect": defect})
    return 0


def _cmd_fix(args):
    g = _load_graph(args.graph)
    action = symmetry.GroupAction.from_json(g, _read(args.action))
    clique = symmetry.fixed_clique(action)
    _emit({"fixed_clique": list(clique), "group_order": len(symmetry.close_group(action))})
    return 0


def _cmd_hyper_check(args):
    h = hypergraphs.Hypergraph.from_json(_read(args.hypergraph))
    helly_ok, helly_witness = hypergraphs.helly_property_certified(h)
    conf_ok, conf_witness = hypergraphs.is_conformal_certified(h)
    _emit({
        "helly_property": helly_ok,
        "helly_failing_triple": list(helly_witness) if helly_witness else None,
        "conformal": conf_ok,
        "gilmore_failing_edge_triple": list(conf_witness) if conf_witness else None,
        "triangle_free": hypergraphs.is_triangle_free_hypergraph(h),
        "dual_helly_property": hypergraphs.helly_property(hypergraphs.dual(h)),
    })
    return 0


def _cmd_repro(args):
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
