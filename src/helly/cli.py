"""Command-line surface: classification, hulls, bicombings, builders,
generators, and named reproduction checks.

Exit codes: 0 success, 2 usage, 3 validation/resource error, 4 invariant
violation (a verified guarantee failed on the input).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InvariantViolation, ResourceCapExceeded, ValidationError
from .graphs import Graph, weak_modularity
from . import bicombing, constructions, geometry, hull, hypergraphs, recognition, symmetry


def _load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return Graph.from_json(fh.read())


def _emit(obj):
    print(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def _cmd_check(args):
    g = _load_graph(args.graph)
    report = recognition.is_helly(g)
    out = report.to_dict()
    out["is_median"] = recognition.is_median(g) if g.n <= 256 else None
    out["weakly_modular"] = report.weakly_modular
    _emit(out)
    return 0


def _cmd_hull(args):
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = json.loads(text)
    if "edges" in data:
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
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValidationError(f"--pair vertices must lie in [0, {g.n}), got {u} {v}")
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
        gluings = [tuple(t) for t in json.loads(args.gluings)]
        g, _ = constructions.glue_at_vertices(parts, gluings)
    elif args.kind == "sgp":
        # one JSON file: {"factors": [<graph JSON>...], "pieces": [[null|vertex,...],...]}
        with open(args.inputs[0], "r", encoding="utf-8") as fh:
            data = json.load(fh)
        factors = tuple(Graph(int(f["n"]), [tuple(e) for e in f["edges"]])
                        for f in data["factors"])
        pieces = tuple(tuple(entry if entry is None else int(entry) for entry in piece)
                       for piece in data["pieces"])
        desc = constructions.SgpDescription(factors, pieces)
        g, _, _ = constructions.sgp_build(desc)
        three_piece, _ = constructions.sgp_three_piece(desc)
        print(json.dumps({"graph": json.loads(g.to_json()),
                          "three_piece": three_piece},
                         separators=(",", ":"), sort_keys=True))
        return 0
    else:
        raise ValidationError(f"unknown build kind {args.kind!r}")
    print(g.to_dot() if args.dot else g.to_json())
    return 0


_GENERATORS = {
    "path": lambda p: geometry.path_graph(p[0]),
    "cycle": lambda p: geometry.cycle_graph(p[0]),
    "complete": lambda p: geometry.complete_graph(p[0]),
    "star": lambda p: geometry.star_graph(p[0]),
    "wheel": lambda p: geometry.wheel_graph(p[0]),
    "hypercube": lambda p: geometry.hypercube_graph(p[0]),
    "grid": lambda p: geometry.grid_graph(p[0], p[1]),
    "king": lambda p: geometry.king_graph(p[0], p[1]),
    "sun3": lambda p: geometry.sun3(),
    "house": lambda p: geometry.house_graph(),
    "bowtie": lambda p: geometry.bowtie_graph(),
    "k4-minus": lambda p: geometry.k4_minus(),
    "k33-minus": lambda p: geometry.k33_minus(),
    "l1-grid": lambda p: geometry.l1_grid(p[0])[0],
    "linf-diamond": lambda p: geometry.linf_diamond(p[0])[0],
    "t3-deltoid": lambda p: geometry.t3_deltoid(p[0])[0],
    "t3-patch": lambda p: geometry.t3_patch(p[0])[0],
    "z3-box": lambda p: geometry.z3_box(p[0])[0],
    "ncp-figure": lambda p: geometry.ncp_figure()[0],
    "random": lambda p: geometry.random_connected_graph(p[0], p[1] / 100.0, p[2]),
    "tree": lambda p: geometry.random_tree(p[0], p[1]),
}


def _cmd_gen(args):
    maker = _GENERATORS.get(args.name)
    if maker is None:
        raise ValidationError(
            f"unknown generator {args.name!r}; known: {', '.join(sorted(_GENERATORS))}")
    g = maker(args.params)
    print(g.to_dot() if args.dot else g.to_json())
    return 0


def _cmd_hyp(args):
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
    with open(args.action, "r", encoding="utf-8") as fh:
        action = symmetry.GroupAction.from_json(g, fh.read())
    clique = symmetry.fixed_clique(action)
    _emit({"fixed_clique": list(clique), "group_order": len(symmetry.close_group(action))})
    return 0


def _cmd_hyper_check(args):
    with open(args.hypergraph, "r", encoding="utf-8") as fh:
        h = hypergraphs.Hypergraph.from_json(fh.read())
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


# -- named reproductions --------------------------------------------------------


def _repro_classification():
    rows = [
        ("c4", "clique-Helly, not 1-Helly",
         lambda: (lambda g: recognition.is_clique_helly(g) and not recognition.is_one_helly(g))(
             geometry.cycle_graph(4))),
        ("c7", "1-Helly, not Helly",
         lambda: (lambda g: recognition.is_one_helly(g) and not recognition.is_helly(g).is_helly)(
             geometry.cycle_graph(7))),
        ("sun3", "weakly modular, not Helly",
         lambda: (lambda g: weak_modularity(g).holds
                  and not recognition.is_helly(g).is_helly)(geometry.sun3())),
        ("k6", "Helly", lambda: recognition.is_helly(geometry.complete_graph(6)).is_helly),
        ("tree20", "Helly", lambda: recognition.is_helly(geometry.random_tree(20, 7)).is_helly),
        ("king5x5", "Helly", lambda: recognition.is_helly(geometry.king_graph(5, 5)).is_helly),
    ]
    ok = True
    for name, claim, check in rows:
        good = check()
        ok = ok and good
        print(f"  {name}: {claim}: {'ok' if good else 'FALSIFIED'}")
    return ok


def _repro_zcube():
    ok = True
    for n, expected in ((1, 4), (2, 8)):
        defect = geometry.z3_counterexample(n)["defect"]
        good = defect == expected
        ok = ok and good
        print(f"  box scale n={n}: defect {defect} (expected {expected})")
    return ok


def _repro_t3():
    ok = True
    for n in (1, 2):
        defect = geometry.t3_counterexample(n)["defect"]
        good = defect >= n
        ok = ok and good
        print(f"  deltoid scale n={n}: defect {defect} (>= {n} required)")
    return ok


def _repro_fellow_traveler_king5():
    rep = bicombing.fellow_traveler_check(geometry.king_graph(5, 5))
    print(f"  constants: clique {rep.clique_constant} (<=1), path {rep.path_constant} (<=3)")
    return rep.clique_constant <= 1 and rep.path_constant <= 3


def _repro_ncp_figure():
    g, names = geometry.ncp_figure()
    t, s, y = names["t"], names["s"], names["y"]
    path = bicombing.normal_clique_path(g, t, s)
    want = [{names["t"]}, {names["x"], names["y"]},
            {names["u"], names["u'"], names["w"]}, {names["s"]}]
    shape_ok = [set(c) for c in path.cliques] == want
    paths = bicombing.normal_paths(g, t, s)
    y_ok = all(y not in p for p in paths)
    print(f"  clique path shape ok: {shape_ok}; y excluded from {len(paths)} normal paths: {y_ok}")
    return shape_ok and y_ok


def _repro_grid():
    ok = geometry.l1_linf_grid_correspondence(1)
    print(f"  l1 <-> linf correspondence at k=1: {ok}")
    return ok


def _repro_thicken():
    a = constructions.thicken_median(geometry.hypercube_graph(3)) == geometry.complete_graph(8)
    b = constructions.thicken_median(geometry.grid_graph(3, 3)) == geometry.king_graph(3, 3)
    print(f"  thicken Q3 = K8: {a}; thicken 3x3 grid = 3x3 king: {b}")
    return a and b


def _repro_duality():
    import random
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 10)
        edges = [tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                 for _ in range(rng.randint(1, 10))]
        h = hypergraphs.Hypergraph.of(n, edges)
        if hypergraphs.is_conformal(h) != hypergraphs.is_helly(hypergraphs.dual(h)):
            print("  duality broken on", h)
            return False
    print("  conformality <-> dual Helly property on 200 random hypergraphs: ok")
    return True


def _repro_hull_identity():
    ok = True
    for name, g in [("tree", geometry.random_tree(12, 3)),
                    ("king4x4", geometry.king_graph(4, 4)),
                    ("star", geometry.star_graph(6))]:
        hg = hull.hellyfication(g)
        same = len(hg.forms) == g.n
        profile = hull.hull_distance_profile(hg)
        ok = ok and same and profile <= 1
        print(f"  {name}: hull adds {len(hg.forms) - g.n} forms, profile {profile}")
    return ok


def _repro_stable_intervals():
    ok = True
    for name, g in [("king5x5", geometry.king_graph(5, 5)),
                    ("grid4x4", geometry.grid_graph(4, 4)),
                    ("tree", geometry.random_tree(15, 9))]:
        beta = recognition.stable_interval_constant(g)
        print(f"  {name}: interval stability constant {beta} (<=1 required)")
        ok = ok and beta <= 1
    return ok


_REPROS = {
    "classification-table": _repro_classification,
    "zcube-defect": _repro_zcube,
    "t3-defect": _repro_t3,
    "fellow-traveler-king5": _repro_fellow_traveler_king5,
    "ncp-figure": _repro_ncp_figure,
    "grid-correspondence": _repro_grid,
    "thicken": _repro_thicken,
    "helly-duality": _repro_duality,
    "hull-identity": _repro_hull_identity,
    "stable-intervals": _repro_stable_intervals,
}


def _cmd_repro(args):
    if args.list:
        for name in sorted(_REPROS):
            print(name)
        return 0
    if args.example is None:
        raise ValidationError("name a reproduction or pass --list")
    runner = _REPROS.get(args.example)
    if runner is None:
        raise ValidationError(
            f"unknown reproduction {args.example!r}; known: {', '.join(sorted(_REPROS))}")
    ok = runner()
    print(f"{args.example}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise InvariantViolation(f"reproduction {args.example} falsified")
    return 0


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
