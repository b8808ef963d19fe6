"""Named claims of the paper on fixed inputs.  A claim yields (line, ok) rows
lazily, one per parameter set, so a caller can time each row; `helly repro`
prints them and the acceptance suite runs them under its time bounds.  Each
claim imports the modules it runs, so `helly repro --list` loads none."""

from __future__ import annotations

import random


def classification_table():
    """Helly / 1-Helly / clique-Helly classification of small graphs."""
    from . import geometry, recognition
    from .graphs import weak_modularity

    def helly(g):
        return recognition.is_helly(g).is_helly

    rows = [("c4", "clique-Helly, not 1-Helly", geometry.cycle_graph(4),
             lambda g: recognition.is_clique_helly(g) and not recognition.is_one_helly(g)),
            ("c7", "1-Helly, not Helly", geometry.cycle_graph(7),
             lambda g: recognition.is_one_helly(g) and not helly(g)),
            ("sun3", "weakly modular, not Helly", geometry.sun3(),
             lambda g: weak_modularity(g).holds and not helly(g))]
    rows += [(name, "Helly", g, helly) for name, g in [
        ("k6", geometry.complete_graph(6)), ("tree20", geometry.random_tree(20, 7)),
        ("king5x5", geometry.king_graph(5, 5)), ("k5", geometry.complete_graph(5)),
        ("tree25", geometry.random_tree(25, 1)), ("king6x6", geometry.king_graph(6, 6))]]
    for name, claim, g, holds in rows:
        ok = holds(g)
        yield f"{name}: {claim}: {'ok' if ok else 'FALSIFIED'}", ok


def zcube_defect():
    """The Z^3 box family has coarse-Helly defect 4n at scale n."""
    from . import geometry
    for n, expected in ((1, 4), (2, 8)):
        defect = geometry.z3_counterexample(n)["defect"]
        yield f"box scale n={n}: defect {defect} (expected {expected})", defect == expected


def t3_defect():
    """The T^3 deltoid family has coarse-Helly defect at least n at scale n."""
    from . import geometry
    for n in (1, 2):
        defect = geometry.t3_counterexample(n)["defect"]
        yield f"deltoid scale n={n}: defect {defect} (>= {n} required)", defect >= n


def fellow_traveler_king5():
    """Normal clique-paths fellow-travel with constant 1, normal paths with 3."""
    from . import bicombing, geometry
    rep = bicombing.fellow_traveler_check(geometry.king_graph(5, 5))
    yield (f"constants: clique {rep.clique_constant} (<=1), path {rep.path_constant} (<=3)",
           rep.clique_constant <= 1 and rep.path_constant <= 3)


def ncp_figure():
    """The nine-vertex figure: its clique-path shape, and y on no normal path."""
    from . import bicombing, geometry
    g, names = geometry.ncp_figure()
    path = bicombing.normal_clique_path(g, names["t"], names["s"])
    want = [{names[v] for v in c} for c in (["t"], ["x", "y"], ["u", "u'", "w"], ["s"])]
    shape_ok = [set(c) for c in path.cliques] == want
    paths = bicombing.normal_paths(g, names["t"], names["s"])
    y_ok = all(names["y"] not in p for p in paths)
    yield (f"clique path shape ok: {shape_ok}; y excluded from {len(paths)} normal paths: {y_ok}",
           shape_ok and y_ok)


def grid_correspondence():
    """The l1 and linf grids correspond at scales k = 1, 2."""
    from . import geometry
    for k in (1, 2):
        ok = geometry.l1_linf_grid_correspondence(k)
        yield f"l1 <-> linf correspondence at k={k}: {ok}", ok


def thicken():
    """Thickening the cube Q3 gives K8; thickening the 3x3 grid gives the 3x3 king."""
    from . import constructions, geometry
    a = constructions.thicken_median(geometry.hypercube_graph(3)) == geometry.complete_graph(8)
    b = constructions.thicken_median(geometry.grid_graph(3, 3)) == geometry.king_graph(3, 3)
    yield f"thicken Q3 = K8: {a}; thicken 3x3 grid = 3x3 king: {b}", a and b


def helly_duality():
    """Conformality is dual to the Helly property, and the Berge-Duchet
    Helly test agrees with the subfamily oracle, on two seeded samples.
    Conformality is decided by Gilmore's maximal-clique definition, so the
    duality row does not run Berge-Duchet on both sides."""
    from . import hypergraphs
    for seed, sample in ((2024, "200 random hypergraphs"), (777, "200 more (seed 777)")):
        rng = random.Random(seed)
        hs = []
        for _ in range(200):
            n = rng.randint(2, 10)
            hs.append(hypergraphs.Hypergraph.of(n, [
                sorted(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 10))]))
        ok = all(hypergraphs.is_conformal_via_cliques(h)
                 == hypergraphs.helly_property(hypergraphs.dual(h)) for h in hs)
        verdict = "ok" if ok else "FALSIFIED"
        yield f"conformality <-> dual Helly property on {sample}: {verdict}", ok
        ok = all(hypergraphs.helly_property(h) == hypergraphs.helly_property_oracle(h) for h in hs)
        verdict = "ok" if ok else "FALSIFIED"
        yield f"Helly property <-> subfamily oracle on the same 200: {verdict}", ok


def hull_identity():
    """A Helly graph is its own hull, at hull distance profile <= 1."""
    from . import geometry, hull
    for name, g in [("tree", geometry.random_tree(12, 3)),
                    ("king4x4", geometry.king_graph(4, 4)),
                    ("star", geometry.star_graph(6))]:
        hg = hull.hellyfication(g)
        profile = hull.hull_distance_profile(hg)
        yield (f"{name}: hull adds {len(hg.forms) - g.n} forms, profile {profile}",
               len(hg.forms) == g.n and profile <= 1)


def stable_intervals():
    """Intervals of Helly and median graphs are 1-stable."""
    from . import geometry, recognition
    for name, g in [("king5x5", geometry.king_graph(5, 5)),
                    ("grid4x4", geometry.grid_graph(4, 4)),
                    ("tree", geometry.random_tree(15, 9))]:
        beta = recognition.stable_interval_constant(g)
        yield f"{name}: interval stability constant {beta} (<=1 required)", beta <= 1


CLAIMS = {
    "classification-table": classification_table,
    "fellow-traveler-king5": fellow_traveler_king5,
    "grid-correspondence": grid_correspondence,
    "helly-duality": helly_duality,
    "hull-identity": hull_identity,
    "ncp-figure": ncp_figure,
    "stable-intervals": stable_intervals,
    "t3-defect": t3_defect,
    "thicken": thicken,
    "zcube-defect": zcube_defect,
}
