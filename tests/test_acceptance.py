"""Acceptance suite: the eleven verification criteria, one test each.

Every test prints a single PASS/FAIL line (visible with pytest -s or in the
captured log) and asserts the criterion at its exact tolerance; all
comparisons are integer-exact.  Criteria that restate a named claim of the
paper run it from `helly.claims`, the registry `helly repro` prints.
"""

import random
import time
from itertools import combinations

from helly import claims, constructions, geometry, hull, recognition, symmetry
from helly.bicombing import (fellow_traveler_check, normal_clique_path,
                             uniform_distance, verify_normal_clique_path)
from helly.graphs import weak_modularity


def _report(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def claim_holds(name, seconds=float("inf")):
    """Every row of the registered claim holds, each computed within `seconds`."""
    ok, start = True, time.monotonic()
    for _, good in claims.CLAIMS[name]():  # rows are computed lazily, one per step
        ok = ok and good and time.monotonic() - start < seconds
        start = time.monotonic()
    return ok


def helly_members(corpus, max_n):
    out = {}
    for name, g in corpus.items():
        if g.n <= max_n and recognition.is_helly(g).is_helly:
            out[name] = g
    return out


def test_criterion_1_classification_table():
    _report(1, "classification table, <1s each",
            claim_holds("classification-table", seconds=1.0))


def test_criterion_2_two_route_equivalence(corpus):
    start = time.monotonic()
    count = 0
    for name, g in corpus.items():
        recognition.is_helly(g)  # raises on any route disagreement
        count += 1
    assert count >= 30
    rng = random.Random(12345)
    for _ in range(500):
        n = rng.randint(2, 12)
        g = geometry.random_connected_graph(n, rng.uniform(0.15, 0.7),
                                            seed=rng.randrange(10 ** 9))
        recognition.is_helly(g)
    elapsed = time.monotonic() - start
    _report(2, f"two-route recognition, {count}+500 graphs in {elapsed:.1f}s",
            elapsed < 60.0)


def test_criterion_3_hellyfication_soundness(small_corpus):
    ok = True
    for name, g in small_corpus.items():
        hg = hull.hellyfication(g)
        ok = ok and recognition.is_helly(hg.graph).is_helly
        # isometric containment via the embedding indices
        for u in range(g.n):
            for v in range(u + 1, g.n):
                ok = ok and hg.graph.dist(hg.embed[u], hg.embed[v]) == g.dist(u, v)
        # idempotence: the hull of the hull adds nothing
        again = hull.hellyfication(hg.graph)
        ok = ok and len(again.forms) == hg.graph.n
        # exact agreement with the independent bounded-box enumeration
        ok = ok and list(hg.forms) == hull.enumerate_extremal_forms(g)
        if g.n <= 5:
            embedded = set(hg.embed)
            extra_ids = [i for i in range(len(hg.forms)) if i not in embedded]
            for r in range(len(extra_ids)):
                for keep in combinations(extra_ids, r):
                    subset = sorted(embedded | set(keep))
                    if len(subset) == len(hg.forms):
                        continue
                    try:
                        sub, _ = hg.graph.induced(subset)
                    except Exception:
                        continue
                    ok = ok and not recognition.is_helly(sub).is_helly
    _report(3, "Hellyfication soundness on n<=10 corpus", ok)


def test_criterion_4_bounded_distance(corpus):
    ok = True
    for name, g in helly_members(corpus, 60).items():
        profile = hull.hull_distance_profile(hull.hellyfication(g))
        ok = ok and profile <= 1
    _report(4, "hull distance profile <= 1 on Helly corpus (n<=60)", ok)


def test_criterion_5_bicombing(corpus):
    from test_bicombing import enumerate_normal_clique_paths
    ok = True
    for name, g in helly_members(corpus, 60).items():
        cliques = recognition.all_cliques(g)
        # uniqueness via exhaustive candidate enumeration is feasible on the
        # smaller clique sets; construction+local verification runs on all
        enumerable = len(cliques) <= 60
        for a, b in combinations(cliques, 2):
            k = uniform_distance(g, a, b)
            if k is None:
                continue
            path = normal_clique_path(g, a, b)
            ok = ok and len(path) == k
            ok = ok and verify_normal_clique_path(g, path)
            if enumerable and k >= 2:
                ok = ok and enumerate_normal_clique_paths(g, a, b) == [path.cliques]
        rep = fellow_traveler_check(g)
        ok = ok and rep.clique_constant <= 1 and rep.path_constant <= 3
    ok = ok and claim_holds("ncp-figure")
    _report(5, "normal clique-path bicombing (constants 1 and 3)", ok)


def test_criterion_6_duality():
    _report(6, "conformal/Helly duality on 2x200 random hypergraphs",
            claim_holds("helly-duality"))


def test_criterion_7_counterexample_defects():
    ok = claim_holds("zcube-defect", seconds=120.0)
    ok = claim_holds("t3-defect", seconds=120.0) and ok
    _report(7, "grid-family coarse-Helly defects (4, 8; >=n)", ok)


def test_criterion_8_construction_preservation(corpus):
    ok = claim_holds("thicken")
    helly_small = helly_members(corpus, 30)
    for name, g in helly_small.items():
        for delta in (2, 3):
            ok = ok and recognition.is_helly(constructions.rips_power(g, delta)).is_helly
        ng, _ = constructions.nerve_graph_of_cliques(g)
        ok = ok and recognition.is_helly(ng).is_helly
    for a, b in [("k3", "p5"), ("star7", "p2"), ("tree20", "k3")]:
        g, _, _ = constructions.strong_product([corpus[a], corpus[b]])
        ok = ok and recognition.is_helly(g).is_helly
    for name in ["c4", "c5", "king3x3", "bowtie", "p5"]:
        g = corpus[name]
        if recognition.is_clique_helly(g):
            fg, _ = constructions.face_graph(g)
            ok = ok and recognition.is_clique_helly(fg)
            ng, _ = constructions.nerve_graph_of_cliques(g)
            ok = ok and recognition.is_clique_helly(ng)
    glued, _ = constructions.glue_at_vertices(
        [corpus["k4"], corpus["star7"], corpus["king3x3"]],
        [(0, 0, 1, 0), (1, 2, 2, 0)])
    ok = ok and recognition.is_helly(glued).is_helly
    _report(8, "construction preservation suite", ok)


def test_criterion_9_grid_correspondence():
    _report(9, "l1/linf grid correspondence at k=1,2", claim_holds("grid-correspondence"))


def _rotation(n):
    return tuple((i + 1) % n for i in range(n))


def _king_rot90(k):
    return tuple(c * k + (k - 1 - r) for r in range(k) for c in range(k))


def _king_flip(k):
    return tuple(r * k + (k - 1 - c) for r in range(k) for c in range(k))


def _action_suite():
    g_star = geometry.star_graph(7)
    star_cycle = (0,) + tuple(1 + (i % 7) for i in range(1, 8))
    king23, _, _ = constructions.strong_product(
        [geometry.path_graph(2), geometry.path_graph(3)])
    k8 = constructions.thicken_median(geometry.hypercube_graph(3))
    # a quarter-turn of the cube acts on K8 = thickened Q3 by the same
    # vertex permutation (every permutation of K8 is an automorphism)
    cube_rot = tuple({0: 1, 1: 3, 3: 2, 2: 0, 4: 5, 5: 7, 7: 6, 6: 4}[v]
                     for v in range(8))
    fig, names = geometry.ncp_figure()
    fig_swap = (0, 1, 2, 4, 3, 5, 6, 8, 7)
    suite = [
        (g_star, [star_cycle]),
        (g_star, [(0, 2, 1, 3, 4, 5, 6, 7)]),
        (geometry.complete_graph(3), [_rotation(3)]),
        (geometry.complete_graph(3), [(1, 0, 2)]),
        (geometry.complete_graph(4), [(1, 0, 3, 2)]),
        (geometry.complete_graph(4), [(1, 2, 3, 0)]),
        (geometry.complete_graph(6), [_rotation(6)]),
        (geometry.king_graph(3, 3), [_king_rot90(3)]),
        (geometry.king_graph(3, 3), [_king_flip(3)]),
        (geometry.king_graph(3, 3), [_king_rot90(3), _king_flip(3)]),
        (geometry.king_graph(4, 4), [_king_flip(4)]),
        (geometry.king_graph(5, 5), [_king_rot90(5)]),
        (geometry.path_graph(5), [(4, 3, 2, 1, 0)]),
        (geometry.path_graph(10), [tuple(reversed(range(10)))]),
        (geometry.wheel_graph(4), [(0, 2, 3, 4, 1)]),
        (geometry.wheel_graph(5), [(0, 1, 5, 4, 3, 2)]),
        (geometry.bowtie_graph(), [(3, 4, 2, 0, 1)]),
        (k8, [cube_rot]),
        (k8, [(7, 6, 5, 4, 3, 2, 1, 0)]),
        (fig, [fig_swap]),
        (geometry.path_graph(2), [(1, 0)]),
        (king23, [(3, 4, 5, 0, 1, 2)]),
    ]
    return suite


def test_criterion_10_fixed_points():
    suite = _action_suite()
    assert len(suite) >= 20
    ok = True
    for g, gens in suite:
        action = symmetry.GroupAction.of(g, gens)
        clique = symmetry.fixed_clique(action)
        ok = ok and len(clique) >= 1 and g.is_clique(clique)
        ok = ok and all({p[v] for v in clique} == set(clique) for p in gens)
        sub, _ = symmetry.fixed_face_subgraph(action)
        ok = ok and recognition.is_helly(sub).is_helly
    _report(10, f"fixed cliques for {len(suite)} actions", ok)


def test_criterion_11_stable_intervals(corpus):
    ok = True
    for name, g in corpus.items():
        if g.n < 2 or not weak_modularity(g).holds:
            continue
        ok = ok and recognition.stable_interval_constant(g) <= 1
    _report(11, "1-stable intervals on weakly modular corpus", ok)
