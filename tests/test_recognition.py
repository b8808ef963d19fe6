import random
import time
import tracemalloc
from itertools import combinations

import pytest

from helly import geometry, graphs as graphs_module, hypergraphs as hgm
from helly.errors import ResourceCapExceeded, ValidationError
from helly.graphs import Graph, is_pseudo_modular, weak_modularity
from helly.recognition import (DismantlingFailure, DismantlingOrder,
                               all_cliques, dismantling_order,
                               dominating_clique, helly_by_ball_hypergraph,
                               helly_by_ball_oracle, is_clique_helly, is_helly,
                               is_median, is_one_helly, maximal_cliques,
                               stable_interval_constant)

from conftest import random_graphs


def brute_force_maximal_cliques(g):
    out = []
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            if g.is_clique(sub):
                out.append(sub)
    return sorted(c for c in out
                  if not any(set(c) < set(d) for d in out))


def test_maximal_cliques_examples():
    assert maximal_cliques(geometry.cycle_graph(5)) == \
        [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert maximal_cliques(geometry.complete_graph(4)) == [(0, 1, 2, 3)]
    sun = geometry.sun3()
    assert maximal_cliques(sun) == brute_force_maximal_cliques(sun)
    for g in random_graphs(30, 8, seed=17):
        assert maximal_cliques(g) == brute_force_maximal_cliques(g)


def test_all_cliques_order():
    cl = all_cliques(geometry.complete_graph(3))
    assert cl == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_clique_caps(monkeypatch):
    from helly.errors import ResourceCapExceeded
    with pytest.raises(ResourceCapExceeded):
        all_cliques(geometry.complete_graph(5), cap=10)
    # caps, not the recursion limit, bound enumeration on deep cliques
    k1100 = geometry.complete_graph(1100)
    assert maximal_cliques(k1100) == [tuple(range(1100))]
    with pytest.raises(ResourceCapExceeded):
        all_cliques(k1100, cap=2000)
    monkeypatch.setenv("HELLY_MAX_CLIQUES", "2")
    with pytest.raises(ResourceCapExceeded):
        maximal_cliques(geometry.cycle_graph(5))


def test_the_clique_cap_stops_the_enumeration():
    # the complement of 11 disjoint triangles has 3^11 = 177,147 maximal
    # cliques; listing them all takes about 7 MB of masks
    g = Graph(33, [(a, b) for a, b in combinations(range(33), 2) if a // 3 != b // 3])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapExceeded) as e:
            maximal_cliques(g, cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == "maximal clique count exceeds cap 10"
    assert peak < 64 << 10


def test_clique_helly_examples():
    assert is_clique_helly(geometry.cycle_graph(4))
    assert not is_clique_helly(geometry.sun3())
    assert is_clique_helly(geometry.complete_graph(6))


def test_clique_helly_agrees_with_berge_duchet_on_clique_hypergraph():
    for g in random_graphs(60, 9, seed=23):
        h = hgm.Hypergraph.of(g.n, maximal_cliques(g))
        assert is_clique_helly(g) == hgm.helly_property(h)


def test_one_helly_examples():
    assert is_one_helly(geometry.cycle_graph(7))
    assert not is_one_helly(geometry.cycle_graph(4))
    assert is_one_helly(geometry.star_graph(9))


def test_dismantling_examples():
    assert isinstance(dismantling_order(geometry.random_tree(15, 4)), DismantlingOrder)
    fail = dismantling_order(geometry.cycle_graph(4))
    assert isinstance(fail, DismantlingFailure)
    assert fail.stuck_vertices == (0, 1, 2, 3)
    for k in (3, 4, 5):
        assert isinstance(dismantling_order(geometry.king_graph(k, k)), DismantlingOrder)


def test_dismantling_a_long_tree_rescans_only_changed_neighbourhoods():
    # a rescan of every live vertex after each removal takes about 5 s here
    g = geometry.random_tree(3000, 1)
    start = time.perf_counter()
    assert isinstance(dismantling_order(g), DismantlingOrder)
    assert time.perf_counter() - start < 1.0


def test_dismantling_order_is_valid():
    g = geometry.king_graph(4, 4)
    order = dismantling_order(g)
    live = set(range(g.n))
    for v, dom in zip(order.order[:-1], order.dominator[:-1]):
        b_v = {x for x in live if g.dist(v, x) <= 1}
        b_dom = {x for x in live if g.dist(dom, x) <= 1}
        # domination within the remaining induced subgraph
        sub, ids = g.induced(sorted(live))
        pos = {x: i for i, x in enumerate(ids)}
        bv = {x for x in live if x == v or (sub.nbr_mask[pos[v]] >> pos[x]) & 1}
        bd = {x for x in live if x == dom or (sub.nbr_mask[pos[dom]] >> pos[x]) & 1}
        assert bv <= bd and dom != v
        live.remove(v)


def test_greedy_confluence_under_relabelings():
    rng = random.Random(31)
    for g in [geometry.king_graph(4, 4), geometry.random_tree(12, 5),
              geometry.complete_graph(5), geometry.wheel_graph(5)]:
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in g.edges()]
            assert isinstance(dismantling_order(Graph(g.n, edges)), DismantlingOrder)


def test_helly_report_examples():
    assert not is_helly(geometry.sun3()).is_helly
    prod, _, _ = __import__("helly.constructions", fromlist=["strong_product"]) \
        .strong_product([geometry.complete_graph(3), geometry.complete_graph(4)])
    assert is_helly(prod).is_helly
    assert not is_helly(geometry.cycle_graph(7)).is_helly
    rep = is_helly(geometry.king_graph(3, 3))
    assert rep.is_helly and rep.is_dismantlable and rep.is_clique_helly and rep.is_one_helly
    assert "dismantling_order" in rep.certificate


def test_implication_chains(corpus):
    for name, g in corpus.items():
        if g.n > 80:
            continue
        rep = is_helly(g)
        if rep.is_helly:
            assert rep.is_one_helly
            assert is_pseudo_modular(g)
        if rep.is_one_helly:
            assert rep.is_clique_helly
        if is_pseudo_modular(g):
            assert weak_modularity(g).holds


def test_two_route_equivalence_random():
    for g in random_graphs(150, 10, seed=41):
        is_helly(g)  # raises InvariantViolation on route disagreement


def test_ball_hypergraph_route_agrees(corpus):
    for name, g in corpus.items():
        if g.n <= 40:
            assert helly_by_ball_hypergraph(g) == is_helly(g).is_helly, name
    for g in random_graphs(40, 9, seed=43):
        assert helly_by_ball_hypergraph(g) == is_helly(g).is_helly


def test_ball_oracle_small(small_corpus):
    for name, g in small_corpus.items():
        assert helly_by_ball_oracle(g) == is_helly(g).is_helly, name
    with pytest.raises(ValidationError):
        helly_by_ball_oracle(geometry.king_graph(4, 4))


def test_stable_interval_examples():
    assert stable_interval_constant(geometry.random_tree(10, 6)) == 1
    assert stable_interval_constant(geometry.cycle_graph(6)) == 2
    assert stable_interval_constant(geometry.king_graph(5, 5)) == 1


def test_stable_interval_weakly_modular(corpus):
    for name, g in corpus.items():
        if g.n <= 100 and g.n >= 2 and weak_modularity(g).holds:
            assert stable_interval_constant(g) <= 1, name


def test_helly_implies_stable_le_1(corpus):
    for name, g in corpus.items():
        if g.n <= 60 and g.n >= 2 and is_helly(g).is_helly:
            assert stable_interval_constant(g) <= 1, name


def test_is_median_examples():
    assert is_median(geometry.hypercube_graph(3))
    assert not is_median(geometry.complete_graph(3))
    assert is_median(geometry.grid_graph(4, 4))
    assert not is_median(geometry.king_graph(3, 3))
    # K_{2,3}: modular, but its three degree-2 vertices have two medians
    k23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert weak_modularity(k23).holds and not is_median(k23)
    # C6: bipartite and K_{2,3}-free, but not weakly modular
    c6 = geometry.cycle_graph(6)
    assert not weak_modularity(c6).holds and not is_median(c6)
    assert is_median(geometry.cycle_graph(4))
    assert is_median(geometry.random_tree(20, 5))


def test_dominating_clique_examples():
    g = geometry.king_graph(3, 3)
    assert dominating_clique(g, [0]) == (0,)
    assert dominating_clique(g, [7]) == (3,)  # least vertex within distance 1
    c4 = geometry.cycle_graph(4)
    assert dominating_clique(c4, range(4)) == (0, 1)
    p6 = geometry.path_graph(6)
    assert dominating_clique(p6, [0, 5]) is None
    # diameter-3 guarantee holds in 7-systolic graphs; trees and complete
    # graphs qualify (triangular-grid patches do not: their interior links
    # are 6-cycles, and they indeed admit undominated diameter-3 sets)
    rng = random.Random(3)
    tree = geometry.random_tree(14, 8)
    for _ in range(25):
        s = rng.sample(range(tree.n), 3)
        if max(tree.dist(a, b) for a in s for b in s) <= 3:
            assert dominating_clique(tree, s) is not None
    k5 = geometry.complete_graph(5)
    assert dominating_clique(k5, range(5)) == (0,)
    patch, _ = geometry.t3_patch(2)
    assert dominating_clique(patch, [10, 17, 3, 6]) is None


def test_is_helly_and_is_median_share_one_weak_modularity_scan(monkeypatch):
    scan, scans = graphs_module._wm_items, []

    def counted(g):
        scans.append(g)
        return scan(g)

    monkeypatch.setattr(graphs_module, "_wm_items", counted)
    g = geometry.grid_graph(6, 6)
    assert not is_helly(g).is_helly and is_median(g)
    assert scans == [g]
    assert weak_modularity(g) == weak_modularity(geometry.grid_graph(6, 6))
    assert len(scans) == 2
