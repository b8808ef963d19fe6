import random
import tracemalloc
from itertools import chain, combinations

import pytest

from helly import constructions, geometry, hull
from helly.bicombing import imprint
from helly.errors import ValidationError
from helly.graphs import (Graph, ball_star_mask, bits, is_convex, is_gated,
                          is_isometric_embedding, is_pseudo_modular, mask_of,
                          quasi_median, weak_modularity)
from helly.geometry import coarse_helly_defect
from helly.recognition import dominating_clique

from conftest import random_graphs


def test_distances_examples():
    p3 = geometry.path_graph(3)
    assert p3.dist(0, 2) == 2
    k4 = geometry.complete_graph(4)
    assert all(k4.dist(u, v) == 1 for u in range(4) for v in range(4) if u != v)
    c6 = geometry.cycle_graph(6)
    assert all(c6.dist(i, (i + 3) % 6) == 3 for i in range(6))


def test_distance_matrix_invariants(corpus):
    for name, g in corpus.items():
        if g.n <= 30:
            hull.FiniteMetric.of_graph(g).validate()
            assert all((g.dist(u, v) == 1) == bool(g.nbr_mask[u] >> v & 1)
                       for u in range(g.n) for v in range(g.n))


def test_constructor_rejects_bad_input():
    with pytest.raises(ValidationError, match=r"disconnected \(vertex 2 unreachable from 0\)"):
        Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError):
        Graph(2, [(0, 0)])  # loop
    with pytest.raises(ValidationError):
        Graph(2, [(0, 5)])  # out of range


def test_a_new_graph_caches_no_ball_list():
    # the connectivity test grows every ball of vertex 0; a long path would
    # keep n + 1 masks of n bits
    g = geometry.path_graph(300)
    assert g._ball_masks == [None] * 300
    assert g.ball_mask(0, 2) == 0b111


def test_interval_examples():
    assert geometry.cycle_graph(4).interval_mask(0, 2) == mask_of((0, 1, 2, 3))
    assert geometry.path_graph(5).interval_mask(0, 4) == mask_of((0, 1, 2, 3, 4))
    assert geometry.cycle_graph(5).interval_mask(0, 2) == mask_of((0, 1, 2))


def test_interval_endpoints_and_edges(corpus):
    rng = random.Random(5)
    for g in [corpus["king4x4"], corpus["c7"], corpus["rand9b"], corpus["sun3"]]:
        for _ in range(30):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            iv = g.interval_mask(u, v)
            assert iv >> u & 1 and iv >> v & 1
            if g.dist(u, v) == 1:
                assert iv.bit_count() == 2


def test_ball_examples():
    c6 = geometry.cycle_graph(6)
    assert c6.ball_mask(0, 1) == mask_of((0, 1, 5))
    assert ball_star_mask(c6, [0, 3], 2) == mask_of((1, 2, 4, 5))
    assert c6.ball_mask(2, c6.diameter()) == mask_of(range(6))
    assert ball_star_mask(c6, [0], 0) == mask_of((0,))
    assert ball_star_mask(c6, [0, 1], 0) == 0


def test_gated_examples():
    # a multi-vertex proper subset of a complete graph is never gated: an
    # outside vertex would need its gate on the geodesic to every target
    k4 = geometry.complete_graph(4)
    ok, witness = is_gated(k4, [0, 1, 2])
    assert not ok and witness == 3
    assert is_gated(k4, [0])[0] and is_gated(k4, list(range(4)))[0]
    c4 = geometry.cycle_graph(4)
    ok, gates = is_gated(c4, [0, 1])
    assert ok and gates == {2: 1, 3: 0}
    ok, witness = is_gated(geometry.cycle_graph(6), [0, 3])
    assert not ok and witness == 1
    # subtrees of trees are gated
    tree = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    assert is_gated(tree, [1, 3, 4])[0]


def test_gated_implies_convex(corpus):
    rng = random.Random(11)
    for g in [corpus["king4x4"], corpus["c6"], corpus["tree20"], corpus["rand10c"]]:
        for _ in range(25):
            size = rng.randint(1, max(2, g.n // 3))
            subset = rng.sample(range(g.n), size)
            ok, _ = is_gated(g, subset)
            if ok:
                assert is_convex(g, subset)


@pytest.mark.parametrize("check", [
    is_gated, is_convex, dominating_clique,
    pytest.param(lambda g, vs: imprint(g, vs, [0]), id="imprint"),
    pytest.param(lambda g, vs: coarse_helly_defect(g, vs, [1] * len(vs)), id="coarse_helly_defect"),
])
@pytest.mark.parametrize("vertices", [[99], [-1], []])
def test_vertex_lists_outside_the_graph_or_empty_are_refused(check, vertices):
    with pytest.raises(ValidationError):
        check(geometry.king_graph(3, 3), vertices)


def test_convexity_examples():
    assert is_convex(geometry.cycle_graph(5), [3])
    assert not is_convex(geometry.cycle_graph(4), [0, 2])


def test_balls_around_convex_sets_convex_in_systolic_graphs():
    # systolic members of the corpus: triangular-grid patches and trees
    for g in [geometry.t3_patch(2)[0], geometry.random_tree(14, 3), geometry.complete_graph(5)]:
        for v in range(g.n):
            for r in range(g.diameter() + 1):
                assert is_convex(g, bits(g.ball_mask(v, r)))


def test_weak_modularity_examples():
    rep = weak_modularity(geometry.cycle_graph(5))
    assert not rep.tc_holds and rep.tc_witness == (0, 2, 3)
    assert weak_modularity(geometry.cycle_graph(4)).holds
    assert weak_modularity(geometry.sun3()).holds


def test_csr_is_the_adjacency_laid_end_to_end_and_built_once_when_asked():
    for g in (geometry.path_graph(1), geometry.star_graph(6), geometry.king_graph(3, 4),
              geometry.random_tree(20, 3)):
        assert g._csr is None
        heads, offsets = g.csr()
        assert heads.tolist() == list(chain(*g.adj))
        assert offsets[-1] == 2 * len(g.edges())
        assert [heads[offsets[v]:offsets[v + 1]].tolist() for v in range(g.n)] == \
            [list(a) for a in g.adj]
        assert not (heads.flags.writeable or offsets.flags.writeable)
        again = g.csr()
        assert again[0] is heads and again[1] is offsets


def test_weak_modularity_memory_stays_under_a_megabyte():
    # what is measured is the distance matrix, which the scan builds through
    # `g.distances()` (320 KB of int16 on king 20x20), the item lists and the
    # per-block numpy temporaries.  On king 20x20 a block budget four times
    # the module's pushes the peak past the bound.
    for g in [geometry.king_graph(11, 11), geometry.king_graph(20, 20),
              constructions.strong_product([geometry.path_graph(4)] * 3)[0]]:
        tracemalloc.start()
        try:
            weak_modularity(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (g, peak)


def test_weak_modularity_items_stay_on_packed_rows():
    # the items come from packed adjacency rows and from blocks of rows of
    # the distance matrix: no n x n boolean matrix is held next to it
    g = geometry.king_graph(20, 20)
    tracemalloc.start()
    try:
        weak_modularity(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 << 10, peak


def test_distance_matrix_memory_stays_near_the_matrix():
    # the int16 matrix takes 320 KB on king 20x20 and 2 MB on C1000; the
    # packed planes of the distance bits come on top, the BFS rows and the
    # unpacked blocks of rows hardly at all
    for g, bound in [(geometry.king_graph(20, 20), 560 << 10),
                     (geometry.cycle_graph(1000), 3584 << 10)]:
        tracemalloc.start()
        try:
            g.distances()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (g, peak)


def test_pseudo_modular_examples():
    assert is_pseudo_modular(geometry.random_tree(12, 9))
    assert not is_pseudo_modular(geometry.cycle_graph(6))
    assert is_pseudo_modular(geometry.king_graph(3, 3))


def test_quasi_median_examples():
    tree = geometry.random_tree(12, 2)
    rng = random.Random(0)
    for _ in range(10):
        x, y, z = (rng.randrange(12) for _ in range(3))
        assert quasi_median(tree, x, y, z).size == 0
    qm = quasi_median(geometry.cycle_graph(6), 0, 2, 4)
    assert (qm.v1, qm.v2, qm.v3, qm.size) == (0, 2, 4, 2)
    q3 = geometry.hypercube_graph(3)
    for x, y, z in combinations(range(8), 3):
        assert quasi_median(q3, x, y, z).size == 0


def test_quasi_median_is_metric_triangle_and_equilateral_when_weakly_modular(corpus):
    rng = random.Random(3)
    for g in [corpus["sun3"], corpus["king4x4"], corpus["c5"], corpus["house"]]:
        wm = weak_modularity(g).holds
        for _ in range(40):
            x, y, z = (rng.randrange(g.n) for _ in range(3))
            qm = quasi_median(g, x, y, z)
            v1, v2, v3 = qm.vertices()
            # a metric triangle: pairwise intervals meet only at shared ends
            a, b, c = g.interval_mask(v1, v2), g.interval_mask(v2, v3), g.interval_mask(v3, v1)
            assert a & c == 1 << v1 and a & b == 1 << v2 and b & c == 1 << v3
            # the defining metric equalities of a quasi-median
            assert g.dist(x, y) == g.dist(x, v1) + g.dist(v1, v2) + g.dist(v2, y)
            assert g.dist(y, z) == g.dist(y, v2) + g.dist(v2, v3) + g.dist(v3, z)
            assert g.dist(z, x) == g.dist(z, v3) + g.dist(v3, v1) + g.dist(v1, x)
            if wm:
                assert g.dist(v1, v2) == g.dist(v2, v3) == g.dist(v3, v1) == qm.size


def test_isometric_embedding():
    c6 = geometry.cycle_graph(6)
    assert is_isometric_embedding(c6, c6, list(range(6)))
    q3 = geometry.hypercube_graph(3)
    # walk around a 6-cycle of the cube: 000,100,110,111,011,001
    assert is_isometric_embedding(c6, q3, [0, 1, 3, 7, 6, 4])
    # no injection embeds C5 isometrically into C6 (parity obstruction)
    from itertools import permutations
    c5 = geometry.cycle_graph(5)
    c6_target = geometry.cycle_graph(6)
    assert not any(is_isometric_embedding(c5, c6_target, mapping)
                   for mapping in permutations(range(6), 5))


def test_json_round_trip_and_dot(corpus):
    g = corpus["sun3"]
    text = g.to_json()
    assert Graph.from_json(text) == g
    assert text == Graph.from_json(text).to_json()
    dot = g.to_dot()
    assert dot.startswith("graph G {") and "0 -- 1" in dot


def test_random_graph_interval_properties():
    for g in random_graphs(25, 9, seed=77):
        for u in range(g.n):
            for v in range(g.n):
                iv = g.interval_mask(u, v)
                assert iv >> u & 1 and iv >> v & 1
