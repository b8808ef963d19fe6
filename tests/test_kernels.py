"""Property tests: the pruned kernels against plain sweeps and oracles."""

import json
import random
import time
import tracemalloc
from collections import deque
from functools import reduce
from dataclasses import astuple, replace
from itertools import combinations, groupby, permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helly import (bicombing, constructions, geometry, graphs as graphs_module, hull,
                   hypergraphs as hypergraphs_module, recognition)
from helly.bicombing import (_steps, fellow_traveler_check, imprint, is_normal_path,
                             max_distance, min_distance, normal_clique_path, normal_paths)
from helly.errors import HellyPreconditionError, InvariantViolation, ValidationError
from helly.graphs import (Graph, WeakModularityReport, as_vertex_set, bits, mask_of,
                          weak_modularity)
from helly.hypergraphs import (Hypergraph, berge_duchet, helly_property_certified,
                               helly_property_oracle, is_conformal_certified)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw, max_n=10, min_n=1):
    """Connected graph: a random spanning tree plus random extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges += [(u, v) for u, v in extra if u != v]
    return Graph(n, edges)


def unit_balls(g):
    """The masks of the unit balls B_1(v) = N(v) | {v}."""
    return [m | 1 << v for v, m in enumerate(g.nbr_mask)]


@st.composite
def hypergraphs(draw, max_n=10, max_edges=10):
    n = draw(st.integers(1, max_n))
    edge = st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
    return Hypergraph.of(n, draw(st.lists(edge, min_size=1, max_size=max_edges)))


@st.composite
def helly_graphs(draw):
    """Small Helly graphs: random trees, kings up to 4x4, thickened median graphs."""
    kind = draw(st.sampled_from(["tree", "king", "thick"]))
    if kind == "tree":
        return geometry.random_tree(draw(st.integers(1, 14)), draw(st.integers(0, 999)))
    if kind == "king":
        return geometry.king_graph(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    median = draw(st.sampled_from([
        geometry.grid_graph(2, 3), geometry.grid_graph(3, 3), geometry.hypercube_graph(3),
        constructions.glue_at_vertices([geometry.hypercube_graph(3), geometry.path_graph(4)],
                                       [(0, 7, 1, 0)])[0]]))
    return constructions.thicken_median(median)


@st.composite
def mostly_bipartite_graphs(draw):
    """Graphs where median ones are common: random bipartite graphs, trees,
    grids, and blocks (cubes, even cycles, cliques, K_{a,b} with
    2 <= a, b <= 3), alone or two glued at a vertex, plus some arbitrary
    graphs.  Even cycles past C4 are not weakly modular, cliques past K2 are
    weakly modular but not bipartite, and K_{2,3} and K_{3,3} are modular but
    not median."""

    def block():
        kind = draw(st.sampled_from(["biclique", "cube", "cycle", "clique"]))
        if kind == "biclique":
            a, b = draw(st.integers(2, 3)), draw(st.integers(2, 3))
            return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        if kind == "cube":
            return geometry.hypercube_graph(draw(st.integers(1, 3)))
        if kind == "cycle":
            return geometry.cycle_graph(2 * draw(st.integers(2, 5)))
        return geometry.complete_graph(draw(st.integers(1, 4)))

    kind = draw(st.sampled_from(["bipartite", "bipartite", "tree", "grid", "block", "glued",
                                 "any"]))
    if kind == "bipartite":
        n = draw(st.integers(1, 12))
        parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
        side = [0]
        for p in parents:
            side.append(1 - side[p])
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=n))
        return Graph(n, list(zip(parents, range(1, n)))
                     + [(u, v) for u, v in extra if side[u] != side[v]])
    if kind == "tree":
        return geometry.random_tree(draw(st.integers(1, 14)), draw(st.integers(0, 999)))
    if kind == "grid":
        return geometry.grid_graph(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    if kind == "block":
        return block()
    if kind == "glued":
        a, b = block(), block()
        return constructions.glue_at_vertices(
            [a, b], [(0, draw(st.integers(0, a.n - 1)), 1, draw(st.integers(0, b.n - 1)))])[0]
    return draw(graphs(max_n=12))


@st.composite
def weighted_metrics(draw, max_n):
    """Shortest-path metrics of random graphs with edge lengths 1..4."""
    g = draw(graphs(max_n=max_n))
    inf = 4 * g.n
    d = [[0 if x == y else inf for y in range(g.n)] for x in range(g.n)]
    for x, y in g.edges():
        d[x][y] = d[y][x] = draw(st.integers(1, 4))
    for z, x, y in product(range(g.n), repeat=3):
        d[x][y] = min(d[x][y], d[x][z] + d[z][y])
    return hull.FiniteMetric.of(d)


@st.composite
def l1_metrics(draw, max_n, max_dim):
    """l1 metrics of point sets in {0..3}^dim, 1 <= dim <= max_dim."""
    dim = draw(st.integers(1, max_dim))
    point = st.tuples(*[st.integers(0, 3)] * dim)
    pts = sorted(draw(st.sets(point, min_size=1, max_size=max_n)))
    return hull.FiniteMetric.of([[sum(abs(a - b) for a, b in zip(p, q)) for q in pts]
                                 for p in pts])


def small_metrics():
    """Metrics on at most 6 points: graph, weighted-graph and l1 metrics."""
    return st.one_of(graphs(max_n=6).map(hull.FiniteMetric.of_graph), weighted_metrics(6),
                     l1_metrics(6, 3))


def medium_metrics():
    """Graph metrics on 7..12 points, weighted-graph metrics and l1 metrics."""
    return st.one_of(graphs(max_n=12, min_n=7).map(hull.FiniteMetric.of_graph),
                     weighted_metrics(10), l1_metrics(12, 4))


def plain_berge_duchet(h):
    """Every vertex triple, in lexicographic order."""
    masks = h.edge_masks()

    def cap(x, y):
        c = (1 << h.n) - 1
        for m in masks:
            if (m >> x) & (m >> y) & 1:
                c &= m
        return c

    for x, y, z in combinations(range(h.n), 3):
        if cap(x, y) & cap(x, z) & cap(y, z) == 0:
            return False, (x, y, z)
    return True, None


def plain_gilmore(h):
    """Every edge triple, in lexicographic order."""
    masks = h.edge_masks()
    for i, j, k in combinations(range(len(masks)), 3):
        need = (masks[i] & masks[j]) | (masks[i] & masks[k]) | (masks[j] & masks[k])
        if not any(m & need == need for m in masks):
            return False, (i, j, k)
    return True, None


def plain_triple_criterion(n, pair_cap, near):
    """The triple walk before `hypergraphs.berge_duchet`, kept as an oracle.

    Lexicographically least triple x < y < z of the triangles of `near`
    whose pair caps pair_cap(x, y) & pair_cap(x, z) & pair_cap(y, z) are
    empty, with each cap computed once, on first use.
    """
    caps = {}

    def cap(x, y):
        key = x * n + y
        c = caps.get(key)
        if c is None:
            c = caps[key] = pair_cap(x, y)
        return c

    for x in range(n):
        above_x = near[x] >> (x + 1) << (x + 1)
        for y in bits(above_x):
            cxy = cap(x, y)
            for z in bits(above_x & near[y] >> (y + 1) << (y + 1)):
                if cxy & cap(x, z) & cap(y, z) == 0:
                    return (x, y, z)
    return None


def plain_helly_witness(h):
    """Berge-Duchet on the edges: caps over the edges holding a pair."""
    masks, full = h.edge_masks(), (1 << h.n) - 1

    def pair_cap(x, y):
        need = (1 << x) | (1 << y)
        cap = full
        for m in masks:
            if m & need == need:
                cap &= m
        return cap

    return plain_triple_criterion(h.n, pair_cap, hypergraphs_module.two_section_masks(h))


def plain_gilmore_witness(h):
    """Gilmore: the cap of an edge pair is the set of edges containing its
    intersection, walked over the triangles of the line graph."""
    masks = h.edge_masks()

    def pair_cap(i, j):
        need = masks[i] & masks[j]
        cap = 0
        for k, m in enumerate(masks):
            if m & need == need:
                cap |= 1 << k
        return cap

    return plain_triple_criterion(len(masks), pair_cap, hypergraphs_module._line_masks(masks))


def plain_one_helly_witness(g):
    """Berge-Duchet on the unit balls, walked over the balls of radius 2."""
    ball1, full = unit_balls(g), (1 << g.n) - 1

    def pair_cap(x, y):
        cap = full
        for v in bits(ball1[x] & ball1[y]):
            cap &= ball1[v]
        return cap

    return plain_triple_criterion(g.n, pair_cap, [g.ball_mask(x, 2) for x in range(g.n)])


def plain_all_balls_witness(g):
    """Berge-Duchet on all balls: the cap of x, y is the intersection over v
    of the least ball around v holding both; no triple is pruned."""
    n, rows = g.n, plain_dist_rows(g)

    def pair_cap(x, y):
        cap = (1 << n) - 1
        for v in range(n):
            cap &= g.ball_mask(v, max(rows[v][x], rows[v][y]))
        return cap

    return plain_triple_criterion(n, pair_cap, [(1 << n) - 1] * n)


def all_balls(g):
    return sorted({g.ball_mask(v, r) for v in range(g.n) for r in range(g.diameter() + 1)})


def plain_dist_rows(g):
    """Distance rows by one deque BFS per source, as `Graph.dist_row` runs
    before `Graph.distances` exists."""
    rows = []
    for u in range(g.n):
        row = [-1] * g.n
        row[u] = 0
        queue = deque([u])
        while queue:
            x = queue.popleft()
            dx = row[x] + 1
            for y in g.adj[x]:
                if row[y] < 0:
                    row[y] = dx
                    queue.append(y)
        rows.append(row)
    return rows


def plain_is_median(g):
    ivals = {(u, v): g.interval_mask(u, v) for u in range(g.n) for v in range(g.n)}
    return all((ivals[u, v] & ivals[v, w] & ivals[u, w]).bit_count() == 1
               for u, v, w in combinations(range(g.n), 3))


def plain_level_masks(g, u):
    """Masks of the BFS levels of u, read off its distance row."""
    row = g.dist_row(u)
    levels = [0] * (max(row) + 1)
    for v, d in enumerate(row):
        levels[d] |= 1 << v
    return levels


def plain_ball_masks(g, v):
    """B_0(v), ..., B_ecc(v)(v) as prefix unions of the BFS levels."""
    prefix = []
    acc = 0
    for level in plain_level_masks(g, v):
        acc |= level
        prefix.append(acc)
    return prefix


def plain_weak_modularity(g):
    """Source by source: TC over the edges in lex order, then QC over z,
    then over pairs v < w of neighbours of z one level closer to u."""
    n = g.n
    edge_list = g.edges()
    tc_witness = None
    for u in range(n):
        if tc_witness:
            break
        row = g.dist_row(u)
        levels = plain_level_masks(g, u)
        for v, w in edge_list:
            k = row[v]
            if k != row[w] or k == 0:
                continue
            common = g.nbr_mask[v] & g.nbr_mask[w] & levels[k - 1]
            if not common:
                tc_witness = (u, v, w)
                break
    qc_witness = None
    for u in range(n):
        if qc_witness:
            break
        row = g.dist_row(u)
        levels = plain_level_masks(g, u)
        for z in range(n):
            k = row[z]
            if k < 2:
                continue
            near = [x for x in g.adj[z] if row[x] == k - 1]
            stop = False
            for i, v in enumerate(near):
                for w in near[i + 1:]:
                    if (g.nbr_mask[v] >> w) & 1:
                        continue
                    if not (g.nbr_mask[v] & g.nbr_mask[w] & levels[k - 2]):
                        qc_witness = (u, z, v, w)
                        stop = True
                        break
                if stop:
                    break
            if stop:
                break
    return WeakModularityReport(tc_witness is None, qc_witness is None,
                                tc_witness, qc_witness)


def plain_interval_mask(g, u, v):
    ru, rv = g.dist_row(u), g.dist_row(v)
    return mask_of(x for x in range(g.n) if ru[x] + rv[x] == ru[v])


def plain_thicken_median(g):
    """Every pair u < v whose interval induces a d(u, v)-cube."""
    edges = []
    for u, v in combinations(range(g.n), 2):
        k, m = g.dist(u, v), plain_interval_mask(g, u, v)
        if m.bit_count() == 1 << k and all((g.nbr_mask[x] & m).bit_count() == k
                                           for x in bits(m)):
            edges.append((u, v))
    return Graph(g.n, edges)


def four_point(d, q):
    i, j, k, l = q
    s = sorted((d[i][j] + d[k][l], d[i][k] + d[j][l], d[i][l] + d[j][k]))
    return s[2] - s[1]


def plain_hyperbolicity(g):
    """The sweep of `geometry.hyperbolicity` over all pairs by decreasing
    distance, each against every (k, l), with its plain witness scan: the
    version before the far-apart reduction, kept as an oracle."""
    n = g.n
    if n < 4:
        return geometry.HyperbolicityResult(0, tuple(range(min(n, 4))))
    rows = [g.dist_row(u) for u in range(n)]
    d = np.array(rows, dtype=np.int64)
    pairs = sorted(((i, j) for i in range(n) for j in range(i + 1, n)),
                   key=lambda p: -rows[p[0]][p[1]])
    best = 0
    for i, j in pairs:
        dij = rows[i][j]
        if 2 * dij <= best:
            break
        s1 = d + dij                     # d(i,j) + d(k,l)
        s2 = np.add.outer(d[i], d[j])    # d(i,k) + d(j,l)
        s3 = s2.T                        # d(i,l) + d(j,k)
        hi = np.maximum(np.maximum(s1, s2), s3)
        lo = np.minimum(np.minimum(s1, s2), s3)
        m = int((2 * hi + lo - s1 - s2 - s3).max())  # hi - mid
        if m > best:
            best = m
    return geometry.HyperbolicityResult(best, plain_least_quadruple(g, best))


def plain_least_quadruple(g, value):
    """Lexicographically least quadruple whose four-point value is `value`.

    A quadruple's value is at most twice each of its six distances, so only
    vertices pairwise at distance >= value/2, outside each other's balls of
    radius (value - 1) // 2, are combined.
    """
    n = g.n
    rows = [g.dist_row(u) for u in range(n)]
    far = [~g.ball_mask(u, (value - 1) // 2) & ((1 << n) - 1) for u in range(n)]
    for i in range(n):
        ri = rows[i]
        for j in bits(far[i] >> (i + 1) << (i + 1)):
            rj, dij = rows[j], ri[j]
            fij = far[i] & far[j]
            for k in bits(fij >> (j + 1) << (j + 1)):
                rk = rows[k]
                for l in bits(fij & far[k] >> (k + 1) << (k + 1)):
                    s1, s2, s3 = dij + rk[l], ri[k] + rj[l], ri[l] + rj[k]
                    if 2 * max(s1, s2, s3) + min(s1, s2, s3) - s1 - s2 - s3 == value:
                        return (i, j, k, l)
    raise InvariantViolation(f"no quadruple attains four-point value {value}")


def unit_ball_hypergraph(g):
    return Hypergraph.of(g.n, [tuple(v for v in range(g.n) if g.dist(c, v) <= 1)
                               for c in range(g.n)])


@SETTINGS
@given(hypergraphs())
def test_berge_duchet_kernel_matches_plain_sweep(h):
    assert helly_property_certified(h) == plain_berge_duchet(h)


@SETTINGS
@given(hypergraphs(max_edges=12))
def test_gilmore_kernel_matches_plain_sweep(h):
    assert is_conformal_certified(h) == plain_gilmore(h)


@SETTINGS
@given(hypergraphs(max_n=8, max_edges=8))
def test_berge_duchet_kernel_matches_subfamily_oracle(h):
    assert helly_property_certified(h)[0] == helly_property_oracle(h)


@SETTINGS
@given(graphs())
def test_one_helly_against_oracles(g):
    one = recognition.is_one_helly(g)
    assert one == helly_property_oracle(unit_ball_hypergraph(g))
    # Helly graphs are exactly the weakly modular 1-Helly graphs
    helly = recognition.helly_by_ball_oracle(g)
    assert (weak_modularity(g).holds and one) == helly
    assert recognition.helly_by_ball_hypergraph(g) == helly


BLOCK_CELLS = st.sampled_from([1, 20, graphs_module.WM_BLOCK_CELLS])


@SETTINGS
@given(hypergraphs(max_edges=12), BLOCK_CELLS)
def test_berge_duchet_witnesses_match_plain_triple_walk_on_hypergraphs(h, cells):
    # small budgets split the pairs and triples into many runs and the caps
    # into many steps, so caps are read off the run or built past it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraphs_module, "WM_BLOCK_CELLS", cells)
        assert helly_property_certified(h)[1] == plain_helly_witness(h)
        assert is_conformal_certified(h)[1] == plain_gilmore_witness(h)
        d = hypergraphs_module.dual(h)
        assert helly_property_certified(d)[1] == plain_helly_witness(d)


@SETTINGS
@given(graphs(max_n=12), BLOCK_CELLS)
def test_berge_duchet_witnesses_match_plain_triple_walk_on_ball_families(g, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraphs_module, "WM_BLOCK_CELLS", cells)
        assert berge_duchet(g.n, unit_balls(g)) == plain_one_helly_witness(g)
        assert berge_duchet(g.n, all_balls(g)) == plain_all_balls_witness(g)


def one_helly_families():
    rng = random.Random(11)
    yield from (geometry.grid_graph(a, b) for a in range(2, 7) for b in range(a, 9))
    yield from (geometry.cycle_graph(n) for n in range(3, 30))
    yield from (geometry.king_graph(a, a + 2) for a in range(1, 6))
    yield from (geometry.random_connected_graph(rng.randint(10, 40), rng.uniform(0.05, 0.3),
                                                rng.randrange(1000)) for _ in range(25))


@pytest.mark.parametrize("cells", [1, 300, graphs_module.WM_BLOCK_CELLS])
def test_one_helly_witnesses_match_plain_triple_walk_across_blocks(monkeypatch, cells):
    monkeypatch.setattr(hypergraphs_module, "WM_BLOCK_CELLS", cells)
    for g in one_helly_families():
        assert berge_duchet(g.n, unit_balls(g)) == plain_one_helly_witness(g), g


@pytest.mark.parametrize("n, family, witness", [
    (0, [], None),
    (1, [0b1], None),
    (2, [0b11, 0b01, 0b10], None),
    (3, [], None),
    (3, [0b011, 0b110, 0b101], (0, 1, 2)),
    (5, [0b00110, 0b01100, 0b01010], (1, 2, 3)),            # vertices 0 and 4 in no member
    (3, [0b011, 0b110, 0b011, 0b101, 0b110], (0, 1, 2)),    # repeated members
    (4, [0b0001, 0b0010, 0b0100, 0b1000], None),            # one-vertex members only
    (4, [0b0011, 0b0110, 0b0101, 0b0111], (0, 1, 2)),       # a member over the triangle
    (4, [0b0111, 0b0011, 0b0110], None),                    # nested members
    (4, [0b0001, 0b0011, 0b0110, 0b0101, 0b1000], (0, 1, 2)),
])
def test_berge_duchet_edge_cases(n, family, witness):
    got = berge_duchet(n, family)
    assert got == witness
    assert got is None or all(type(v) is int for v in got)
    h = Hypergraph.of(n, [list(bits(m)) for m in family if m])
    assert got == plain_helly_witness(h) == plain_berge_duchet(h)[1]


@pytest.mark.parametrize("edges, witness", [
    ([(0, 1), (2, 3), (4, 5)], None),                       # pairwise disjoint edges
    ([(0, 1), (1, 2), (2, 3)], None),                       # a disjoint pair
    ([(0, 1), (1, 2), (0, 2), (5, 6)], (0, 1, 2)),
    ([(5, 6), (0, 1), (1, 2), (0, 2)], (1, 2, 3)),
    ([(0, 1), (1, 2), (0, 2), (0, 1, 2)], None),
    ([(0,), (0,), (0, 1)], None),
])
def test_gilmore_edge_cases(edges, witness):
    h = Hypergraph.of(7, edges)
    assert is_conformal_certified(h) == (witness is None, witness) == plain_gilmore(h)
    assert plain_gilmore_witness(h) == witness


def test_grids_leave_the_one_helly_scan_at_the_first_pair():
    for a, b in ((3, 3), (8, 8), (10, 10), (4, 20)):
        assert berge_duchet(a * b, unit_balls(geometry.grid_graph(a, b))) == (0, 1, b)


def hub_graph(n, cycle):
    """A cycle on 0..cycle-1 with a hub, vertex `cycle`, on vertex 0 and
    the vertices cycle+1..n-1 as the hub's leaves: the hub is in about n
    unit balls."""
    edges = [(i, (i + 1) % cycle) for i in range(cycle)] + [(0, cycle)]
    return Graph(n, edges + [(cycle, v) for v in range(cycle + 1, n)])


def traced_peak(f):
    tracemalloc.start()
    try:
        out = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_berge_duchet_memory_stays_bounded_on_a_star():
    # the centre is in every unit ball; a gather of each vertex's holder rows
    # would take 500 x 500 x 8 words (16 MB)
    star = Graph(500, [(0, v) for v in range(1, 500)])
    one, peak = traced_peak(lambda: recognition.is_one_helly(star))
    assert one and peak < 2 << 20


def test_berge_duchet_memory_stays_bounded_past_a_hub():
    # C6 is not 1-Helly, and its least failing triple comes before the hub's
    g = hub_graph(2000, 6)
    balls = unit_balls(g)
    witness, peak = traced_peak(lambda: berge_duchet(g.n, balls))
    assert witness == plain_one_helly_witness(hub_graph(12, 6)) == (0, 2, 4)
    assert peak < 4 << 20


def test_hypergraph_tests_on_one_edge_over_many_vertices_stay_small():
    # 2-section rows over all 50,000 vertices would take 312 MB
    h = Hypergraph.of(50000, [[0, 1]])
    out, peak = traced_peak(lambda: (helly_property_certified(h), is_conformal_certified(h)))
    assert out == ((True, None), (True, None)) and peak < 4 << 20


def check_distances(g):
    d = g.distances()
    assert d.dtype == np.min_scalar_type(-g.n) and d.shape == (g.n, g.n)
    assert not d.flags.writeable and d is g.distances()
    assert d.tolist() == plain_dist_rows(g)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65])
def test_distance_matrix_matches_bfs_rows_around_word_boundaries(n):
    check_distances(geometry.path_graph(n))
    check_distances(geometry.complete_graph(n))
    check_distances(geometry.random_connected_graph(n, 0.1, n))


@pytest.mark.parametrize("g", [geometry.path_graph(200), geometry.complete_graph(130),
                               geometry.cycle_graph(129), geometry.king_graph(11, 13),
                               geometry.random_tree(150, 2)])
def test_distance_matrix_matches_bfs_rows_on_larger_graphs(g):
    check_distances(g)


@pytest.mark.parametrize("cells", [1, 7, 300, graphs_module.WM_BLOCK_CELLS])
def test_distance_matrix_matches_bfs_rows_across_blocks(monkeypatch, cells):
    # small budgets split the adjacency lists into many reduceat spans, down
    # to one vertex each; a hub's list is a span of its own
    monkeypatch.setattr(graphs_module, "WM_BLOCK_CELLS", cells)
    for g in (geometry.path_graph(70), geometry.cycle_graph(9), geometry.complete_graph(66),
              hub_graph(80, 5), geometry.king_graph(5, 7), geometry.random_tree(90, 4)):
        check_distances(Graph(g.n, list(g.edges())))


@SETTINGS
@given(st.one_of(graphs(max_n=20), mostly_bipartite_graphs()))
def test_distance_matrix_matches_bfs_rows(g):
    rows = [g.dist_row(u) for u in range(0, g.n, 2)]  # half the rows by BFS first
    check_distances(g)
    assert [g.dist_row(u) for u in range(0, g.n, 2)] == rows


def test_dist_row_after_the_matrix_is_a_list_of_python_ints():
    # hull forms are JSON-dumped, and numpy integers are not JSON
    g = geometry.king_graph(3, 4)
    g.distances()
    row = g.dist_row(5)
    assert type(row) is list and all(type(v) is int for v in row)
    assert row == plain_dist_rows(g)[5] and g.dist_row(5) is row
    metric = hull.FiniteMetric.of_graph(g)
    assert json.loads(json.dumps(metric.d)) == plain_dist_rows(g)


@SETTINGS
@given(graphs(max_n=12))
def test_hyperbolicity_matches_oracle_and_lex_least_witness(g):
    res = geometry.hyperbolicity(g)
    assert res.two_delta == geometry.hyperbolicity_oracle(g)
    if g.n >= 4:
        d = [g.dist_row(u) for u in range(g.n)]
        first = next(q for q in combinations(range(g.n), 4)
                     if four_point(d, q) == res.two_delta)
        assert res.witness == first


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=20, max_n=60))
def test_hyperbolicity_on_far_apart_pairs_matches_pair_ordered_sweep(g):
    assert geometry.hyperbolicity(g) == plain_hyperbolicity(g)


@pytest.mark.parametrize("cells", [1, 50])
def test_hyperbolicity_matches_pair_ordered_sweep_across_blocks(monkeypatch, cells):
    # one or a few outer pairs per block; on the random graph of 40 vertices
    # the cutoff ends the sweep 18 far-apart pairs before the last
    monkeypatch.setattr(geometry, "WM_BLOCK_CELLS", cells)
    for g in (geometry.cycle_graph(9), geometry.king_graph(4, 5), geometry.random_tree(30, 1),
              geometry.random_connected_graph(30, 0.15, 1),
              geometry.random_connected_graph(40, 0.1, 2)):
        assert geometry.hyperbolicity(g) == plain_hyperbolicity(g)


@st.composite
def block_graphs(draw, spoil=False):
    """Cliques of 2 to 5 vertices, each glued at one vertex to the graph so
    far (a tree when all have 2).  With `spoil`, one more edge, which mostly
    merges the blocks between its ends into one that is not a clique."""
    n, edges = 1, []
    for _ in range(draw(st.integers(0, 6))):
        at, size = draw(st.integers(0, n - 1)), draw(st.integers(1, 4))
        edges += combinations([at, *range(n, n + size)], 2)
        n += size
    if spoil and n > 2:
        edges.append(tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                         unique=True))))
    return Graph(n, edges)


def plain_blocks_are_cliques(g):
    """Every two vertices that are not adjacent are cut apart by a third.

    Two vertices of one block of 3 or more vertices stay joined when any
    one vertex is removed, and two vertices of different blocks are cut
    apart by a cut vertex between them, so this holds iff every block is a
    clique."""
    def joined(u, v, w):
        seen, stack = {u, w}, [u]
        while stack:
            for y in g.adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return v in seen

    return all(any(not joined(u, v, w) for w in range(g.n) if w not in (u, v))
               for u, v in combinations(range(g.n), 2) if not g.nbr_mask[u] >> v & 1)


@SETTINGS
@given(st.one_of(block_graphs(), block_graphs(spoil=True), graphs(max_n=12)))
def test_block_graph_test_matches_vertex_cuts_and_zero_hyperbolicity(g):
    blocks = geometry._blocks_are_cliques(g)
    assert blocks == plain_blocks_are_cliques(g)
    if g.n >= 4:  # 0-hyperbolic iff every block is a clique (Howorka)
        assert blocks == (geometry.hyperbolicity_oracle(g) == 0)


@settings(max_examples=60, deadline=None)
@given(st.one_of(block_graphs(), block_graphs(spoil=True)))
def test_hyperbolicity_of_block_graphs_matches_the_sweep(g):
    res = geometry.hyperbolicity(g)
    assert res == plain_hyperbolicity(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_blocks_are_cliques", lambda g: False)
        assert geometry.hyperbolicity(g) == res


@pytest.mark.parametrize("g", [
    geometry.complete_graph(256), geometry.random_tree(256, 1), geometry.star_graph(255),
    constructions.glue_at_vertices([geometry.complete_graph(40)] * 6,
                                   [(i, 39, i + 1, 0) for i in range(5)])[0]])
def test_block_graphs_skip_the_far_apart_sweep(monkeypatch, g):
    # the sweep took 8-11 s on K_256 on a 2-core Xeon: every pair is far-apart
    def sweep(*args):
        raise AssertionError("far-apart pairs of a block graph")
    monkeypatch.setattr(geometry, "_far_apart", sweep)
    assert geometry.hyperbolicity(g) == geometry.HyperbolicityResult(0, (0, 1, 2, 3))


def test_block_graph_test_needs_no_recursion():
    assert geometry._blocks_are_cliques(geometry.path_graph(20000))
    assert not geometry._blocks_are_cliques(geometry.cycle_graph(20000))
    assert not geometry._blocks_are_cliques(geometry.king_graph(2, 3))
    # a triangle at 0 gets past the pre-test, so the search walks the whole cycle
    chord = Graph(20000, geometry.cycle_graph(20000).edges() + [(0, 2)])
    assert not geometry._blocks_are_cliques(chord)


def networkx_blocks_are_cliques(g):
    """Oracle: every biconnected component (networkx) is a clique."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return all(h.subgraph(c).number_of_edges() == len(c) * (len(c) - 1) // 2
               for c in nx.biconnected_components(h))


@SETTINGS
@given(st.one_of(graphs(max_n=14), block_graphs(), block_graphs(spoil=True)))
def test_block_graph_test_matches_networkx_biconnected_components(g):
    assert geometry._blocks_are_cliques(g) == networkx_blocks_are_cliques(g)


@pytest.mark.parametrize("g", [*map(geometry.cycle_graph, (3, 4, 5, 40)),
                               geometry.grid_graph(2, 2), geometry.grid_graph(3, 5),
                               geometry.king_graph(6, 6), geometry.path_graph(5),
                               geometry.complete_graph(6)])
def test_block_graph_pre_test_on_cycles_and_grids(g):
    assert geometry._blocks_are_cliques(g) == networkx_blocks_are_cliques(g)


@pytest.mark.parametrize("g", [geometry.path_graph(2), geometry.path_graph(9),
                               geometry.star_graph(5)]
                         + [geometry.random_tree(n, seed) for n, seed in
                            ((12, 1), (40, 2), (100, 3))])
def test_far_apart_pairs_of_a_tree_are_its_leaf_pairs(g):
    d = np.array([g.dist_row(u) for u in range(g.n)])
    leaves = [v for v in range(g.n) if len(g.adj[v]) == 1]
    pairs = list(zip(*(a.tolist() for a in geometry._far_apart(g, d))))
    assert sorted(pairs) == list(combinations(leaves, 2))
    assert [g.dist(i, j) for i, j in pairs] == sorted((g.dist(i, j) for i, j in pairs),
                                                      reverse=True)


def check_far_apart(g):
    # far-apart: no neighbour of x is farther from y, and none of y from x;
    # the pairs i < j by decreasing distance, ties in lex order
    d = plain_dist_rows(g)
    plain = sorted(((x, y) for x, y in combinations(range(g.n), 2)
                    if all(d[z][y] <= d[x][y] for z in g.adj[x])
                    and all(d[x][z] <= d[x][y] for z in g.adj[y])),
                   key=lambda p: -d[p[0]][p[1]])
    pairs = geometry._far_apart(g, np.array(d))
    assert list(zip(*(a.tolist() for a in pairs))) == plain


@SETTINGS
@given(st.one_of(graphs(min_n=2, max_n=30), mostly_bipartite_graphs()))
def test_far_apart_pairs_match_the_definition(g):
    check_far_apart(g)


@pytest.mark.parametrize("g", [geometry.star_graph(40), geometry.wheel_graph(30),
                               geometry.complete_graph(25), geometry.king_graph(7, 9),
                               geometry.king_graph(1, 12)])
def test_far_apart_pairs_match_the_definition_on_uneven_degrees(g):
    check_far_apart(g)


# -- route A: dismantling and clique-Helly, against the plain loops -----------


def plain_clique_helly_certified(g):
    """The extended-triangle scan: each triangle in lex order, each vertex of
    its extended triangle in order, until one is universal to it."""
    ball1 = unit_balls(g)
    for u, v, w in recognition.triangles(g):
        b1u, b1v, b1w = ball1[u], ball1[v], ball1[w]
        ext = (b1u & b1v) | (b1u & b1w) | (b1v & b1w)
        if not any(ext & ~ball1[c] == 0 for c in bits(ext)):
            return False, (u, v, w)
    return True, None


def plain_dismantling_order(g):
    """Greedy dismantling that rescans every live vertex after each removal;
    it stops at the first live set with no dominated vertex."""
    live, ball1 = (1 << g.n) - 1, unit_balls(g)
    order, doms = [], []
    while live.bit_count() > 1:
        step = next(((v, y) for v in bits(live) for y in bits(g.nbr_mask[v] & live)
                     if ball1[v] & live & ~ball1[y] == 0), None)
        if step is None:
            return recognition.DismantlingFailure(tuple(bits(live)))
        v, y = step
        order.append(v)
        doms.append(y)
        live &= ~(1 << v)
    return recognition.DismantlingOrder(tuple(order) + tuple(bits(live)), tuple(doms) + (-1,))


@st.composite
def route_a_graphs(draw):
    """Kings, complete graphs, wheels, sun3, triangular patches and strong
    products of paths: dismantlable graphs, clique-Helly or not."""
    kind = draw(st.sampled_from(["king", "complete", "wheel", "sun", "patch", "product"]))
    if kind == "king":
        return geometry.king_graph(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    if kind == "complete":
        return geometry.complete_graph(draw(st.integers(1, 14)))
    if kind == "wheel":
        return geometry.wheel_graph(draw(st.integers(3, 12)))
    if kind == "sun":
        return geometry.sun3()
    if kind == "patch":
        return geometry.t3_patch(draw(st.integers(1, 3)))[0]
    factors = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    return constructions.strong_product([geometry.path_graph(k) for k in factors])[0]


ROUTE_A_CELLS = st.sampled_from([1, 3, 20, graphs_module.WM_BLOCK_CELLS])


def route_a_patched(mp, cells):
    # the dominator rows are built by `graphs._meet`, which reads graphs' bound
    mp.setattr(recognition, "WM_BLOCK_CELLS", cells)
    mp.setattr(graphs_module, "WM_BLOCK_CELLS", cells)


@SETTINGS
@given(st.one_of(graphs(max_n=12), route_a_graphs()), ROUTE_A_CELLS)
def test_clique_helly_matches_the_extended_triangle_scan(g, cells):
    # a few words per block: one edge per block, so triangles straddle blocks
    with pytest.MonkeyPatch.context() as mp:
        route_a_patched(mp, cells)
        assert recognition.is_clique_helly_certified(g) == plain_clique_helly_certified(g)


@SETTINGS
@given(st.one_of(graphs(max_n=12), route_a_graphs(), helly_graphs()))
def test_dismantling_matches_the_full_rescan(g):
    assert recognition.dismantling_order(g) == plain_dismantling_order(g)


def exhaustively_dismantlable(g):
    """Whether some elimination order dismantles g: a depth-first search, on
    an explicit stack, over the live sets that removals of dominated
    vertices reach; n <= 9, so it visits at most 2^9 sets."""
    assert g.n <= 9
    ball1, seen, stack = unit_balls(g), set(), [(1 << g.n) - 1]
    while stack:
        live = stack.pop()
        if live.bit_count() == 1:
            return True
        for v in bits(live):
            rest = live & ~(1 << v)
            if rest not in seen and any(ball1[v] & live & ~ball1[y] == 0
                                        for y in bits(g.nbr_mask[v] & live)):
                seen.add(rest)
                stack.append(rest)
    return False


def check_dismantling_against_the_exhaustive_search(g):
    """Greedy fails iff no elimination order exists, and a stuck set has at
    least two vertices, none of them dominated in it; True on a failure."""
    out = recognition.dismantling_order(g)
    failed = isinstance(out, recognition.DismantlingFailure)
    assert failed != exhaustively_dismantlable(g), g
    if failed:
        live, ball1 = mask_of(out.stuck_vertices), unit_balls(g)
        assert len(out.stuck_vertices) >= 2, g
        assert not any(ball1[v] & live & ~ball1[y] == 0
                       for v in bits(live) for y in bits(g.nbr_mask[v] & live)), g
    return failed


def test_greedy_dismantling_fails_iff_no_elimination_order_exists():
    # the greedy verdict needs no search: a stuck set is a retract of g
    # with no dominated vertex
    rng = random.Random(27)
    failed = sum(check_dismantling_against_the_exhaustive_search(
        geometry.random_connected_graph(rng.randint(1, 9), rng.uniform(0, 0.7), seed))
        for seed in range(3000))
    assert 300 <= failed <= 2700, failed


@SETTINGS
@given(graphs(max_n=9))
def test_greedy_dismantling_agrees_with_the_exhaustive_search(g):
    check_dismantling_against_the_exhaustive_search(g)


def route_a_families():
    rng = random.Random(11)
    yield geometry.sun3()
    yield from (geometry.t3_patch(r)[0] for r in range(1, 5))
    yield from (geometry.king_graph(a, b) for a in range(1, 7) for b in range(a, 7))
    yield from (geometry.wheel_graph(k) for k in range(3, 9))
    yield constructions.strong_product([geometry.path_graph(4)] * 3)[0]
    yield from (geometry.random_connected_graph(rng.randint(8, 30), rng.uniform(0.1, 0.6),
                                                rng.randrange(1000)) for _ in range(30))


@pytest.mark.parametrize("cells", [1, 50, graphs_module.WM_BLOCK_CELLS])
def test_route_a_matches_the_plain_loops_across_blocks(monkeypatch, cells):
    # failing triangles past the first block, several failing blocks, and
    # the witness in none but the earliest of them
    route_a_patched(monkeypatch, cells)
    failing = 0
    for g in route_a_families():
        want = plain_clique_helly_certified(g)
        assert recognition.is_clique_helly_certified(g) == want, g
        assert recognition.dismantling_order(g) == plain_dismantling_order(g), g
        failing += not want[0]
    assert failing >= 10


def test_clique_helly_memory_stays_under_a_mebibyte():
    # the rows D of K_150 take 268 KB; all (triangle, candidate) pairs would
    # take gigabytes, and the unblocked kernel held 109 MB
    for g in (geometry.king_graph(20, 20), geometry.complete_graph(150)):
        out, peak = traced_peak(lambda: recognition.is_clique_helly_certified(g))
        assert out == (True, None) and peak < 1 << 20, (g, peak)


@SETTINGS
@given(mostly_bipartite_graphs())
def test_is_median_matches_plain_sweep(g):
    assert recognition.is_median(g) == plain_is_median(g)


@SETTINGS
@given(st.one_of(graphs(max_n=12), mostly_bipartite_graphs()),
       st.sampled_from([1, 20, graphs_module.WM_BLOCK_CELLS]))
def test_weak_modularity_matches_plain_scan(g, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs_module, "WM_BLOCK_CELLS", cells)
        assert weak_modularity(g) == plain_weak_modularity(g)


def weak_modularity_families():
    rng = random.Random(7)
    yield from (geometry.king_graph(a, b) for a in range(1, 9) for b in range(a, 9))
    yield from (geometry.cycle_graph(n) for n in range(3, 41))
    yield from (geometry.random_tree(rng.randint(1, 60), rng.randrange(1000)) for _ in range(20))
    # sparse graphs past graphs(max_n=12): pairs failing QC with several
    # common neighbours, where the least z and the least pair disagree
    yield from (geometry.random_connected_graph(rng.randint(13, 30), rng.uniform(0.05, 0.35),
                                                rng.randrange(1000)) for _ in range(20))


@pytest.mark.parametrize("cells", [1, 300, graphs_module.WM_BLOCK_CELLS])
def test_weak_modularity_matches_plain_scan_across_blocks(monkeypatch, cells):
    # small budgets split the sources into many blocks, so witnesses are
    # found past the first block and the two conditions finish in different ones
    monkeypatch.setattr(graphs_module, "WM_BLOCK_CELLS", cells)
    for g in weak_modularity_families():
        assert weak_modularity(g) == plain_weak_modularity(g), g


@SETTINGS
@given(st.one_of(graphs(), mostly_bipartite_graphs()), st.data())
def test_ball_mask_matches_row_prefix_in_any_request_order(g, data):
    # radii are asked for in a drawn order, so a ball list grown part of the
    # way is later extended; level_masks is read at a drawn point of that
    for v in range(g.n):
        balls = plain_ball_masks(g, v)
        radii = data.draw(st.permutations(range(-1, len(balls) + 2)))
        split = data.draw(st.integers(0, len(radii)))
        for i, r in enumerate(radii):
            if i == split:
                assert g.level_masks(v) == plain_level_masks(g, v)
            assert g.ball_mask(v, r) == (balls[min(r, len(balls) - 1)] if r >= 0 else 0)
        assert g.level_masks(v) == plain_level_masks(g, v)


def plain_isometric_embedding_exists(g, pattern):
    return any(graphs_module.is_isometric_embedding(pattern, g, image)
               for image in permutations(range(g.n), pattern.n))


@SETTINGS
@given(graphs(max_n=7), graphs(max_n=5))
def test_isometric_embedding_search_matches_all_injections(g, pattern):
    assert geometry.isometric_embedding_exists(g, pattern) == \
        plain_isometric_embedding_exists(g, pattern)


@SETTINGS
@given(graphs())
def test_interval_mask_matches_row_definition(g):
    for u in range(g.n):
        for v in range(g.n):
            assert g.interval_mask(u, v) == plain_interval_mask(g, u, v)


@SETTINGS
@given(mostly_bipartite_graphs())
def test_thicken_median_matches_all_pairs(g):
    assume(recognition.is_median(g))
    assert constructions.thicken_median(g) == plain_thicken_median(g)


def plain_unit_neighbors(m, f):
    """Every f + delta, delta in {-1,0,1}^n nonzero, that is an extremal form."""
    out = []
    for delta in product((-1, 0, 1), repeat=m.n):
        g = tuple(a + b for a, b in zip(f, delta))
        if any(delta) and hull.is_metric_form(m, g) and hull.is_extremal(m, g):
            out.append(g)
    return out


# the interval-domain search that `hull._unit_neighbors` replaced, kept as an
# oracle that is not limited to 3^n brute force
def interval_unit_neighbors(m, f):
    """All extremal forms at sup-distance exactly 1 from the extremal form f.

    Backtracking over per-coordinate moves in {-1,0,+1} with unit
    propagation, over the pairs of slack s = f(x) + f(y) - d(x, y) <= 1;
    y == x, with s = 2 f(x), is one of them when f(x) = 0.  They bound the
    move sums from below (a metric-form condition; larger slacks cannot be
    violated by unit moves), and each coordinate needs one of them whose
    move sum realizes -s (tightness, hence extremality of the result).
    Larger slacks are never needed for tightness: a coordinate that moves
    by -1 has a partner z of slack 0 in f, which must move by +1 and so
    stays tight, and any other move leaves a tight partner of slack
    -move(x) - move(y) <= 1.

    Each coordinate's domain is an interval [lo, hi]: it starts as [-1, 1],
    or [0, 1] when f(x) = 0, propagation only raises lower bounds
    (move(y) >= -s - hi[x]) and branching fixes one value.  The sums of two
    integer intervals fill an interval, so a partner y can still be tight
    exactly when lo[x] + lo[y] <= -s <= hi[x] + hi[y]; the diagonal partner
    needs no special case.  Only branching lowers an upper bound, and while
    hi[x] = 1 the rule bounds nothing (-s - 1 <= -1 <= lo[y]), so every new
    lower bound comes from the coordinate just fixed and propagation is one
    step: raise its partners' lower bounds, then recheck tightness at every
    changed coordinate and its partners.  No domain empties: s >= 0, so a
    free y keeps -s - move(x) <= 1 = hi[y], and a fixed y bounded x from
    below when it was fixed.  The search runs on an explicit stack and
    undoes domain changes through a trail.
    """
    n = m.n
    d = m.d
    near = [[] for _ in range(n)]  # (y, slack <= 1); y == x encodes the diagonal
    for x in range(n):
        fx = f[x]
        dx = d[x]
        for y in range(n):
            s = fx + f[y] - dx[y]
            if s <= 1:
                near[x].append((y, s))

    # branch in BFS order over the slack<=1 graph so constraints bind early
    order = []
    seen = [False] * n
    head = 0
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            order.append(root)
        while head < len(order):
            x = order[head]
            head += 1
            for y, _ in near[x]:
                if not seen[y]:
                    seen[y] = True
                    order.append(y)

    lo = [-1 if f[x] > 0 else 0 for x in range(n)]  # f(x)=0 forbids the -1 move
    hi = [1] * n
    trail = []  # (x, lo, hi) before each change

    def tight_possible(x):
        lx, hx = lo[x], hi[x]
        for y, s in near[x]:
            if lx + lo[y] <= -s <= hx + hi[y]:
                return True
        return False

    def consistent(changed):
        """Each changed coordinate and each of its partners can still be tight."""
        for x in changed:
            if not tight_possible(x):
                return False
            for y, _ in near[x]:
                if not tight_possible(y):
                    return False
        return True

    out = []
    stack = [(0, -1, 0)]  # (depth, next move, trail mark)
    while stack:
        i, move, mark = stack.pop()
        while len(trail) > mark:
            z, lo[z], hi[z] = trail.pop()
        x = order[i]
        if move < lo[x]:
            move = lo[x]
        if move > hi[x]:
            continue
        stack.append((i, move + 1, mark))
        trail.append((x, lo[x], hi[x]))
        lo[x] = hi[x] = move
        changed = [x]
        for y, s in near[x]:
            if -s - move > lo[y]:  # move(y) >= -s - hi[x]
                trail.append((y, lo[y], hi[y]))
                lo[y] = -s - move
                changed.append(y)
        if not consistent(changed):
            continue
        if i + 1 < n:
            stack.append((i + 1, -1, len(trail)))
        elif any(lo):
            out.append(tuple(f[z] + lo[z] for z in range(n)))
    return sorted(out)


def all_unit_neighbors(m, f):
    """The sorted unit neighbours of f, from the search kernel with every
    coordinate of {f > 0} open and none required in P."""
    t0, t1, _, _ = plain_partner_masks(m, f)
    open0 = mask_of(x for x in range(m.n) if f[x] > 0)
    return sorted(tuple(v - (mm >> x & 1) + (pp >> x & 1) for x, v in enumerate(f))
                  for mm, pp in hull._unit_neighbors(t0, t1, open0, 0))


def upward_neighbors(m, forms):
    """The sorted upward neighbours of each form, from one frontier search per
    layer (the forms of one minimum)."""
    found = {}
    for _, layer in groupby(sorted(forms, key=min), key=min):
        layer = list(layer)
        neighbors = list(hull._frontier_neighbors(np.array(m.d), layer))
        assert len(neighbors) == len(layer)
        found.update((f, sorted(a)) for f, a in zip(layer, neighbors))
    return [found[f] for f in forms]


def upward(forms, neighbors):
    """Each form's neighbours g with min g = min f + 1."""
    return [[g for g in a if min(g) == min(f) + 1] for f, a in zip(forms, neighbors)]


@settings(max_examples=100, deadline=None)
@given(small_metrics())
def test_unit_neighbors_match_brute_force_over_unit_moves(m):
    forms = hull.enumerate_extremal_forms(m)
    expected = [plain_unit_neighbors(m, f) for f in forms]
    assert [all_unit_neighbors(m, f) for f in forms] == expected
    assert upward_neighbors(m, forms) == upward(forms, expected)


@settings(max_examples=100, deadline=None)
@given(medium_metrics())
def test_unit_neighbors_match_the_interval_domain_search(m):
    forms = hull.hellyfication(m).forms
    expected = [interval_unit_neighbors(m, f) for f in forms]
    assert [all_unit_neighbors(m, f) for f in forms] == expected
    assert upward_neighbors(m, forms) == upward(forms, expected)


@pytest.mark.parametrize("cells", [1, 50, 300])
def test_unit_neighbors_match_the_interval_domain_search_across_blocks(monkeypatch, cells):
    # one form per block, a few, and blocks that end inside a layer
    monkeypatch.setattr(hull, "WM_BLOCK_CELLS", cells)
    for g in (geometry.cycle_graph(7), geometry.grid_graph(2, 3), geometry.path_graph(4)):
        m = hull.FiniteMetric.of_graph(g)
        forms = hull.enumerate_extremal_forms(m)
        expected = upward(forms, [interval_unit_neighbors(m, f) for f in forms])
        assert upward_neighbors(m, forms) == expected


def test_hull_search_that_misses_a_leaf_is_an_invariant_violation(monkeypatch):
    # C6 keeps all 14 forms when one leaf of e(0) is dropped, as each of its
    # 8 layer-1 forms has three neighbours in layer 0; only the cross-check
    # sees the loss
    search, calls = hull._unit_neighbors, []

    def drop_first_leaf(*masks):
        calls.append(None)
        leaves = search(*masks)
        return leaves[1:] if len(calls) == 1 else leaves

    monkeypatch.setattr(hull, "_unit_neighbors", drop_first_leaf)
    with pytest.raises(InvariantViolation, match="^hull search found 23 upward neighbours, "
                                                 "sup-distance 1 gives 24$"):
        hull.hellyfication(geometry.cycle_graph(6))


# the edge-tuple constructor that `hull._unit_graph` replaced
def plain_hull_graph(forms):
    """The graph of the pairs of forms at sup-distance 1, from its edge list."""
    return Graph(len(forms), [(i, j) for i, j in combinations(range(len(forms)), 2)
                              if hull.sup_distance(forms[i], forms[j]) == 1])


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_metrics(), medium_metrics()), st.sampled_from([None, 1, 200]))
def test_hull_graph_from_arrays_matches_the_edge_list_constructor(m, cells):
    # one row of S per block, a few, and the default blocks
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(hull, "WM_BLOCK_CELLS", cells)
            mp.setattr(hull, "CERTIFICATE_BYTES", cells * 8)
        hg = hull.hellyfication(m)
    plain = plain_hull_graph(hg.forms)
    assert (hg.graph.n, hg.graph.adj, hg.graph.edges()) == (plain.n, plain.adj, plain.edges())
    assert hg.graph.nbr_mask == plain.nbr_mask
    for built, expected in zip(hg.graph.csr(), plain.csr()):
        assert built.dtype == expected.dtype and np.array_equal(built, expected)
        assert not built.flags.writeable


# the n^2 scan per form that `hull._partner_masks` replaced
def plain_partner_masks(m, f):
    """T0 and T1 of f: bit y of t0[x] (t1[x]) when f(x) + f(y) - d(x, y) is 0 (1);
    then the masks {f >= min f + 2} and {f = min f}."""
    t0 = [0] * m.n
    t1 = [0] * m.n
    for x in range(m.n):
        for y in range(m.n):
            s = f[x] + f[y] - m.d[x][y]
            if s == 0:
                t0[x] |= 1 << y
            elif s == 1:
                t1[x] |= 1 << y
    return (t0, t1, mask_of(x for x in range(m.n) if f[x] >= min(f) + 2),
            mask_of(x for x in range(m.n) if f[x] == min(f)))


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 150), st.randoms(use_true_random=False))
def test_bitmasks_are_the_rows_as_ints_across_64_bit_words(k, n, rng):
    b = np.array([[[rng.random() < 0.5 for _ in range(n)] for _ in range(2)] for _ in range(k)])
    assert graphs_module._row_masks(b) == [mask_of(np.flatnonzero(row).tolist())
                                           for row in b.reshape(-1, n)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_metrics(), medium_metrics()), st.data())
def test_partner_masks_match_the_plain_scan(m, data):
    # on the hull's forms and on vectors that are not forms, with slacks below 0
    vector = st.tuples(*[st.integers(0, 1 + max(r)) for r in m.d])
    forms = list(hull.hellyfication(m).forms) + data.draw(st.lists(vector, max_size=4))
    masks = hull._partner_masks(np.array(m.d), np.array(forms))
    assert masks == [plain_partner_masks(m, f) for f in forms]


# the BFS-row check that `hull._check_hull_distances` replaced
def bfs_hull_distances(forms, graph):
    """Raise unless the graph distance of each pair of vertices is the sup-distance
    of their forms, compared one BFS row per vertex."""
    for i in range(len(forms)):
        if graph.dist_row(i) != np.abs(forms - forms[i]).max(1).tolist():
            raise InvariantViolation("unit-step graph distance != sup-metric")


@st.composite
def hull_graphs(draw):
    """A hull as built, or with a form or an edge changed."""
    hg = hull.hellyfication(draw(st.one_of(small_metrics(), medium_metrics())))
    forms, edges, count = np.array(hg.forms), hg.graph.edges(), len(hg.forms)
    pairs = list(combinations(range(count), 2))
    kind = draw(st.sampled_from(["none", "drop", "add", "move", "copy", "swap"]
                                if count > 1 else ["none"]))
    if kind == "drop":
        edges.remove(draw(st.sampled_from(edges)))
    elif kind == "add":
        absent = [e for e in pairs if e not in set(edges)]
        assume(absent)
        edges.append(draw(st.sampled_from(absent)))
    elif kind == "move":
        forms[draw(st.integers(0, count - 1)), draw(st.integers(0, forms.shape[1] - 1))] += (
            draw(st.sampled_from([-1, 1])))
    elif kind == "copy":
        i, j = draw(st.sampled_from(pairs))
        forms[i] = forms[j]
    elif kind == "swap":
        i, j = draw(st.sampled_from(pairs))
        forms[[i, j]] = forms[[j, i]]
    try:
        return replace(hg, forms=tuple(map(tuple, forms.tolist())), graph=Graph(count, edges))
    except ValidationError:
        assume(False)  # the dropped edge was a bridge


@settings(max_examples=150, deadline=None)
@given(hull_graphs())
def test_hull_distance_certificate_matches_bfs_rows(hg):
    # alone, and inside the validator, where a changed form may fail an earlier check
    forms = np.array(hg.forms)
    assert (outcome(hull._check_hull_distances, forms, hg.graph)
            == outcome(bfs_hull_distances, forms, hg.graph))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hull, "_check_hull_distances", bfs_hull_distances)
        expected = outcome(hull._validate_hull, hg)
    assert outcome(hull._validate_hull, hg) == expected


@pytest.mark.parametrize("cells", [1, 200])
def test_hull_distance_certificate_matches_bfs_rows_across_blocks(monkeypatch, cells):
    monkeypatch.setattr(hull, "WM_BLOCK_CELLS", cells)
    monkeypatch.setattr(hull, "CERTIFICATE_BYTES", cells * 8)
    hg = hull.hellyfication(geometry.cycle_graph(7))
    forms, edges = np.array(hg.forms), hg.graph.edges()
    extra = next(e for e in combinations(range(len(forms)), 2) if e not in set(edges))
    broken = (InvariantViolation, "unit-step graph distance != sup-metric")
    for graph, expected in ((hg.graph, None), (Graph(len(forms), edges[1:]), broken),
                            (Graph(len(forms), edges + [extra]), broken)):
        assert outcome(hull._check_hull_distances, forms, graph) == expected
        assert outcome(bfs_hull_distances, forms, graph) == expected


def plain_level_sets(g, t, s):
    """Vertices at each position of a normal (t, s)-path, by iterated imprints."""
    levels = [{s}]
    for _ in range(g.dist(t, s) - 1):
        levels.append({w for v in levels[-1] for w in imprint(g, (t,), (v,))})
    if t != s:
        levels.append({t})
    return [tuple(sorted(lv)) for lv in reversed(levels)]


def plain_synchronized_gap(a, b, dist):
    long, short = (a, b) if len(a) >= len(b) else (b, a)
    k = len(short) - 1
    return max(dist(x, short[i] if i <= k else short[k]) for i, x in enumerate(long))


def plain_tuples(g, max_tuples=None, seed=0):
    """Every 4-tuple listed, then sampled."""
    close = [(u, u) for u in range(g.n)]
    close += [e for u, v in g.edges() for e in ((u, v), (v, u))]
    close.sort()
    tuples = [(p, q, s, t) for p, q in close for s, t in close]
    if max_tuples is not None and len(tuples) > max_tuples:
        tuples = sorted(random.Random(seed).sample(tuples, max_tuples))
    return tuples


def plain_fellow_traveler(g, max_tuples=None, seed=0):
    """`plain_tuples` with both gaps rebuilt per tuple."""
    tuples = plain_tuples(g, max_tuples, seed)
    clique = path = (0, None)
    for p, q, s, t in tuples:
        cg = plain_synchronized_gap(normal_clique_path(g, p, s).cliques,
                                    normal_clique_path(g, q, t).cliques,
                                    lambda a, b: min_distance(g, a, b))
        if cg > clique[0]:
            clique = (cg, (p, q, s, t))
        pg = plain_synchronized_gap(plain_level_sets(g, p, s), plain_level_sets(g, q, t),
                                    lambda a, b: max_distance(g, a, b))
        if pg > path[0]:
            path = (pg, (p, q, s, t))
    return clique[0], path[0], clique[1], path[1], len(tuples)


def geodesics(g, t, s):
    k = g.dist(t, s)
    paths = [(t,)]
    for i in range(k - 1, -1, -1):
        paths = [p + (w,) for p in paths for w in g.adj[p[-1]] if g.dist(w, s) == i]
    return paths


@settings(max_examples=30, deadline=None)
@given(helly_graphs(), st.data())
def test_fellow_traveler_matches_plain_per_tuple_loop(g, data):
    squared = (g.n + 2 * len(list(g.edges()))) ** 2
    # small budgets make witnesses with p != q likely
    budget = data.draw(st.one_of(st.none(), st.integers(0, 30), st.integers(0, squared - 1)))
    seed = data.draw(st.integers(0, 99))
    rep = fellow_traveler_check(g, max_tuples=budget, seed=seed)
    assert (rep.clique_constant, rep.path_constant, rep.clique_witness, rep.path_witness,
            rep.tuples_checked) == plain_fellow_traveler(g, budget, seed)


@SETTINGS
@given(graphs(), st.data())
def test_imprints_of_cliques_are_cliques_one_step_closer_in_any_graph(g, data):
    # the proof in `bicombing._clique_path` that lets the path build take
    # each imprint as a clique unchecked, whether or not g is Helly
    cliques = recognition.all_cliques(g)
    tau = data.draw(st.sampled_from(cliques))
    far = [c for c in cliques if max_distance(g, tau, c) >= 2]
    if far:
        sigma = data.draw(st.sampled_from(far))
        try:
            step = tuple(bits(bicombing.imprint_mask(g, tau, sigma)))
        except HellyPreconditionError:
            return
        assert g.is_clique(step)
        assert max_distance(g, tau, step) == max_distance(g, tau, sigma) - 1


def checked(g, budget=None, seed=0):
    """`fellow_traveler_check` as the tuple `plain_fellow_traveler` returns."""
    return astuple(fellow_traveler_check(g, budget, seed))


def plain_checked(g, budget=None, seed=0):
    """`plain_fellow_traveler`, raising as the check does past clique
    constant 1 or path constant 3."""
    report = bicombing.FellowTravelerReport(*plain_fellow_traveler(g, budget, seed))
    if report.clique_constant > 1 or report.path_constant > 3:
        raise InvariantViolation(f"fellow traveler constants exceeded: {report}")
    return astuple(report)


def outcome(check, *args):
    """What `check(*args)` returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except (ValidationError, InvariantViolation) as e:
        return type(e), str(e)


def test_fellow_traveler_raises_like_plain_loop_on_fixed_non_helly_graphs():
    for g in (geometry.cycle_graph(4), geometry.cycle_graph(6), geometry.grid_graph(3, 3)):
        for budget in (None, 5):
            expected = outcome(plain_checked, g, budget, 1)
            assert expected[0] is HellyPreconditionError
            assert outcome(checked, g, budget, 1) == expected
    # this sample meets no empty imprint, and its clique constant is 3
    g = Graph(8, [(0, 1), (1, 2), (1, 3), (2, 4), (2, 7), (3, 5), (5, 6), (6, 7)])
    expected = outcome(plain_checked, g, 7, 95)
    assert expected[0] is InvariantViolation
    assert outcome(checked, g, 7, 95) == expected


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=8, min_n=4).filter(lambda g: not recognition.is_helly(g).is_helly),
       st.one_of(st.none(), st.integers(0, 40)), st.integers(0, 99))
def test_fellow_traveler_raises_like_plain_loop_on_non_helly_graphs(g, budget, seed):
    assert outcome(checked, g, budget, seed) == outcome(plain_checked, g, budget, seed)


def test_fellow_traveler_matches_plain_loop_across_blocks():
    g = geometry.random_tree(30, 2)
    rep = fellow_traveler_check(g)
    # one block holds WM_BLOCK_CELLS distance cells, one per position per tuple here
    assert rep.tuples_checked * (g.diameter() + 1) > 2 * bicombing.WM_BLOCK_CELLS
    assert checked(g) == plain_fellow_traveler(g)


@pytest.mark.parametrize("cells", [1, 97])
def test_fellow_traveler_matches_plain_loop_in_small_blocks(monkeypatch, cells):
    # one or a few tuples per block.  The sampled kings have different clique
    # and path witnesses.  The samples of long cycles miss the antipodal
    # pairs, so no imprint is empty and the constants are exceeded: the
    # report in the message has its witnesses at tuples 6, 7 and 9.
    monkeypatch.setattr(bicombing, "WM_BLOCK_CELLS", cells)
    monkeypatch.setattr(graphs_module, "WM_BLOCK_CELLS", cells)  # `_meet`'s gathers
    for a, b, budget, seed in ((3, 4, None, 0), (2, 3, 20, 17), (2, 4, 10, 16)):
        g = geometry.king_graph(a, b)
        assert checked(g, budget, seed) == plain_fellow_traveler(g, budget, seed)
    for n, seed in ((8, 20), (10, 3), (12, 4)):
        g = geometry.cycle_graph(n)
        report = bicombing.FellowTravelerReport(*plain_fellow_traveler(g, 10, seed))
        assert report.clique_constant > 1
        with pytest.raises(InvariantViolation) as e:
            fellow_traveler_check(g, 10, seed)
        assert str(e.value) == f"fellow traveler constants exceeded: {report}"


def packed_masks(rows):
    """Packed rows as int masks: bit v is bit v & 7 of byte v >> 3."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]



# -- the packed-row kernels of `graphs` ----------------------------------------


@st.composite
def mask_lists(draw):
    """A width of 1 to 200 bits and int masks over it, empty and full ones among them."""
    width = draw(st.integers(1, 200))
    full = (1 << width) - 1
    return width, draw(st.lists(st.one_of(st.just(0), st.just(full), st.integers(0, full)),
                                max_size=12))


@SETTINGS
@given(mask_lists(), st.integers(0, 2))
def test_mask_rows_and_packed_rows_round_trip(drawn, extra):
    width, masks = drawn
    words = (width + 63) // 64 + extra
    rows = graphs_module._mask_rows(masks, words)
    assert rows.dtype == np.uint64 and rows.shape == (len(masks), words)
    assert packed_masks(rows) == masks
    table = np.array([[m >> v & 1 for v in range(width)] for m in masks], bool)
    assert packed_masks(graphs_module._packed(table.reshape(-1, width), words)) == masks
    assert [mask_of(np.flatnonzero(row).tolist()) for row in table] == masks
    vertices = [v for m in masks for v in bits(m)]
    singletons = graphs_module._singletons(np.array(vertices, np.intp), words)
    assert packed_masks(singletons) == [1 << v for v in vertices]
    after = graphs_module._after(np.array(vertices, np.intp), words)
    assert packed_masks(after) == [(1 << 64 * words) - (2 << v) for v in vertices]
    r, v = np.divmod(np.arange(len(masks) * width), width)
    assert (graphs_module._holds(rows, r, v).tolist()
            == [m >> x & 1 for m in masks for x in range(width)])


@SETTINGS
@given(mask_lists(), st.one_of(st.none(), st.integers(1, 70)))
def test_set_bits_walk_the_rows_in_row_major_order(drawn, limit):
    # a bound below one row's bits splits rows across chunks
    width, masks = drawn
    rows = graphs_module._mask_rows(masks, (width + 63) // 64)
    chunks = list(graphs_module._set_bits(rows, limit))
    got = [(int(r), int(v)) for row, vertex in chunks for r, v in zip(row, vertex)]
    assert got == [(i, v) for i, m in enumerate(masks) for v in bits(m)]
    assert len(chunks) == 1 or all(len(row) for row, _ in chunks)
    if limit is None:
        assert len(chunks) == 1
    else:
        assert all(len(row) <= limit for row, _ in chunks)


@SETTINGS
@given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=6), max_size=10),
       st.integers(1, 3), st.integers(1, 12),
       st.sampled_from([np.bitwise_and, np.bitwise_or, np.minimum, np.maximum]),
       st.randoms(use_true_random=False))
def test_segmented_reduce_matches_a_reduce_per_segment(segments, width, limit, ufunc, rng):
    # a budget of a few cells puts one or a few segments in each span
    table = np.array([[rng.randrange(256) for _ in range(width)] for _ in range(8)], np.uint64)
    index = np.array([j for s in segments for j in s], np.intp)
    offsets = np.cumsum([0] + list(map(len, segments)))
    out = graphs_module._reduce_segments(ufunc, table, index, offsets, limit)
    assert out.dtype == table.dtype and out.shape == (len(segments), width)
    assert out.tolist() == [reduce(ufunc, table[s]).tolist() for s in segments]
    given_out = np.zeros_like(out)
    assert graphs_module._reduce_segments(ufunc, table, index, offsets, limit,
                                          given_out) is given_out
    assert (given_out == out).all()


@SETTINGS
@given(st.lists(st.lists(st.integers(0, 99), min_size=1, max_size=6), min_size=1, max_size=10))
def test_padded_segments_repeat_their_last_entry(segments):
    index = np.array([j for s in segments for j in s], np.intp)
    table = graphs_module._padded(index, np.cumsum([0] + list(map(len, segments))))
    wide = max(map(len, segments))
    assert table.T.tolist() == [s + s[-1:] * (wide - len(s)) for s in segments]


def step_levels(g, t, s):
    """The level masks L_0..L_k of the normal (t, s)-paths, from the t end:
    L_k = {s}, and each lower level the union of the steps of the level above."""
    step, levels = _steps(g, t, s), [1 << s]
    for _ in range(g.dist(t, s)):
        levels.append(reduce(int.__or__, map(step.get, bits(levels[-1]))))
    return levels[::-1]


@settings(max_examples=60, deadline=None)
@given(helly_graphs(), st.sampled_from([1, 97, graphs_module.WM_BLOCK_CELLS]),
       st.integers(0, 99))
def test_batched_paths_match_the_single_pair_route(g, cells, seed):
    pairs = list(product(range(g.n), repeat=2))
    random.Random(seed).shuffle(pairs)  # blocks of mixed targets and lengths
    a, b = (np.array(x) for x in zip(*pairs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bicombing, "WM_BLOCK_CELLS", cells)
        mp.setattr(graphs_module, "WM_BLOCK_CELLS", cells)  # `_meet`'s gathers
        sets, (clique_ids, level_ids) = bicombing._normal_rows(g, a, b)
    sets = packed_masks(sets)
    assert len(set(sets)) == len(sets)
    assert clique_ids.shape == level_ids.shape == (g.diameter() + 1, len(pairs))
    for r, (s, t) in enumerate(pairs):
        k = g.dist(s, t)
        held = [min(j, k) for j in range(len(clique_ids))]  # past the end, the last set
        path, steps = bicombing._clique_path(g, (s,), (t,), k), step_levels(g, s, t)
        assert [sets[i] for i in clique_ids[:, r]] == [path[j] for j in held]
        assert [sets[i] for i in level_ids[:, r]] == [steps[j] for j in held]


def single_pair_outcome(g, s, t):
    """The message of the first exception of the single-pair clique-path
    and level builds of (s, t), or None."""
    try:
        bicombing._clique_path(g, (s,), (t,), g.dist(s, t))
        _steps(g, s, t)
    except HellyPreconditionError as e:
        return str(e)
    return None


@SETTINGS
@given(graphs(max_n=9), st.sampled_from([1, 97, graphs_module.WM_BLOCK_CELLS]))
def test_batched_paths_raise_as_the_single_pair_route(g, cells):
    # any graph: the batch raises iff some pair's single-pair build does, and
    # an empty imprint is the only exception either route meets
    pairs = list(product(range(g.n), repeat=2))
    messages = {single_pair_outcome(g, s, t) for s, t in pairs}
    assert messages <= {None, "empty imprint; the graph is not Helly"}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bicombing, "WM_BLOCK_CELLS", cells)
        mp.setattr(graphs_module, "WM_BLOCK_CELLS", cells)  # `_meet`'s gathers
        a, b = (np.array(x) for x in zip(*pairs))
        try:
            bicombing._normal_rows(g, a, b)
            raised = None
        except HellyPreconditionError as e:
            raised = str(e)
    assert raised == max(messages - {None}, default=None)


def empty_imprint_level(g, a, b):
    """The level at which the single-pair builds of the paths from a to b,
    stepped together from the b end, meet their first empty imprint, or None."""
    clique = level = 1 << b
    for i in range(g.dist(a, b), 1, -1):
        try:
            clique = bicombing._imprint(g, (a,), clique, i)
            level = mask_of(w for v in bits(level)
                            for w in bits(bicombing._imprint(g, (a,), 1 << v, i)))
        except HellyPreconditionError:
            return i
    return None


def test_fellow_traveler_raises_like_plain_loop_when_a_later_pair_fails_higher():
    # the first endpoint pair of the sample in tuple order to fail, (0, 4),
    # meets its empty imprint at level 2, and a later one, (3, 8), at level
    # 3, so the top-down sweep meets the later pair first
    g = geometry.grid_graph(3, 3)
    levels = [empty_imprint_level(g, *pair) for p, q, s, t in plain_tuples(g, 5, 0)
              for pair in ((p, s), (q, t))]
    failed = [level for level in levels if level]
    assert failed[0] == 2 and max(failed) == 3
    expected = outcome(plain_checked, g, 5, 0)
    assert expected == (HellyPreconditionError, "empty imprint; the graph is not Helly")
    assert outcome(checked, g, 5, 0) == expected


def test_fellow_traveler_memory_on_a_sampled_tree():
    # the sets made are deduplicated in batches of about WM_BLOCK_CELLS
    # bytes as they come, so about a hundred distinct sets are kept, not a
    # row per position of every path; the distance matrix is built inside
    # the measured window
    g = geometry.random_tree(100, 1)
    _, peak = traced_peak(lambda: fellow_traveler_check(g, 800, 0))
    assert peak < 1 << 20


@SETTINGS
@given(helly_graphs(), st.data())
def test_normal_paths_are_the_normal_geodesics_and_fill_the_levels(g, data):
    t, s = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
    paths = normal_paths(g, t, s)
    assert paths == sorted(p for p in geodesics(g, t, s) if is_normal_path(g, p))
    levels = plain_level_sets(g, t, s)
    assert [tuple(bits(m)) for m in step_levels(g, t, s)] == levels
    assert [tuple(sorted({p[i] for p in paths})) for i in range(len(levels))] == levels


# -- the per-vertex loops that one mask identity each replaced, as oracles ----


def plain_is_clique(g, vertices):
    vs = list(vertices)
    return all(g.nbr_mask[v] & (1 << w) for v in vs for w in vs if w != v)


def plain_is_triangle_free_hypergraph(h):
    """No length-3 cycle avoids having its three vertices inside one of its edges."""
    masks = h.edge_masks()
    for a, b, c in combinations(range(len(masks)), 3):
        ma, mb, mc = masks[a], masks[b], masks[c]
        ab, bc, ca = ma & mb, mb & mc, mc & ma
        if not (ab and bc and ca):
            continue
        for x in bits(ca):
            for y in bits(ab):
                if y == x:
                    continue
                for z in bits(bc):
                    if z == x or z == y:
                        continue
                    t = (1 << x) | (1 << y) | (1 << z)
                    if not (ma & t == t or mb & t == t or mc & t == t):
                        return False
    return True


def plain_face_graph(g, cap=None):
    """`constructions.face_graph` testing each union as a clique, with the
    pair loop of `plain_is_clique`."""
    cliques = recognition.all_cliques(g, cap=cap)
    masks = [mask_of(c) for c in cliques]
    edges = []
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            u = mi | masks[j]
            if u == mi or u == masks[j] or plain_is_clique(g, tuple(bits(u))):
                edges.append((i, j))
    return Graph(len(cliques), edges), cliques


def plain_gsp_product_gilmore(desc):
    desc.validate()
    nerve = desc.nerve
    for a, b, c in recognition.triangles(nerve):
        need = ((desc.labels[a] & desc.labels[b])
                | (desc.labels[b] & desc.labels[c])
                | (desc.labels[a] & desc.labels[c]))
        ok = False
        for y in range(nerve.n):
            if all(y == x or (nerve.nbr_mask[y] >> x) & 1 for x in (a, b, c)) \
                    and need <= desc.labels[y]:
                ok = True
                break
        if not ok:
            return False
    return True


def plain_dominating_clique(g, subset):
    vs, ball1 = as_vertex_set(g, subset, "subset"), unit_balls(g)

    def dominates(clique):
        cover = 0
        for c in clique:
            cover |= ball1[c]
        return all((cover >> u) & 1 for u in vs)

    if not any(dominates(c) for c in recognition.maximal_cliques(g)):
        return None
    for c in recognition.all_cliques(g):
        if dominates(c):
            return c
    raise InvariantViolation("maximal-clique prepass and full clique scan disagree")


def plain_hull_distance_profile(hg):
    worst = 0
    for f in hg.forms:
        nearest = min(f[x] for x in range(hg.metric.n))  # f(x) = d_inf(f, e(x))
        worst = max(worst, nearest)
    return worst


@st.composite
def gsp_descriptions(draw):
    """GSPs over three or four paths: distinct labels, so no two nerve
    vertices share one (A2), random pins off each label (A3), and the nerve
    read off off-label agreement (A4); a disconnected nerve is redrawn.
    About half hold the labels {0, 1}, {0, 2} and {1, 2}, a triangle that
    fails unless a common neighbour's label holds {0, 1, 2}."""
    factors = tuple(geometry.path_graph(draw(st.integers(1, 3)))
                    for _ in range(draw(st.integers(3, 4))))
    k = len(factors)
    labels = draw(st.lists(st.frozensets(st.integers(0, k - 1)), max_size=6, unique=True))
    if draw(st.booleans()):
        core = [frozenset(p) for p in combinations(range(3), 2)]
        labels = core + [lab for lab in labels if lab not in core]
    assume(labels)
    pins = [{t: draw(st.integers(0, factors[t].n - 1)) for t in range(k) if t not in lab}
            for lab in labels]
    edges = [(u, v) for u, v in combinations(range(len(labels)), 2)
             if all(pins[u][t] == pins[v][t] for t in set(pins[u]) & set(pins[v]))]
    try:
        nerve = Graph(len(labels), edges)
    except ValidationError:
        assume(False)
    return constructions.GspDescription(factors, nerve, tuple(labels), tuple(pins))


@SETTINGS
@given(graphs(), st.data())
def test_is_clique_matches_the_pair_loop(g, data):
    vs = data.draw(st.one_of(st.sampled_from(recognition.all_cliques(g)),
                             st.lists(st.integers(0, g.n - 1), max_size=g.n + 2)))
    assert g.is_clique(vs) == plain_is_clique(g, vs)


def plain_dual(h):
    """One edge per covered vertex, its edge indices read off the edge masks."""
    masks = h.edge_masks()
    star_edges = []
    for v in range(h.n):
        star = tuple(i for i, m in enumerate(masks) if (m >> v) & 1)
        if star:
            star_edges.append(star)
    return Hypergraph(len(h.edges), tuple(star_edges))


@st.composite
def star_hypergraphs(draw):
    """Edges drawn with repeats from a few sets, singletons among them, over
    a vertex range with up to two vertices in no edge; often 2 edges or fewer."""
    n = draw(st.integers(1, 9))
    pool = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=draw(
        st.sampled_from([1, 3, n]))), min_size=1, max_size=6))
    edges = draw(st.lists(st.sampled_from(pool), max_size=draw(st.sampled_from([2, 10]))))
    return Hypergraph.of(n + draw(st.integers(0, 2)), edges)


def graph_hypergraph(g, kind):
    """The unit balls or the maximal cliques of g, as a hypergraph."""
    if kind == "balls":
        return Hypergraph.of(g.n, [list(bits(m)) for m in unit_balls(g)])
    return Hypergraph.of(g.n, recognition.maximal_cliques(g))


@SETTINGS
@given(st.one_of(star_hypergraphs(), hypergraphs()))
def test_dual_from_the_star_table_matches_the_mask_scan(h):
    assert h.stars == tuple(mask_of(i for i, e in enumerate(h.edges) if v in e)
                            for v in range(h.n))
    assert hypergraphs_module.dual(h) == plain_dual(h)


@SETTINGS
@given(st.one_of(hypergraphs(), star_hypergraphs()))
def test_triangle_free_test_matches_the_vertex_loop_on_hypergraphs_and_duals(h):
    for x in (h, hypergraphs_module.dual(h)):
        assert (hypergraphs_module.is_triangle_free_hypergraph(x)
                == plain_is_triangle_free_hypergraph(x) == hypergraphs_module.strong_gilmore(x))


@SETTINGS
@given(st.one_of(graphs(max_n=12), helly_graphs()), st.sampled_from(["balls", "cliques"]))
def test_triangle_free_pair_walk_matches_the_vertex_loop_on_graph_hypergraphs(g, kind):
    h = graph_hypergraph(g, kind)
    assert (hypergraphs_module.is_triangle_free_hypergraph(h)
            == plain_is_triangle_free_hypergraph(h))


def test_triangle_free_pair_walk_gives_both_verdicts_on_graph_hypergraphs():
    rng = random.Random(24)
    verdicts = set()
    for n in range(4, 13):
        for g in (geometry.random_tree(n, n), geometry.cycle_graph(n),
                  geometry.random_connected_graph(n, 0.4, rng.randrange(10 ** 6)),
                  geometry.king_graph(2, n // 2)):
            for kind in ("balls", "cliques"):
                h = graph_hypergraph(g, kind)
                verdict = hypergraphs_module.is_triangle_free_hypergraph(h)
                assert verdict == plain_is_triangle_free_hypergraph(h)
                verdicts.add((kind, verdict))
    assert verdicts == {(kind, v) for kind in ("balls", "cliques") for v in (True, False)}


@pytest.mark.parametrize("edges, free", [
    ([(0, 1), (1, 2), (0, 1, 2)], True),   # c holds a & b: without the ~AND it would fail
    ([(0, 1), (1, 2), (0,)], True),        # c misses b - a: an OR over a - b alone fails it
    ([(0, 1), (1, 2), (0, 2)], False),
    ([(0, 1), (0, 1), (1, 2)], True),      # a repeated edge has no difference to meet
])
def test_triangle_free_pair_walk_edge_cases(edges, free):
    h = Hypergraph.of(3, edges)
    assert hypergraphs_module.is_triangle_free_hypergraph(h) is free
    assert plain_is_triangle_free_hypergraph(h) is free


def test_triangle_free_pair_walk_on_the_unit_balls_of_a_long_tree():
    # triangle-free, so the whole walk runs; all C(400, 3) edge triples took
    # 1.6-2.4 s on a 2-core Xeon
    g = geometry.random_tree(400, 1)
    h = graph_hypergraph(g, "balls")
    start = time.perf_counter()
    assert hypergraphs_module.is_triangle_free_hypergraph(h)
    assert time.perf_counter() - start < 0.25


@SETTINGS
@given(graphs(max_n=7))
def test_face_graph_matches_the_pairwise_clique_test(g):
    fg, cliques = constructions.face_graph(g)
    plain, plain_cliques = plain_face_graph(g)
    assert (fg.to_json(), cliques) == (plain.to_json(), plain_cliques)


@SETTINGS
@given(gsp_descriptions())
def test_gsp_product_gilmore_matches_the_nerve_scan(desc):
    assert constructions.gsp_product_gilmore(desc) == plain_gsp_product_gilmore(desc)


@SETTINGS
@given(graphs(), st.data())
def test_dominating_clique_matches_the_vertex_loop(g, data):
    subset = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    assert recognition.dominating_clique(g, subset) == plain_dominating_clique(g, subset)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_metrics(), medium_metrics()))
def test_hull_distance_profile_matches_the_form_loop(m):
    hg = hull.hellyfication(m)
    assert hull.hull_distance_profile(hg) == plain_hull_distance_profile(hg)
