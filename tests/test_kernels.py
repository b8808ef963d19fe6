"""Property tests: the pruned kernels against plain sweeps and oracles."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from helly import geometry, recognition
from helly.graphs import Graph, weak_modularity
from helly.hypergraphs import (Hypergraph, helly_property_certified,
                               helly_property_oracle, is_conformal_certified)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def graphs(draw, max_n=10):
    """Connected graph: a random spanning tree plus random extra edges."""
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges += [(u, v) for u, v in extra if u != v]
    return Graph(n, edges)


@st.composite
def hypergraphs(draw, max_n=10, max_edges=10):
    n = draw(st.integers(1, max_n))
    edge = st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
    return Hypergraph.of(n, draw(st.lists(edge, min_size=1, max_size=max_edges)))


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


def plain_is_median(g):
    ivals = {(u, v): g.interval_mask(u, v) for u in range(g.n) for v in range(g.n)}
    return all((ivals[u, v] & ivals[v, w] & ivals[u, w]).bit_count() == 1
               for u, v, w in combinations(range(g.n), 3))


def four_point(d, q):
    i, j, k, l = q
    s = sorted((d[i][j] + d[k][l], d[i][k] + d[j][l], d[i][l] + d[j][k]))
    return s[2] - s[1]


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


@SETTINGS
@given(graphs(max_n=12))
def test_is_median_matches_plain_sweep(g):
    assert recognition.is_median(g) == plain_is_median(g)
