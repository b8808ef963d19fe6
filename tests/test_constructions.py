import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helly import constructions, geometry, recognition
from helly.constructions import (FULL, GspDescription, SgpDescription,
                                 face_graph, glue_at_vertices, gsp_product_gilmore,
                                 maximal_cubes, nerve_graph_of_cliques,
                                 pieces_intersect, rips_power, sgp_build,
                                 sgp_three_piece, strong_product, thicken_median)
from helly.errors import ResourceCapExceeded, ValidationError
from helly.graphs import Graph


def test_strong_product_examples():
    p2 = geometry.path_graph(2)
    g, _, _ = strong_product([p2, p2])
    assert g == geometry.complete_graph(4)
    g, _, _ = strong_product([geometry.path_graph(4), geometry.path_graph(6)])
    assert g == geometry.king_graph(4, 6)


def test_strong_product_preserves_helly():
    pairs = [(geometry.complete_graph(3), geometry.path_graph(4)),
             (geometry.star_graph(3), geometry.path_graph(3)),
             (geometry.random_tree(5, 1), geometry.complete_graph(2))]
    for a, b in pairs:
        assert recognition.is_helly(a).is_helly and recognition.is_helly(b).is_helly
        g, _, _ = strong_product([a, b])
        assert recognition.is_helly(g).is_helly


def test_strong_product_preserves_clique_helly():
    c4 = geometry.cycle_graph(4)
    g, _, _ = strong_product([c4, geometry.path_graph(3)])
    assert recognition.is_clique_helly(g)


def test_thicken_median_examples():
    assert thicken_median(geometry.hypercube_graph(3)) == geometry.complete_graph(8)
    assert thicken_median(geometry.grid_graph(3, 3)) == geometry.king_graph(3, 3)
    tree = geometry.random_tree(11, 5)
    assert thicken_median(tree) == tree
    with pytest.raises(ValidationError):
        thicken_median(geometry.complete_graph(3))


def test_thicken_median_outputs_are_helly_with_cube_cliques():
    for g in [geometry.grid_graph(2, 4), geometry.grid_graph(3, 3),
              geometry.hypercube_graph(3), geometry.random_tree(9, 6),
              geometry.hypercube_graph(4)]:
        thick = thicken_median(g)
        assert recognition.is_helly(thick).is_helly
        cubes = {c for c in maximal_cubes(g)}
        assert set(recognition.maximal_cliques(thick)) == cubes


def test_cube_detection_against_enumeration():
    # thickening adjacency must match membership in a common maximal cube
    for g in [geometry.grid_graph(3, 4), geometry.hypercube_graph(3)]:
        thick = thicken_median(g)
        cubes = maximal_cubes(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                share = any(u in c and v in c for c in cubes)
                assert share == bool((thick.nbr_mask[u] >> v) & 1)


def test_rips_power():
    p4 = geometry.path_graph(4)
    sq = rips_power(p4, 2)
    assert sq.edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert rips_power(p4, 3) == geometry.complete_graph(4)
    with pytest.raises(ValidationError):
        rips_power(p4, 0)


def test_rips_power_preserves_helly(corpus):
    for name in ["king4x4", "tree20", "star7", "p10", "wheel5"]:
        g = corpus[name]
        assert recognition.is_helly(g).is_helly
        for delta in (2, 3):
            assert recognition.is_helly(rips_power(g, delta)).is_helly, (name, delta)


def test_face_graph_examples():
    fg, cliques = face_graph(geometry.path_graph(2))
    assert fg == geometry.complete_graph(3)
    fg, cliques = face_graph(geometry.cycle_graph(4))
    assert fg.n == 8
    assert cliques == [(0,), (1,), (2,), (3,), (0, 1), (0, 3), (1, 2), (2, 3)]
    # vertices adjacent to their incident edges only, edges to shared endpoints
    for i, c in enumerate(cliques):
        for j in range(i + 1, len(cliques)):
            union = tuple(sorted(set(c) | set(cliques[j])))
            expected = geometry.cycle_graph(4).is_clique(union)
            assert expected == bool((fg.nbr_mask[i] >> j) & 1)


def test_face_graph_preserves_clique_helly():
    for g in [geometry.cycle_graph(4), geometry.cycle_graph(5),
              geometry.king_graph(3, 3), geometry.random_tree(7, 3),
              geometry.bowtie_graph()]:
        assert recognition.is_clique_helly(g)
        fg, _ = face_graph(g)
        assert recognition.is_clique_helly(fg)


def test_face_graph_of_helly_graph_is_helly():
    for g in [geometry.king_graph(3, 3), geometry.bowtie_graph(),
              geometry.star_graph(4)]:
        fg, _ = face_graph(g)
        assert recognition.is_helly(fg).is_helly


def test_nerve_graph_examples():
    ng, cliques = nerve_graph_of_cliques(geometry.cycle_graph(4))
    assert ng.n == 4 and sorted(len(a) for a in ng.adj) == [2, 2, 2, 2]
    ng, _ = nerve_graph_of_cliques(geometry.complete_graph(5))
    assert ng.n == 1
    ng, _ = nerve_graph_of_cliques(geometry.king_graph(5, 5))
    assert ng == geometry.king_graph(4, 4)


def test_nerve_graph_preserves_helly_and_clique_helly():
    for g in [geometry.king_graph(4, 4), geometry.random_tree(9, 4),
              geometry.bowtie_graph(), geometry.wheel_graph(5)]:
        assert recognition.is_helly(g).is_helly
        ng, _ = nerve_graph_of_cliques(g)
        assert recognition.is_helly(ng).is_helly
    for g in [geometry.cycle_graph(4), geometry.cycle_graph(6),
              geometry.sun3()]:
        if recognition.is_clique_helly(g):
            ng, _ = nerve_graph_of_cliques(g)
            assert recognition.is_clique_helly(ng)


def test_sgp_wedge():
    k3, p2 = geometry.complete_graph(3), geometry.path_graph(2)
    desc = SgpDescription((k3, p2), ((FULL, 0), (0, FULL)))
    g, coords, _ = sgp_build(desc)
    ok, _ = sgp_three_piece(desc)
    assert ok and g.n == 4
    assert recognition.is_clique_helly(g)


def test_sgp_agreement_matches_vertex_intersection():
    p2 = geometry.path_graph(2)
    pieces = ((FULL, FULL, 0), (FULL, 0, FULL), (0, FULL, FULL), (FULL, 1, 1))
    desc = SgpDescription((p2, p2, p2), pieces)
    sgp_build(desc)  # raises InvariantViolation on any mismatch
    assert pieces_intersect(desc, 0, 1)
    assert not pieces_intersect(desc, 0, 3)  # pinned factor 2 disagrees


def test_over_cap_piece_is_refused_before_its_vertices_are_built(monkeypatch):
    def unreachable(self, i):
        raise AssertionError("piece vertices built before the cap check")

    monkeypatch.setattr(SgpDescription, "piece_vertices", unreachable)
    p60 = geometry.path_graph(60)
    with pytest.raises(ResourceCapExceeded):
        strong_product([p60, p60, p60], cap=1000)
    with pytest.raises(ResourceCapExceeded):
        sgp_build(SgpDescription((p60, p60), ((FULL, FULL), (0, 0))), cap=1000)


def test_over_cap_union_is_refused_before_pieces_are_compared(monkeypatch):
    def unreachable(desc, i, j):
        raise AssertionError("pieces compared before the union cap check")

    monkeypatch.setattr(constructions, "pieces_intersect", unreachable)
    p10 = geometry.path_graph(10)
    desc = SgpDescription((p10, p10, p10), tuple((FULL, FULL, k) for k in range(10)))
    with pytest.raises(ResourceCapExceeded):
        sgp_build(desc, cap=500)


def test_disjoint_over_cap_union_is_refused_before_any_vertex_is_built():
    # 60 pairwise disjoint pieces of 3,600 vertices each: 216,000 past the cap of 200,000
    p60 = geometry.path_graph(60)
    desc = SgpDescription((p60, p60, p60), tuple((FULL, FULL, k) for k in range(60)))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapExceeded) as err:
            sgp_build(desc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "SGP size exceeds cap 200000"
    assert peak < 1 << 20


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sgp_union_is_built_exactly_when_within_the_cap(data):
    factors = tuple(geometry.path_graph(k)
                    for k in data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    entry = [st.one_of(st.none(), st.integers(0, f.n - 1)) for f in factors]
    pieces = data.draw(st.lists(st.tuples(*entry), min_size=1, max_size=6, unique=True))
    desc = SgpDescription(factors, tuple(pieces))
    size = len(set().union(*(desc.piece_vertices(i) for i in range(len(pieces)))))
    cap = data.draw(st.integers(0, 2 * size))
    if size > cap:
        with pytest.raises(ResourceCapExceeded):
            sgp_build(desc, cap)
    else:
        try:
            assert sgp_build(desc, cap)[0].n == size
        except ValidationError as err:
            assert "disconnected" in str(err)


def test_sgp_three_piece_violation_reports_spanning_clique():
    p2 = geometry.path_graph(2)
    pieces = ((FULL, FULL, 0), (FULL, 0, FULL), (0, FULL, FULL))
    desc = SgpDescription((p2, p2, p2), pieces)
    ok, witness = sgp_three_piece(desc)
    assert not ok
    assert witness["triple"] == (0, 1, 2)
    assert witness["uncovered_clique"] == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_sgp_with_apex_piece_is_clique_helly_with_cliques_in_pieces():
    p2 = geometry.path_graph(2)
    pieces = ((FULL, FULL, 0), (FULL, 0, FULL), (0, FULL, FULL),
              (FULL, FULL, FULL))
    desc = SgpDescription((p2, p2, p2), pieces)
    ok, _ = sgp_three_piece(desc)
    assert ok
    g, coords, _ = sgp_build(desc)
    assert recognition.is_clique_helly(g)
    assert recognition.is_helly(g).is_helly
    piece_sets = [set(desc.piece_vertices(i)) for i in range(len(pieces))]
    for clique in recognition.all_cliques(g):
        cset = {coords[v] for v in clique}
        assert any(cset <= ps for ps in piece_sets)


def test_sgp_from_thickened_cubes_of_median_graph():
    # the 3x3 grid as a union of its four thickened unit squares over four
    # binary factors (two per axis); the result is the 3x3 king graph
    k2 = geometry.path_graph(2)
    pieces = ((FULL, 0, FULL, 0), (FULL, 0, 1, FULL),
              (1, FULL, FULL, 0), (1, FULL, 1, FULL))
    desc = SgpDescription((k2, k2, k2, k2), pieces)
    ok, _ = sgp_three_piece(desc)
    assert ok
    g, coords, _ = sgp_build(desc)
    assert g.n == 9
    assert recognition.is_clique_helly(g)
    assert recognition.is_helly(g).is_helly
    assert sorted(m for m in map(len, recognition.maximal_cliques(g))) == [4, 4, 4, 4]


def test_gsp_product_gilmore_matches_three_piece():
    p2 = geometry.path_graph(2)
    nerve = geometry.complete_graph(3)
    labels = (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
    pins = ({2: 0}, {1: 0}, {0: 0})
    desc = GspDescription((p2, p2, p2), nerve, labels, pins)
    assert desc.validate()
    assert not gsp_product_gilmore(desc)
    assert gsp_product_gilmore(desc) == sgp_three_piece(desc.realization())[0]

    nerve2 = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
    desc2 = GspDescription((p2, p2, p2), nerve2,
                           labels + (frozenset({0, 1, 2}),), pins + ({},))
    assert gsp_product_gilmore(desc2)
    assert sgp_three_piece(desc2.realization())[0]


def test_gsp_validation_names_axiom():
    p2 = geometry.path_graph(2)
    nerve = geometry.path_graph(2)
    with pytest.raises(ValidationError) as err:
        GspDescription((p2,), nerve, (frozenset({0}), frozenset({0})),
                       ({}, {})).validate()
    assert "(A2)" in str(err.value)
    with pytest.raises(ValidationError) as err:
        GspDescription((p2, p2), nerve, (frozenset({0}), frozenset({1})),
                       ({}, {0: 0})).validate()
    assert "(A3)" in str(err.value)


def test_gsp_triangle_free_nerve_vacuous():
    p2 = geometry.path_graph(2)
    nerve = geometry.path_graph(3)
    labels = (frozenset({0}), frozenset({1}), frozenset({0}))
    pins = ({1: 0, 2: 0}, {0: 0, 2: 0}, {1: 1, 2: 0})
    desc = GspDescription((p2, p2, p2), nerve, labels, pins)
    assert gsp_product_gilmore(desc)


def test_glue_examples():
    tri = geometry.complete_graph(3)
    bow, placement = glue_at_vertices([tri, tri], [(0, 0, 1, 0)])
    assert bow.n == 5 and recognition.is_helly(bow).is_helly
    star_parts = [geometry.complete_graph(3), geometry.path_graph(3),
                  geometry.king_graph(2, 2)]
    g, _ = glue_at_vertices(star_parts, [(0, 0, 1, 0), (0, 0, 2, 0)])
    assert recognition.is_helly(g).is_helly
    with pytest.raises(ValidationError):
        glue_at_vertices([tri, tri], [(0, 0, 1, 0), (0, 1, 1, 1)])
    # the 3-sun needs an edge amalgam, which this operation cannot express:
    # gluing Helly parts at single vertices always stays Helly
    assert not recognition.is_helly(geometry.sun3()).is_helly


def test_glue_preserves_helly_on_corpus(corpus):
    parts = [corpus["k4"], corpus["star7"], corpus["king3x3"], corpus["p5"]]
    g, _ = glue_at_vertices(parts, [(0, 1, 1, 0), (1, 3, 2, 4), (2, 8, 3, 2)])
    assert recognition.is_helly(g).is_helly
