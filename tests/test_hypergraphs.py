import random
from itertools import chain, combinations

import pytest

from helly import claims, geometry, hypergraphs as hgm, recognition
from helly.errors import ValidationError
from helly.hypergraphs import (CellComplex, Hypergraph, check_cell_conditions,
                               conformal_closure, dual, helly_property,
                               helly_property_oracle, hellyfication_hypergraph,
                               is_conformal_certified, is_conformal_via_cliques,
                               is_triangle_free_hypergraph, line_graph,
                               simplify, strong_gilmore, two_section_masks)

from conftest import random_hypergraphs

H = Hypergraph.of


def is_conformal(h):
    return is_conformal_certified(h)[0]


def clique_hypergraph(g):
    return H(g.n, recognition.maximal_cliques(g))


def ball_hypergraph(g):
    edges = sorted({tuple(v for v in range(g.n) if g.dist(c, v) <= r)
                    for c in range(g.n) for r in range(g.diameter() + 1)})
    return H(g.n, edges)


def test_dual_examples():
    h = H(2, [(0, 1)])
    d = dual(h)
    assert d.n == 1 and d.edges == ((0,), (0,))
    assert simplify(d).edges == ((0,),)

    c4_cliques = clique_hypergraph(geometry.cycle_graph(4))
    dd = dual(dual(c4_cliques))
    # double dual reproduces the original intersection structure
    assert sorted(len(e) for e in dd.edges) == sorted(len(e) for e in c4_cliques.edges)
    assert helly_property(dd) == helly_property(c4_cliques)

    # a vertex in no edge has no star: the dual of h2 drops vertex 2
    h = H(3, [(0, 1), (2,)])
    assert dual(h).edges == ((0,), (0,), (1,))
    h2 = H(3, [(0, 1)])
    assert dual(h2).edges == ((0,), (0,))
    assert dual(h2).n == 1


def test_dual_of_triangle_free_is_triangle_free():
    rng = random.Random(8)
    produced = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        edges = [tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                 for _ in range(rng.randint(1, 6))]
        h = H(n, edges)
        if is_triangle_free_hypergraph(h):
            produced += 1
            assert is_triangle_free_hypergraph(dual(h))
    assert produced >= 40


def test_two_section_line_nerve():
    c4_edges = H(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert two_section_masks(c4_edges) == geometry.cycle_graph(4).nbr_mask
    assert line_graph(c4_edges) == geometry.cycle_graph(4)
    assert two_section_masks(H(3, [(0, 1, 2)])) == geometry.complete_graph(3).nbr_mask


def test_line_graph_equals_two_section_of_dual():
    # compare adjacency masks; the Graph-typed ops require connectivity
    for h in random_hypergraphs(60, 7, 6, seed=13):
        lg_masks = hgm._line_masks(h.edge_masks())
        assert lg_masks == two_section_masks(dual(h))


def test_nerve_of_ball_hypergraph_against_pairwise_oracle():
    p3 = geometry.path_graph(3)
    h = ball_hypergraph(p3)
    ng = line_graph(h)
    masks = h.edge_masks()
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert ((ng.nbr_mask[i] >> j) & 1) == (1 if masks[i] & masks[j] else 0)


def test_helly_property_examples():
    # the four edges of C4 satisfy the Helly property (no pairwise
    # intersecting subfamily is larger than a star)
    c4 = H(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert helly_property(c4)
    assert helly_property_oracle(c4)

    tree = geometry.random_tree(7, seed=5)
    assert helly_property(ball_hypergraph(tree))

    assert not helly_property(clique_hypergraph(geometry.sun3()))


def test_helly_agrees_with_exponential_oracle():
    for h in random_hypergraphs(120, 8, 8, seed=21):
        assert helly_property(h) == helly_property_oracle(h)


def test_conformal_examples():
    for g in [geometry.cycle_graph(5), geometry.sun3(), geometry.king_graph(3, 3)]:
        assert is_conformal(clique_hypergraph(g))
    assert not is_conformal(H(3, [(0, 1), (1, 2), (0, 2)]))


def test_conformal_helly_duality(corpus):
    for h in random_hypergraphs(200, 8, 8, seed=34):
        assert is_conformal(h) == helly_property(dual(h))
    # duals of Helly hypergraphs are conformal
    for name in ["p5", "c4", "c7", "tree20"]:
        h = ball_hypergraph(corpus[name])
        if helly_property(h):
            assert is_conformal(dual(h))


def test_the_duality_claim_fails_when_berge_duchet_passes_everything(monkeypatch):
    # with the kernel stubbed, the dual Helly side holds for every sample,
    # while the clique definition of conformality still refuses some
    monkeypatch.setattr(hgm, "berge_duchet", lambda n, family: None)
    lines = [line for line, _ in claims.helly_duality()]
    assert lines[0::2] == [
        "conformality <-> dual Helly property on 200 random hypergraphs: FALSIFIED",
        "conformality <-> dual Helly property on 200 more (seed 777): FALSIFIED"]


def test_conformal_gilmore_agrees_with_clique_oracle():
    # the empty hypergraph has no clique to cover, not the empty one
    for h in [H(0, ())] + random_hypergraphs(150, 7, 7, seed=55):
        assert is_conformal(h) == is_conformal_via_cliques(h)


def test_triangle_free_examples():
    assert is_triangle_free_hypergraph(H(6, [(0, 1), (2, 3), (4, 5)]))
    assert not is_triangle_free_hypergraph(H(3, [(0, 1), (1, 2), (0, 2)]))
    # chain-of-cliques cover: consecutive pieces overlap, no cyclic overlap,
    # so it is triangle-free and its 2-section is clique-Helly
    h = H(6, [(0, 1, 2), (2, 3, 4), (4, 5)])
    assert is_triangle_free_hypergraph(h)
    # the 2-section of a hypergraph covering every vertex is its dual's line graph
    assert recognition.is_clique_helly(line_graph(dual(h)))
    # adding an enclosing edge keeps it triangle-free (the big edge hosts
    # every 3-cycle it takes part in)
    h2 = H(6, [(0, 1, 2, 3, 4, 5), (0, 1, 2), (2, 3, 4)])
    assert is_triangle_free_hypergraph(h2)
    assert recognition.is_clique_helly(line_graph(dual(h2)))


def test_triangle_free_matches_strong_gilmore_and_implies_helly_conformal():
    rng = random.Random(71)
    checked_tf = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        edges = [tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                 for _ in range(rng.randint(1, 5))]
        h = H(n, edges)
        assert is_triangle_free_hypergraph(h) == strong_gilmore(h)
        if is_triangle_free_hypergraph(h):
            checked_tf += 1
            assert is_conformal(h)
            assert helly_property(h)
    assert checked_tf >= 50


def test_laminar_families_are_triangle_free():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(3, 9)
        edges = [tuple(range(n))]
        frontier = [tuple(range(n))]
        while frontier and len(edges) < 6:
            cur = frontier.pop()
            if len(cur) >= 2:
                cut = rng.randint(1, len(cur) - 1)
                a, b = cur[:cut], cur[cut:]
                edges += [a, b]
                frontier += [a, b]
        h = H(n, edges)
        assert is_triangle_free_hypergraph(h)
        assert helly_property(h) and is_conformal(h)


def test_conformal_closure():
    tri = H(3, [(0, 1), (1, 2), (0, 2)])
    cc = conformal_closure(tri)
    assert (0, 1, 2) in cc.edges
    assert is_conformal(cc)
    assert two_section_masks(cc) == two_section_masks(tri)
    assert conformal_closure(cc).edges == cc.edges


def test_hellyfication_hypergraph():
    tri = H(3, [(0, 1), (1, 2), (0, 2)])
    hh = hellyfication_hypergraph(tri)
    # one witness vertex shared by the single maximal bad family
    assert hh.n == 4
    assert all(3 in e for e in hh.edges)
    assert helly_property(hh)
    # traces on the original vertices keep the intersection pattern
    masks_old = tri.edge_masks()
    trace = (1 << 3) - 1
    masks_new = [m & trace for m in hh.edge_masks()]
    for i in range(3):
        for j in range(i + 1, 3):
            assert bool(masks_old[i] & masks_old[j]) == bool(masks_new[i] & masks_new[j])
            assert bool(hh.edge_masks()[i] & hh.edge_masks()[j]) == \
                bool(masks_new[i] & masks_new[j])

    already = H(4, [(0, 1), (1, 2), (2, 3)])
    assert hellyfication_hypergraph(already).edges == already.edges
    for h in random_hypergraphs(60, 7, 6, seed=98):
        hh = hellyfication_hypergraph(h)
        assert helly_property(hh)
        assert hellyfication_hypergraph(hh).edges == hh.edges


def test_clique_helly_conformal_equivalence_on_simplifications():
    # 2-section clique-Helly + conformal <=> simplification Helly + Gilmore
    for h in random_hypergraphs(150, 7, 7, seed=44):
        nbr = two_section_masks(h)
        if any(nbr[v] == 0 for v in range(h.n)):
            continue  # disconnected 2-section has no metric meaning
        try:
            ts = line_graph(dual(h))  # the 2-section, as every vertex is covered
        except ValidationError:
            continue
        lhs = recognition.is_clique_helly(ts) and is_conformal(h)
        s = simplify(h)
        rhs = helly_property(s) and is_conformal(s)
        assert lhs == rhs


# -- abstract cell complexes ---------------------------------------------------


def full_simplex_complex(n):
    cells = [()] + [tuple(c) for c in chain.from_iterable(
        combinations(range(n), r) for r in range(1, n + 1))]
    return CellComplex.of(n, cells)


def cube_complex_q3():
    from itertools import combinations as comb
    cells = {()}
    for free_bits in range(8):
        fb = [b for b in range(3) if (free_bits >> b) & 1]
        for base in range(8):
            if any((base >> b) & 1 for b in fb):
                continue
            cube = tuple(sorted({base + sum(1 << b for b in sub)
                                 for r in range(len(fb) + 1)
                                 for sub in comb(fb, r)}))
            cells.add(cube)
    return CellComplex.of(8, cells)


def test_cell_conditions_flag_simplex():
    rep = check_cell_conditions(full_simplex_complex(4))
    # flag simplicial complexes satisfy 3-cell and graded monotonicity, but
    # their edge triples already violate the three-cell Helly property
    assert rep.three_cell and rep.gmc
    assert not rep.helly3
    assert rep.witnesses["helly3"] == ((0, 1), (0, 2), (1, 2))
    assert is_conformal(H(4, [c for c in full_simplex_complex(4).cells if c]))


def test_cell_conditions_cube_complex():
    x = cube_complex_q3()
    rep = check_cell_conditions(x)
    assert rep.all_hold
    # all three conditions imply conformality of the hypergraph of nonempty cells
    assert is_conformal(H(x.n, [c for c in x.cells if c]))


def test_cell_conditions_hollow_triangle():
    hollow = CellComplex.of(3, [(), (0,), (1,), (2,), (0, 1), (1, 2), (0, 2)])
    rep = check_cell_conditions(hollow)
    assert not rep.three_cell
    assert rep.witnesses["3-cell"] == ((0, 1), (0, 2), (1, 2))


def test_cell_complex_validation_and_dimensions():
    with pytest.raises(ValidationError):
        check_cell_conditions(CellComplex.of(4, [(0, 1, 2), (1, 2, 3)]))
    x = full_simplex_complex(3)
    dims = dict(zip(x.cells, x.dimensions()))
    assert dims[(0,)] == 0 and dims[(0, 1)] == 1 and dims[(0, 1, 2)] == 2
    q3 = cube_complex_q3()
    dims = dict(zip(q3.cells, q3.dimensions()))
    assert dims[tuple(range(8))] == 3
    assert dims[(0, 1, 2, 3)] == 2
