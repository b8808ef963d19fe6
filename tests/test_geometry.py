import inspect
import random
import sys
from itertools import combinations

import pytest

from helly import geometry, hull, recognition
from helly.errors import ValidationError
from helly.geometry import (hyperbolicity, hyperbolicity_oracle,
                            isometric_embedding_exists,
                            l1_linf_grid_correspondence, t3_counterexample,
                            t3_distance, z3_counterexample)


def test_generator_counts():
    sun = geometry.sun3()
    assert sun.n == 6 and len(sun.edges()) == 9
    house = geometry.house_graph()
    assert house.n == 5 and len(house.edges()) == 6
    assert geometry.k4_minus().n == 4 and len(geometry.k4_minus().edges()) == 5
    assert geometry.k33_minus().n == 6 and len(geometry.k33_minus().edges()) == 8
    g, pts = geometry.l1_grid(1)
    assert g.n == 9
    g, pts = geometry.l1_grid(2)
    assert g.n == 25
    g, pts = geometry.linf_diamond(1)
    assert g.n == 13
    g, pts, corners = geometry.t3_deltoid(6)
    assert g.n == 28
    g, idx = geometry.z3_box(4)
    assert g.n == 9 ** 3


def test_l1_grid_is_rotated_square_grid():
    g, pts = geometry.l1_grid(2)
    # the rotated coordinates (i+j)/2, (i-j)/2 turn it into a 5x5 l1 grid
    rot = {p: ((p[0] + p[1]) // 2, (p[0] - p[1]) // 2) for p in pts}
    for a, b in combinations(pts, 2):
        d_grid = abs(rot[a][0] - rot[b][0]) + abs(rot[a][1] - rot[b][1])
        assert g.dist(pts.index(a), pts.index(b)) == d_grid


def test_t3_distance_against_bfs():
    g, pts = geometry.t3_patch(3)
    for i, p in enumerate(pts):
        row = g.dist_row(i)
        for j, q in enumerate(pts):
            assert row[j] == t3_distance(p, q)


def _l1(p, q):
    return sum(abs(a - b) for a, b in zip(p, q))


def _chebyshev(p, q):
    return max(abs(a - b) for a, b in zip(p, q))


def _grid_coords(rows, cols):
    return [divmod(v, cols) for v in range(rows * cols)]


def _z3_box_coords(half_side):
    g, index = geometry.z3_box(half_side)
    return g, sorted(index, key=index.get)


@pytest.mark.parametrize("make, metric", [
    (lambda: (geometry.grid_graph(4, 6), _grid_coords(4, 6)), _l1),
    (lambda: _z3_box_coords(2), _l1),
    (lambda: (geometry.king_graph(5, 3), _grid_coords(5, 3)), _chebyshev),
    (lambda: geometry.linf_diamond(2), _chebyshev),
    (lambda: geometry.t3_deltoid(5)[:2], t3_distance),
], ids=["grid_graph", "z3_box", "king_graph", "linf_diamond", "t3_deltoid"])
def test_generator_distance_is_its_lattice_metric(make, metric):
    g, coords = make()
    for u in range(g.n):
        assert g.dist_row(u) == [metric(coords[u], q) for q in coords]


def test_corpus_is_large_and_connected(corpus):
    assert len(corpus) >= 30
    assert all(g.n <= 200 for g in corpus.values())


def test_hyperbolicity_examples():
    assert hyperbolicity(geometry.random_tree(18, 12)).two_delta == 0
    res = hyperbolicity(geometry.cycle_graph(4))
    assert res.two_delta == 2 and res.witness == (0, 1, 2, 3)
    # king graphs are a non-hyperbolic family: 2*delta grows with the side
    values = [hyperbolicity(geometry.king_graph(k, k)).two_delta
              for k in (2, 4, 6, 8)]
    assert values == sorted(values) and values[-1] > values[0]
    assert values[0] == 0


def test_hyperbolicity_matches_plain_oracle(small_corpus):
    for name, g in small_corpus.items():
        assert hyperbolicity(g).two_delta == hyperbolicity_oracle(g), name


def test_hyperbolicity_cap():
    with pytest.raises(ValidationError):
        hyperbolicity(geometry.king_graph(3, 3), cap=5)


def test_hyperbolicity_sampled_is_lower_bound():
    g = geometry.king_graph(6, 6)
    exact = hyperbolicity(g).two_delta
    sampled = geometry.hyperbolicity_sampled(g, samples=4000, seed=1)
    assert 0 <= sampled <= exact
    assert geometry.hyperbolicity_sampled(g, samples=4000, seed=1) == sampled
    with pytest.raises(ValidationError):
        geometry.hyperbolicity_sampled(g, samples=-1)


def test_z3_counterexample():
    out = z3_counterexample(1)
    assert out["defect"] == 4
    out2 = z3_counterexample(2)
    assert out2["defect"] == 8
    assert out2["defect"] > out["defect"]  # defect grows with scale
    # sanity: one ball alone has defect 0
    assert hull.coarse_helly_defect(out["graph"], out["centers"][:1],
                                    out["radii"][:1]) == 0


def test_t3_counterexample():
    assert t3_counterexample(1)["defect"] >= 1
    assert t3_counterexample(2)["defect"] >= 2
    assert t3_counterexample(1, radii_scale=4)["defect"] == 0


def test_grid_correspondence():
    assert l1_linf_grid_correspondence(1)
    assert l1_linf_grid_correspondence(2)


def test_defect_bounded_by_hyperbolicity_on_helly_corpus(small_corpus):
    rng = random.Random(3)
    for name, g in small_corpus.items():
        if not recognition.is_helly(g).is_helly:
            continue
        two_delta = hyperbolicity(g).two_delta
        diam = g.diameter()
        for _ in range(120):
            k = rng.randint(2, 4)
            centers = rng.sample(range(g.n), min(k, g.n))
            radii = [rng.randint(0, diam) for _ in centers]
            if any(g.dist(a, b) > ra + rb
                   for (a, ra), (b, rb) in combinations(zip(centers, radii), 2)):
                continue
            assert hull.coarse_helly_defect(g, centers, radii) <= two_delta, name


def test_grid_freeness_proxy(corpus):
    # Helly graphs of low hyperbolicity contain no isometric 5x5 king patch
    pattern = geometry.king_graph(5, 5)
    for name in ["king3x3", "tree20", "star7", "wheel5", "bowtie", "k6"]:
        g = corpus[name]
        assert recognition.is_helly(g).is_helly
        if hyperbolicity(g).two_delta <= 2:
            assert not isometric_embedding_exists(g, pattern), name
    # while the king graph itself of course contains it
    assert isometric_embedding_exists(geometry.king_graph(5, 5), pattern)
    assert hyperbolicity(geometry.king_graph(5, 5)).two_delta > 2


def test_isometric_embedding_search():
    c4 = geometry.cycle_graph(4)
    assert isometric_embedding_exists(geometry.grid_graph(2, 2), c4)
    assert not isometric_embedding_exists(geometry.complete_graph(4), c4)


def test_isometric_embedding_search_is_not_bounded_by_the_recursion_limit():
    # a search recursing once per pattern vertex needs 60 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        found = isometric_embedding_exists(geometry.path_graph(60), geometry.path_graph(60))
    finally:
        sys.setrecursionlimit(limit)
    assert found


def test_ncp_figure_is_helly():
    g, names = geometry.ncp_figure()
    assert g.n == 9
    assert recognition.is_helly(g).is_helly
    assert sorted(names) == ["s", "t", "u", "u'", "v", "v'", "w", "x", "y"]
