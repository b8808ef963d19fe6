import inspect
import random
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations

import pytest

from helly import geometry, recognition
from helly.errors import InvariantViolation, ValidationError
from helly.graphs import Graph
from helly.hull import (FiniteMetric, _validate_hull, coarse_helly_defect,
                        dress_distance_identity_check, enumerate_extremal_forms,
                        hellyfication, hull_distance_profile, is_extremal,
                        sup_distance)

from conftest import random_graphs


def metric_of(g):
    return FiniteMetric.of_graph(g)


def test_is_extremal_examples():
    m = metric_of(geometry.cycle_graph(6))
    for x in range(6):
        assert is_extremal(m, m.d[x])
    assert not is_extremal(m, (3,) * 6)
    assert is_extremal(m, (1, 2, 1, 2, 1, 2))
    with pytest.raises(ValidationError):
        is_extremal(m, (0, 0, 0, 0, 0, 0))


def test_hull_of_helly_graph_is_the_graph(corpus):
    for name in ["p5", "k4", "star7", "king4x4", "tree20", "wheel5"]:
        g = corpus[name]
        hg = hellyfication(g)
        assert len(hg.forms) == g.n, name
        assert set(hg.embed) == set(range(g.n))
        # edges correspond exactly under the embedding
        edges = {(min(hg.embed[u], hg.embed[v]), max(hg.embed[u], hg.embed[v]))
                 for u, v in g.edges()}
        assert set(hg.graph.edges()) == edges, name


def test_hull_c4_metric_adds_one_center():
    hg = hellyfication(geometry.cycle_graph(4))
    assert len(hg.forms) == 5
    center = (1, 1, 1, 1)
    assert center in hg.forms
    c = hg.forms.index(center)
    assert all((hg.graph.nbr_mask[c] >> i) & 1 for i in range(5) if i != c)
    assert recognition.is_helly(hg.graph).is_helly


def test_hull_c6():
    hg = hellyfication(geometry.cycle_graph(6))
    assert len(hg.forms) == 14
    assert list(hg.forms) == enumerate_extremal_forms(geometry.cycle_graph(6))
    assert recognition.is_helly(hg.graph).is_helly
    assert hull_distance_profile(hg) == 1


def test_hull_matches_bounded_box_oracle(small_corpus):
    for name, g in small_corpus.items():
        hg = hellyfication(g)
        assert list(hg.forms) == enumerate_extremal_forms(g), name


def test_hull_validation_invariants(small_corpus):
    # 1-Lipschitz and f(x) = sup-distance(f, e(x)) for every stored form
    for name, g in small_corpus.items():
        m = metric_of(g)
        hg = hellyfication(m)
        bound = m.radius_bound()
        for f in hg.forms:
            assert all(f[x] <= bound[x] for x in range(m.n)), name
            for x in range(m.n):
                assert f[x] == sup_distance(f, m.d[x])
                assert all(f[x] + m.d[x][y] >= f[y] for y in range(m.n))


def test_hull_validation_reports_each_corruption():
    hg = hellyfication(geometry.cycle_graph(6))
    raised = tuple(v + 1 for v in hg.forms[3])
    e0, e1 = hg.embed[:2]
    # the hull of C6 has cycles, so it stays connected without its first edge
    cut = Graph(hg.graph.n, hg.graph.edges()[1:])
    far = next((i, j) for i, j in combinations(range(len(hg.forms)), 2)
               if sup_distance(hg.forms[i], hg.forms[j]) == 2)
    extra = Graph(hg.graph.n, hg.graph.edges() + [far])
    for bad, message in [
            (replace(hg, forms=hg.forms[:3] + (raised,) + hg.forms[4:]),
             f"stored form {raised} is not extremal"),
            (replace(hg, embed=(e1, e0) + hg.embed[2:]), "embedding is not isometric"),
            (replace(hg, graph=cut), "unit-step graph distance != sup-metric"),
            (replace(hg, graph=extra), "unit-step graph distance != sup-metric")]:
        with pytest.raises(InvariantViolation) as err:
            _validate_hull(bad)
        assert str(err.value) == message
    _validate_hull(hg)


def test_hull_memory_stays_under_six_megabytes():
    # the search keeps only the forms and one layer's upward leaves, and the
    # edges come from numpy blocks; keeping every unit neighbour until a
    # Python edge pass takes C12 to about 11 MB
    m = metric_of(geometry.cycle_graph(12))
    tracemalloc.start()
    try:
        hellyfication(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20, peak


def test_hull_validation_memory_stays_under_three_megabytes():
    # an identity hull has n forms, so each per-form check is an n x n x n
    # cube in all; in int64, beside an int64 isometry cube, it peaked at
    # 6.1 MiB, and in the smallest signed type with no isometry cube (the
    # forms of the embedding are the rows of d) it stays near 1.9 MiB
    hg = hellyfication(geometry.path_graph(400))
    tracemalloc.start()
    try:
        _validate_hull(hg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak


def test_hull_profile_examples():
    assert hull_distance_profile(hellyfication(geometry.path_graph(2))) == 0
    assert hull_distance_profile(hellyfication(geometry.cycle_graph(4))) == 1


def test_profile_at_most_one_for_helly_inputs(corpus):
    for name, g in corpus.items():
        if g.n <= 30 and recognition.is_helly(g).is_helly:
            assert hull_distance_profile(hellyfication(g)) <= 1, name


def test_dress_identity():
    assert dress_distance_identity_check(hellyfication(geometry.random_tree(7, 1)))
    assert dress_distance_identity_check(hellyfication(geometry.cycle_graph(6)))
    assert dress_distance_identity_check(hellyfication(geometry.complete_graph(1)))


def test_hull_idempotent(small_corpus):
    for name, g in small_corpus.items():
        hg = hellyfication(g)
        again = hellyfication(hg.graph)
        # the hull of a Helly graph is the graph itself: forms are its rows
        assert len(again.forms) == hg.graph.n, name
        edges = {(min(again.embed[u], again.embed[v]), max(again.embed[u], again.embed[v]))
                 for u, v in hg.graph.edges()}
        assert set(again.graph.edges()) == edges, name


def test_hull_minimality_small():
    for g in [geometry.cycle_graph(4), geometry.cycle_graph(5),
              geometry.house_graph(), geometry.path_graph(4)]:
        hg = hellyfication(g)
        embedded = set(hg.embed)
        extras = [i for i in range(len(hg.forms)) if i not in embedded]
        for r in range(len(extras)):
            for drop_keep in combinations(extras, r):
                subset = sorted(embedded | set(drop_keep))
                if len(subset) == len(hg.forms):
                    continue
                try:
                    sub, _ = hg.graph.induced(subset)
                except ValidationError:
                    continue  # disconnected subsets are not Helly graphs
                assert not recognition.is_helly(sub).is_helly


def test_hull_of_nonmetric_rejected():
    with pytest.raises(ValidationError):
        FiniteMetric.of([[0, 5], [5, 1]])
    with pytest.raises(ValidationError):
        FiniteMetric.of([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(ValidationError):
        FiniteMetric.of([[0, 1.7], [1.7, 0]])


def test_form_cap(monkeypatch):
    from helly.errors import ResourceCapExceeded
    with pytest.raises(ResourceCapExceeded):
        hellyfication(geometry.cycle_graph(6), cap=3)
    # the cap is exact: C6 has 14 forms
    assert len(hellyfication(geometry.cycle_graph(6), cap=14).forms) == 14
    with pytest.raises(ResourceCapExceeded):
        hellyfication(geometry.cycle_graph(6), cap=13)
    monkeypatch.setenv("HELLY_MAX_FORMS", "3")
    with pytest.raises(ResourceCapExceeded):
        hellyfication(geometry.cycle_graph(6))


def test_hull_search_is_not_bounded_by_the_recursion_limit():
    # a path is its own hull; a search recursing once per point needs 60 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        hg = hellyfication(geometry.path_graph(60))
    finally:
        sys.setrecursionlimit(limit)
    assert len(hg.forms) == 60 and len(hg.graph.edges()) == 59


def test_form_oracle_is_not_bounded_by_the_recursion_limit():
    # K60 is its own hull, and the oracle's box holds about 1,900 prefixes of
    # its forms; an enumeration recursing once per point needs 60 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        forms = enumerate_extremal_forms(geometry.complete_graph(60))
    finally:
        sys.setrecursionlimit(limit)
    assert forms == sorted(tuple(int(x != y) for y in range(60)) for x in range(60))


def test_random_graph_hulls_match_oracle():
    for g in random_graphs(20, 7, seed=61):
        hg = hellyfication(g)
        assert list(hg.forms) == enumerate_extremal_forms(g)
        assert recognition.is_helly(hg.graph).is_helly


def test_coarse_helly_defect_basics():
    g = geometry.king_graph(3, 3)
    assert coarse_helly_defect(g, [0, 8], [1, 1]) == 0
    c6 = geometry.cycle_graph(6)
    assert coarse_helly_defect(c6, [0, 2, 4], [1, 1, 1]) == 1
    with pytest.raises(ValidationError) as err:
        coarse_helly_defect(c6, [0, 3], [1, 1])
    assert "0 and 1" in str(err.value)
    assert coarse_helly_defect(c6, [0, 3], [1, 1], require_pairwise=False) == 1


def test_defect_bounded_by_hyperbolicity(small_corpus):
    # pairwise-intersecting families of <= 4 balls in a 2*delta-hyperbolic
    # graph have defect at most 2*delta
    for name, g in small_corpus.items():
        if not recognition.is_helly(g).is_helly:
            continue
        two_delta = geometry.hyperbolicity(g).two_delta
        diam = g.diameter()
        rng = random.Random(19)
        for _ in range(200):
            k = rng.randint(1, 4)
            centers = rng.sample(range(g.n), min(k, g.n))
            radii = [rng.randint(0, diam) for _ in centers]
            if any(g.dist(a, b) > ra + rb
                   for (a, ra), (b, rb) in combinations(zip(centers, radii), 2)):
                continue
            assert coarse_helly_defect(g, centers, radii) <= two_delta, name


def test_defect_at_most_one_for_cube_free_median_and_hereditary_modular():
    # 2d grids are hereditary modular; trees are cube-free median
    for g in [geometry.grid_graph(3, 3), geometry.grid_graph(2, 4),
              geometry.random_tree(9, 2), geometry.cycle_graph(4)]:
        diam = g.diameter()
        rng = random.Random(23)
        for _ in range(300):
            k = rng.randint(2, 4)
            centers = rng.sample(range(g.n), min(k, g.n))
            radii = [rng.randint(0, diam) for _ in centers]
            if any(g.dist(a, b) > ra + rb
                   for (a, ra), (b, rb) in combinations(zip(centers, radii), 2)):
                continue
            assert coarse_helly_defect(g, centers, radii) <= 1
