import random
from dataclasses import astuple
from itertools import combinations

import pytest

from helly import constructions, geometry, recognition
from helly.bicombing import (CliquePath, fellow_traveler_check, imprint,
                             is_normal_path, local_recognition_radius_check,
                             max_distance, normal_clique_path, normal_paths,
                             uniform_distance, verify_normal_clique_path)
from helly.errors import HellyPreconditionError, ValidationError


def uniform_clique_pairs(g):
    cliques = recognition.all_cliques(g)
    for a, b in combinations(cliques, 2):
        k = uniform_distance(g, a, b)
        if k is not None:
            yield a, b, k


def enumerate_normal_clique_paths(g, tau, sigma):
    """Oracle: depth-first enumeration of all clique sequences satisfying
    the three local conditions, independent of the imprint construction."""
    cliques = recognition.all_cliques(g)
    k = max_distance(g, tau, sigma)
    out = []

    def extend(seq):
        last = seq[-1]
        if last == sigma:
            if verify_normal_clique_path(g, CliquePath(tuple(seq))):
                out.append(tuple(seq))
            return
        if len(seq) > k + 1:
            return
        for cand in cliques:
            if set(cand) & set(last):
                continue
            if not g.is_clique(tuple(set(cand) | set(last))):
                continue
            if len(seq) >= 2:
                if uniform_distance(g, seq[-2], cand) != 2:
                    continue
                if set(last) != set(imprint(g, seq[-2], cand)):
                    continue
            extend(seq + [cand])

    extend([tau])
    return out


def test_imprint_examples():
    p5 = geometry.path_graph(5)
    assert imprint(p5, (0,), (4,)) == (3,)
    king = geometry.king_graph(3, 3)
    fp = imprint(king, (0,), (8,))
    assert fp and king.is_clique(fp)
    assert max_distance(king, (0,), fp) == 1
    with pytest.raises(ValidationError):
        imprint(p5, (0,), (1,))  # max-distance below 2
    with pytest.raises(ValidationError):
        imprint(king, (0, 8), (2,))  # tau is not a clique


def test_imprint_monotone_in_target_clique():
    king = geometry.king_graph(4, 4)
    rng = random.Random(7)
    cliques = [c for c in recognition.all_cliques(king) if len(c) >= 2]
    for _ in range(60):
        sigma = rng.choice(cliques)
        tau = (rng.randrange(king.n),)
        k = max_distance(king, tau, sigma)
        if k < 2:
            continue
        sub = tuple(sorted(rng.sample(sigma, rng.randint(1, len(sigma) - 1))))
        if max_distance(king, tau, sub) != k:
            continue
        assert set(imprint(king, tau, sub)) <= set(imprint(king, tau, sigma))


def test_imprint_empty_on_non_helly():
    c4 = geometry.cycle_graph(4)
    with pytest.raises(HellyPreconditionError):
        imprint(c4, (0,), (2,))


def test_normal_clique_path_examples():
    king = geometry.king_graph(3, 3)
    path = normal_clique_path(king, 0, 1)
    assert path.cliques == ((0,), (1,))
    p5 = geometry.path_graph(5)
    assert normal_clique_path(p5, 0, 4).cliques == ((0,), (1,), (2,), (3,), (4,))
    fig, names = geometry.ncp_figure()
    got = normal_clique_path(fig, names["t"], names["s"])
    assert [set(c) for c in got.cliques] == [
        {names["t"]}, {names["x"], names["y"]},
        {names["u"], names["u'"], names["w"]}, {names["s"]}]


def test_normal_clique_path_reads_unit_balls_without_distance_rows():
    # the imprints need distances from tau only; the unit balls around the
    # sigma end come from the adjacency masks, not from BFS rows, and the
    # single-pair route never builds the distance matrix
    king = geometry.king_graph(20, 20)
    normal_clique_path(king, 0, 399)
    normal_paths(king, 0, 399)
    assert sum(row is not None for row in king._rows) == 1
    assert king._dist is None


def test_normal_clique_path_rejects_non_uniform():
    king = geometry.king_graph(3, 3)
    # {0,1} and {2} see distances 2 and 1
    with pytest.raises(ValidationError):
        normal_clique_path(king, (0, 1), (2,))


@pytest.mark.parametrize("build", [
    normal_clique_path, normal_paths,
    pytest.param(lambda g, u, v: verify_normal_clique_path(g, [(u,), (4,), (v,)]),
                 id="verify_normal_clique_path"),
    pytest.param(lambda g, u, v: is_normal_path(g, (u, 4, v)), id="is_normal_path"),
    pytest.param(lambda g, u, v: is_normal_path(g, (v + 8, 4, u)), id="is_normal_path_end"),
    # malformed paths: vertices where cliques belong, a vertex where a path belongs
    pytest.param(lambda g, u, v: verify_normal_clique_path(g, [0, 4, 8]),
                 id="verify_normal_clique_path_of_vertices"),
    pytest.param(lambda g, u, v: is_normal_path(g, 5), id="is_normal_path_of_a_vertex"),
])
@pytest.mark.parametrize("pair", [(-1, 0), (0, 9)])
def test_vertices_outside_the_graph_are_refused(build, pair):
    with pytest.raises(ValidationError):
        build(geometry.king_graph(3, 3), *pair)


def test_length_equals_uniform_distance_and_selections_are_geodesic():
    for g in [geometry.king_graph(4, 4), geometry.random_tree(12, 3),
              geometry.ncp_figure()[0]]:
        for tau, sigma, k in uniform_clique_pairs(g):
            path = normal_clique_path(g, tau, sigma)
            assert len(path) == k
            assert verify_normal_clique_path(g, path)
            rng = random.Random(1)
            for _ in range(3):
                pick = [rng.choice(c) for c in path.cliques]
                for i, (a, b) in enumerate(zip(pick, pick[1:])):
                    assert g.dist(a, b) == 1
                assert g.dist(pick[0], pick[-1]) == k


def test_verifier_rejects_perturbations():
    king = geometry.king_graph(3, 3)
    path = normal_clique_path(king, 0, 8)
    assert verify_normal_clique_path(king, path)
    cliques = [list(c) for c in path.cliques]
    middle = 1
    for stray in range(king.n):
        if stray in cliques[middle]:
            continue
        enlarged = [tuple(c) for c in cliques]
        enlarged[middle] = tuple(sorted(set(cliques[middle]) | {stray}))
        if not king.is_clique(enlarged[middle]):
            continue
        assert not verify_normal_clique_path(king, enlarged)


def test_normality_is_direction_dependent():
    # on the king graph some canonical clique-path read backwards fails
    king = geometry.king_graph(4, 4)
    found_asymmetric = False
    for u in range(king.n):
        for v in range(king.n):
            if king.dist(u, v) < 2:
                continue
            forward = normal_clique_path(king, u, v)
            reverse = CliquePath(tuple(reversed(forward.cliques)))
            if not verify_normal_clique_path(king, reverse):
                found_asymmetric = True
                break
        if found_asymmetric:
            break
    assert found_asymmetric


def test_uniqueness_against_oracle():
    for g in [geometry.path_graph(5), geometry.king_graph(3, 3),
              geometry.bowtie_graph(), geometry.ncp_figure()[0],
              geometry.wheel_graph(4)]:
        for tau, sigma, k in uniform_clique_pairs(g):
            if k < 2:
                continue
            oracle_paths = enumerate_normal_clique_paths(g, tau, sigma)
            constructed = normal_clique_path(g, tau, sigma)
            assert oracle_paths == [constructed.cliques], (tau, sigma)


def test_normal_paths_examples():
    p5 = geometry.path_graph(5)
    assert normal_paths(p5, 0, 4) == [(0, 1, 2, 3, 4)]
    king = geometry.king_graph(3, 3)
    assert normal_paths(king, 0, 1) == [(0, 1)]
    fig, names = geometry.ncp_figure()
    paths = normal_paths(fig, names["t"], names["s"])
    assert len(paths) == 3
    assert all(names["y"] not in p for p in paths)
    assert all(names["x"] == p[1] for p in paths)


def test_normal_paths_are_geodesic_local_and_thread_the_clique_path():
    rng = random.Random(5)
    for g in [geometry.king_graph(4, 4), geometry.ncp_figure()[0],
              geometry.random_tree(10, 8)]:
        for _ in range(25):
            t, s = rng.randrange(g.n), rng.randrange(g.n)
            gamma = normal_clique_path(g, t, s)
            for p in normal_paths(g, t, s):
                assert len(p) - 1 == g.dist(t, s)
                assert is_normal_path(g, p)
                assert all(p[i] in gamma.cliques[i] for i in range(len(p)))


def test_is_normal_path_rejects_non_normal_geodesics():
    fig, names = geometry.ncp_figure()
    # a geodesic through y is not normal
    t, s, y = names["t"], names["s"], names["y"]
    geodesic = (t, y, names["u"], s)
    assert fig.dist(t, s) == 3
    assert all(fig.dist(a, b) == 1 for a, b in zip(geodesic, geodesic[1:]))
    assert not is_normal_path(fig, geodesic)


def test_fellow_traveler_king5():
    rep = fellow_traveler_check(geometry.king_graph(5, 5))
    assert astuple(rep) == (1, 1, (0, 0, 0, 1), (0, 0, 0, 1), 28561)


def test_fellow_traveler_empty_sample_and_single_vertex():
    rep = fellow_traveler_check(geometry.king_graph(3, 3), max_tuples=0)
    assert astuple(rep) == (0, 0, None, None, 0)
    assert astuple(fellow_traveler_check(geometry.king_graph(1, 1))) == (0, 0, None, None, 1)


def test_fellow_traveler_tree_and_thickened_q4():
    rep = fellow_traveler_check(geometry.random_tree(14, 4))
    assert rep.clique_constant <= 1 and rep.path_constant <= 3
    k16 = constructions.thicken_median(geometry.hypercube_graph(4))
    rep = fellow_traveler_check(k16, max_tuples=4000, seed=0)
    assert rep.clique_constant <= 1 and rep.path_constant <= 3


def test_local_recognition_radius():
    assert local_recognition_radius_check(geometry.path_graph(5))
    assert local_recognition_radius_check(geometry.king_graph(4, 4))
    thick = constructions.thicken_median(geometry.grid_graph(2, 3))
    assert local_recognition_radius_check(thick)
