"""Hyperbolicity, named generators, grids, coarse-Helly defects and the
unbounded-defect families.

The generator registry doubles as the test corpus: every named graph used
by the verification suite is produced here, deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

from .errors import InvariantViolation, ValidationError
from .graphs import WM_BLOCK_CELLS, Graph, _padded, as_vertices


# -- elementary generators -----------------------------------------------------


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValidationError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def wheel_graph(rim):
    if rim < 3:
        raise ValidationError("wheel rim needs at least 3 vertices")
    edges = [(i, i % rim + 1) for i in range(1, rim + 1)]
    edges += [(0, i) for i in range(1, rim + 1)]
    return Graph(rim + 1, edges)


def hypercube_graph(dim):
    if dim < 0:
        raise ValidationError("hypercube dimension must be nonnegative")
    n = 1 << dim
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(dim) if u < u ^ (1 << b)]
    return Graph(n, edges)


def grid_graph(rows, cols):
    """Rectangular l1 grid; vertex r * cols + c sits at (r, c)."""
    return _lattice(product(range(rows), range(cols)), ((0, 1), (1, 0)))[0]


def king_graph(rows, cols):
    """Rectangular l-infinity grid (strong product of two paths)."""
    return _lattice(product(range(rows), range(cols)), _KING_STEPS)[0]


def sun3():
    """Central triangle 0,1,2 with an outer vertex glued on each edge."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 0)])


def house_graph():
    """Square 0,1,2,3 with a roof vertex 4 over the edge 0-1."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)])


def bowtie_graph():
    return Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def k4_minus():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


def k33_minus():
    edges = [(a, b + 3) for a in range(3) for b in range(3)]
    edges.remove((2, 5))
    return Graph(6, edges)


# -- lattice patches -----------------------------------------------------------


_KING_STEPS = ((0, 1), (1, 0), (1, 1), (1, -1))
_T3_STEPS = ((1, 0), (0, 1), (1, -1))


def _lattice(points, steps):
    """Graph on the sorted points joining p to p + s for each step s.

    Steps are given up to sign, with entries in {-1, 0, 1}.  Vertex ids
    follow sorted coordinate order.  Returns (graph, pts).
    """
    pts = sorted(points)
    # points and steps as mixed-radix integers over the bounding box widened
    # by one on every side, so that p + s never wraps onto another point
    keys, offsets, radix = [0] * len(pts), [0] * len(steps), 1
    for axis, ds in zip(zip(*pts), zip(*steps)):
        lo = min(axis) - 1
        keys = [k + (x - lo) * radix for k, x in zip(keys, axis)]
        offsets = [o + d * radix for o, d in zip(offsets, ds)]
        radix *= max(axis) - lo + 2
    at = dict(zip(keys, range(len(pts))))
    edges = [(t, at[k + o]) for o in offsets for t, k in enumerate(keys) if k + o in at]
    return Graph(len(pts), edges), pts


def _diamond(k):
    return [p for p in product(range(-2 * k, 2 * k + 1), repeat=2) if sum(map(abs, p)) <= 2 * k]


def l1_grid(k):
    """Rotated square grid of side 2k: even-parity points with |i|+|j| <= 2k,
    adjacent when both coordinates differ by exactly 1.

    Returns (graph, coords).
    """
    return _lattice((p for p in _diamond(k) if sum(p) % 2 == 0), ((1, 1), (1, -1)))


def linf_diamond(k):
    """All lattice points with |i|+|j| <= 2k, adjacent at Chebyshev distance 1.

    Returns (graph, coords); this is the expected Hellyfication of l1_grid(k).
    """
    return _lattice(_diamond(k), _KING_STEPS)


def t3_distance(a, b):
    di, dj = b[0] - a[0], b[1] - a[1]
    return (abs(di) + abs(dj) + abs(di + dj)) // 2


def t3_deltoid(side):
    """Triangular-grid patch {(i,j): i,j >= 0, i+j <= side} in axial coordinates.

    Returns (graph, coords, corners).  The generator self-checks the deltoid
    identity: the three corner distances of every vertex sum to 2*side.
    """
    g, pts = _lattice(((i, j) for i in range(side + 1) for j in range(side + 1 - i)), _T3_STEPS)
    corners = [(0, 0), (side, 0), (0, side)]
    rows = [g.dist_row(pts.index(c)) for c in corners]
    for t, p in enumerate(pts):
        if sum(r[t] for r in rows) != 2 * side:
            raise ValidationError(f"deltoid identity fails at {p}")
        for c, r in zip(corners, rows):
            if r[t] != t3_distance(c, p):
                raise ValidationError(f"axial distance mismatch at {p}")
    return g, pts, [pts.index(c) for c in corners]


def t3_patch(radius):
    """Ball of the triangular grid around the origin, axial coordinates."""
    rng = range(-radius, radius + 1)
    return _lattice((p for p in product(rng, rng) if t3_distance((0, 0), p) <= radius),
                    _T3_STEPS)


def z3_box(half_side):
    """l1 grid graph on the integer box [-half_side, half_side]^3.

    Returns (graph, index) with index[(x,y,z)] = vertex id.
    """
    rng = range(-half_side, half_side + 1)
    g, pts = _lattice(product(rng, rng, rng), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    return g, {p: t for t, p in enumerate(pts)}


def random_connected_graph(n, p, seed):
    """Erdos-Renyi conditioned on connectivity via a random spanning tree;
    an edge probability p outside [0, 1] is a ValidationError."""
    if not 0 <= p <= 1:
        raise ValidationError(f"edge probability {p} is not in [0, 1]")
    rng = random.Random(seed)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_tree(n, seed):
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def ncp_figure():
    """Nine-vertex Helly graph whose canonical clique-path from t to s is
    (t, {x,y}, {u,u',w}, s) while y lies on no normal path.

    Returns (graph, names) with names mapping labels to vertex ids.
    """
    names = {"t": 0, "x": 1, "y": 2, "u": 3, "u'": 4, "w": 5, "s": 6, "v": 7, "v'": 8}
    t, x, y, u, up, w, s, v, vp = range(9)
    edges = [(t, x), (t, y), (x, y),
             (x, u), (x, up), (x, w), (y, u), (y, up), (y, w),
             (u, up), (u, w), (up, w),
             (u, s), (up, s), (w, s),
             (v, x), (v, u), (v, w),
             (vp, x), (vp, up), (vp, w)]
    return Graph(9, edges), names


# -- hyperbolicity -------------------------------------------------------------


@dataclass(frozen=True)
class HyperbolicityResult:
    two_delta: int
    witness: tuple  # lexicographically least quadruple attaining the max


def hyperbolicity(g, cap=256):
    """Exact four-point hyperbolicity 2*delta with witness quadruple.

    For a quadruple with pair sums S1 >= S2 >= S3 the value is S1 - S2.  It
    is at most twice each of the six distances: with S1 = d(a,b) + d(c,d),
    d(a,b) <= d(a,c) + d(c,d) + d(d,b) gives S1 - S2 <= 2*d(c,d), and so on.
    A quadruple with a repeated vertex has two equal largest sums, value 0.

    Far-apart pairs.  A pair (x, y) is far-apart when no neighbour of x is
    farther from y and no neighbour of y is farther from x.  Some quadruple
    made of two far-apart pairs attains 2*delta (Soto's far-apart lemma,
    PhD thesis 2011): take one attaining it, with S1 = d(a,b) + d(c,d).  If
    a neighbour a' of a has d(a',b) = d(a,b) + 1, replacing a by a' raises
    S1 by 1 and each other sum by at most 1, so S1 stays the largest and the
    value does not drop.  As d(a,b) grows, repeating this ends with (a,b),
    and likewise (c,d), far-apart; for 2*delta > 0 no step repeats a vertex,
    since that would give value 0.  With M[x] the elementwise max of the
    rows D[x'] over x and its neighbours, far-apart is (M <= D) & (M.T <= D).

    Sweep.  The far-apart pairs are sorted by decreasing distance, and the
    pair at position p, as the outer pair, is scored against the inner pairs
    at positions p, p+1, ... in numpy blocks of outer pairs of at most
    `WM_BLOCK_CELLS` cells.  A quadruple of two far-apart pairs is scored
    when its earlier pair is the outer one.  Every score is the value of a
    real quadruple, so none exceeds 2*delta.  The sweep stops once
    2*d(i,j) <= best: every quadruple of two far-apart pairs not yet scored
    has both pairs at distance <= d(i,j).  This is the pair-ordering cutoff
    of Cohen, Coudert and Lancin, "On computing the Gromov hyperbolicity"
    (ACM JEA 2015), who also restrict it to far-apart pairs.  Distances are
    kept in the smallest signed dtype that holds 6*diameter, the largest
    intermediate sum (int16 at most under the default cap).  A tree has
    2*delta = 0 and never reaches the cutoff, but its far-apart pairs are
    only its leaf pairs.

    Block graphs.  A connected graph is 0-hyperbolic iff each of its blocks
    is a clique (Howorka 1979; Bandelt and Mulder 1986).  Those graphs are
    the sweep's worst case, since it stops only once 2*d(i,j) <= 0: every
    pair of a complete graph is far-apart.  So `_blocks_are_cliques` is
    asked first, and on yes the value is 0 with no far-apart pairs and no
    sweep.  The vertex cap keeps the remaining worst case, dense graphs
    with a small 2*delta > 0, at desk scale.

    The witness is the lexicographically least quadruple attaining the
    value among all quadruples, see `_least_quadruple`.
    """
    n = g.n
    if n > cap:
        raise ValidationError(f"hyperbolicity is exhaustive; n={n} exceeds cap {cap}")
    if n < 4:
        return HyperbolicityResult(0, tuple(range(min(n, 4))))
    import numpy as np
    d = g.distances()
    d = d.astype(np.min_scalar_type(-6 * int(d.max()) - 1))
    if _blocks_are_cliques(g):
        return HyperbolicityResult(0, _least_quadruple(d, 0))
    pi, pj = _far_apart(g, d)
    pd = d[pi, pj]
    best, p, total = 0, 0, len(pd)
    while p < total and 2 * int(pd[p]) > best:
        q = p + max(1, WM_BLOCK_CELLS // (total - p))
        i, j, k, l = pi[p:q, None], pj[p:q, None], pi[None, p:], pj[None, p:]
        s1 = pd[p:q, None] + pd[None, p:]
        best = max(best, int(_four_point(s1, d[i, k] + d[j, l], d[i, l] + d[j, k]).max()))
        p = q
    return HyperbolicityResult(best, _least_quadruple(d, best))


def _blocks_are_cliques(g):
    """Whether every block (maximal 2-connected subgraph, or bridge) of g is
    a clique.

    One depth-first search from vertex 0 on an explicit stack, with the low
    points of Hopcroft and Tarjan (1973).  When the search goes back from u
    to its parent p with low[u] >= disc[p], the edges met since it went
    down pu, less those of the blocks already closed below u, make up the
    block of pu.  Its tree edges span it, so it has one vertex more than
    tree edges, and it is a clique on k vertices iff it has k(k - 1)/2
    edges.  Only the two counts are kept, as they stood when the search went
    down to each vertex.  Each edge is read once from each end: O(n + m).
    A back edge from u to an ancestor v other than p closes the cycle
    v ... p u v, which lies in one block, so the answer is no at once when
    v and p are not adjacent; kings stop at their first back edge.

    Pre-test.  A connected graph with m >= n edges has a cycle, and a cycle
    lies in one block, which so has three or more vertices; if that block is
    a clique, it has a triangle, so some edge has a common neighbour.  So
    with m >= n and no edge whose ends share a neighbour, the answer is no
    before the search: cycles and grids never start it, and kings leave the
    pre-test at their first edge.
    """
    adj, nbr = g.adj, g.nbr_mask
    if sum(map(len, adj)) >= 2 * g.n and not any(nbr[u] & nbr[v]
                                                 for u, a in enumerate(adj) for v in a):
        return False
    disc, low, since = [-1] * g.n, [0] * g.n, [(0, 0)] * g.n
    tree = edges = 0  # tree edges and edges met, less those of closed blocks
    disc[0] = 0
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        u, p, rest = stack[-1]
        for v in rest:
            if disc[v] < 0:
                since[v] = tree, edges
                tree, edges = tree + 1, edges + 1
                disc[v] = low[v] = tree
                stack.append((v, u, iter(adj[v])))
                break
            if disc[v] < disc[u] and v != p:  # a back edge, read from its lower end
                if not nbr[v] >> p & 1:
                    return False
                edges += 1
                low[u] = min(low[u], disc[v])
        else:
            stack.pop()
            if p < 0:
                continue
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                t, e = since[u]
                k = tree - t + 1
                if edges - e != k * (k - 1) // 2:
                    return False
                tree, edges = t, e
    return True


def _four_point(s1, s2, s3):
    """Four-point values hi - mid of the pair sums s1, s2, s3, elementwise."""
    import numpy as np
    hi = np.maximum(np.maximum(s1, s2), s3)
    lo = np.minimum(np.minimum(s1, s2), s3)
    return 2 * hi + lo - s1 - s2 - s3


def _far_apart(g, d):
    """Far-apart pairs i < j of g by decreasing distance, as two index
    arrays; d is the distance table.

    M[x] is the elementwise max of the rows d[x'] over x and its neighbours,
    these taken one slot of the `_padded` `g.csr()` lists at a time.
    """
    import numpy as np
    m = d.copy()
    for col in _padded(*g.csr()):
        np.maximum(m, d[col], out=m)
    pi, pj = np.nonzero(np.triu((m <= d) & (m.T <= d), 1))
    order = np.argsort(-d[pi, pj], kind="stable")
    return pi[order], pj[order]


def _least_quadruple(d, value):
    """Lexicographically least quadruple i < j < k < l of four-point value
    `value`, over all quadruples; d is the distance table.

    A quadruple's value is at most twice each of its six distances, so only
    vertices pairwise at distance >= value/2 are combined.  For each such
    pair i < j in lexicographic order, every candidate (k, l) with
    j < k < l is scored as one numpy block, and the first hit in row-major
    order is the least (k, l).  So the first pair (i, j) with a hit gives
    the least quadruple.
    """
    import numpy as np
    ok = d >= (value + 1) // 2
    upper = np.triu(ok, 1)
    for i in range(len(d)):
        for j in np.flatnonzero(upper[i]).tolist():
            c = np.flatnonzero(ok[i, j + 1:] & ok[j, j + 1:]) + (j + 1)
            if len(c) < 2:
                continue
            s2 = d[i, c][:, None] + d[j, c]
            scores = _four_point(d[np.ix_(c, c)] + d[i, j], s2, s2.T)
            hit = (scores == value) & upper[np.ix_(c, c)]
            if hit.any():
                k, l = divmod(int(hit.argmax()), len(c))
                return (i, j, int(c[k]), int(c[l]))
    raise InvariantViolation(f"no quadruple attains four-point value {value}")


def hyperbolicity_oracle(g):
    """Plain-loop reference implementation for small graphs.

    Oracle: tests check `hyperbolicity` against it, and the benchmark its
    closed forms.
    """
    n = g.n
    d = [g.dist_row(u) for u in range(n)]
    best = 0
    for i, j, k, l in combinations(range(n), 4):
        sums = sorted((d[i][j] + d[k][l], d[i][k] + d[j][l], d[i][l] + d[j][k]))
        best = max(best, sums[2] - sums[1])
    return best


def hyperbolicity_sampled(g, samples=100000, seed=0):
    """Seeded lower bound on 2*delta from sampled quadruples.

    For graphs beyond the exhaustive cap; the true value is at least the
    returned one.
    """
    if samples < 0:
        raise ValidationError(f"samples must be nonnegative, got {samples}")
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        i, j, k, l = (rng.randrange(g.n) for _ in range(4))
        di, dj = g.dist_row(i), g.dist_row(j)
        sums = sorted((di[j] + g.dist_row(k)[l], di[k] + dj[l], di[l] + dj[k]))
        best = max(best, sums[2] - sums[1])
    return best


def isometric_embedding_exists(g, pattern):
    """Backtracking search for an isometric copy of `pattern` inside g, on an
    explicit list of positions: each pattern vertex tries the vertices of g
    in increasing order, and one with none left moves its predecessor on.

    Oracle: tests use it to check that low-hyperbolicity Helly graphs hold
    no isometric king patch.
    """
    pn, gn = pattern.n, g.n
    if pn > gn:
        return False
    pd = [pattern.dist_row(u) for u in range(pn)]
    gd = [g.dist_row(u) for u in range(gn)]
    # assign pattern vertices in BFS order so every new vertex is constrained
    order = sorted(range(pn), key=lambda v: pd[0][v])
    image = [-1] * pn
    used = [False] * gn
    start = [0] * pn  # the next candidate to try at each position
    idx = 0
    while idx < pn:
        v = order[idx]
        for cand in range(start[idx], gn):
            if not used[cand] and all(gd[cand][image[order[t]]] == pd[v][order[t]]
                                      for t in range(idx)):
                image[v] = cand
                used[cand] = True
                start[idx] = cand + 1
                idx += 1
                break
        else:
            if idx == 0:
                return False
            start[idx] = 0
            idx -= 1
            used[image[order[idx]]] = False
    return True


# -- verified counterexample families -------------------------------------------


def coarse_helly_defect(g, centers, radii, require_pairwise=True):
    """Minimal uniform radius enlargement giving the ball family a common point.

    defect = min over y of max over i of max(0, d(y, x_i) - r_i).  With
    `require_pairwise` the family must pairwise intersect
    (d(x_i, x_j) <= r_i + r_j) or a ValidationError names the violating pair;
    the flag exists because the classical unbounded-defect grid families are
    stated with radii below the pairwise-intersection threshold.
    """
    centers = as_vertices(g, centers, "centers")
    radii = list(radii)
    if len(centers) != len(radii) or not centers:
        raise ValidationError("need equally many centers and radii, at least one")
    if any(r < 0 for r in radii):
        raise ValidationError("radii must be nonnegative")
    rows = [g.dist_row(c) for c in centers]
    if require_pairwise:
        for i, j in combinations(range(len(centers)), 2):
            if rows[i][centers[j]] > radii[i] + radii[j]:
                raise ValidationError(
                    f"balls {i} and {j} do not intersect: "
                    f"d={rows[i][centers[j]]} > {radii[i]}+{radii[j]}")
    best = None
    for y in range(g.n):
        need = max(max(0, rows[i][y] - radii[i]) for i in range(len(centers)))
        if best is None or need < best:
            best = need
            if best == 0:
                break
    return best


def z3_counterexample(n):
    """Four balls of radius 2n at the even corners of the box [-4n, 4n]^3.

    The family's coarse-Helly defect is 4n (the box center attains the
    minimax value 6n).  These centers sit at pairwise l1-distance 8n, above
    the 4n pairwise-intersection threshold for radius 2n, so the defect is
    evaluated without the pairwise-intersection gate.
    """
    if n < 1 or n > 3:
        raise ValidationError("box size cap: 1 <= n <= 3")
    g, index = z3_box(4 * n)
    centers = [index[(-2 * n, 2 * n, -2 * n)], index[(2 * n, 2 * n, 2 * n)],
               index[(-2 * n, -2 * n, 2 * n)], index[(2 * n, -2 * n, -2 * n)]]
    radii = [2 * n] * 4
    defect = coarse_helly_defect(g, centers, radii, require_pairwise=False)
    return {"defect": defect, "graph": g, "centers": centers, "radii": radii}


def t3_counterexample(n, radii_scale=3):
    """Deltoid of side 6n with corner centers; radii default to 3n.

    The defect is at least n (every vertex is at distance >= 4n from some
    corner); radii_scale=4 collapses the defect to 0.
    """
    if n < 1 or n > 3:
        raise ValidationError("deltoid size cap: 1 <= n <= 3")
    g, _, corners = t3_deltoid(6 * n)
    radii = [radii_scale * n] * 3
    defect = coarse_helly_defect(g, corners, radii)
    return {"defect": defect, "graph": g, "centers": corners, "radii": radii}


def l1_linf_grid_correspondence(k):
    """Constructive grid correspondence.

    Forward: the Hellyfication of the side-2k rotated l1 grid is exactly the
    Chebyshev graph on the diamond |i|+|j| <= 2k (checked form-by-form via
    the coordinate map p -> max-distance row), and the sub-square
    |i|,|j| <= k induces an isometric (2k+1)x(2k+1) king graph.  Converse:
    the even-parity diamond of radius k inside that king graph induces an
    isometric rotated l1 grid.
    """
    from . import hull
    h1, pts = l1_grid(k)
    hg = hull.hellyfication(h1)
    diamond, dpts = linf_diamond(k)
    expected_forms = sorted(
        tuple(max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in pts) for p in dpts)
    if list(hg.forms) != expected_forms:
        return False
    form_of = {tuple(max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in pts): p
               for p in dpts}
    # hull edges must match Chebyshev adjacency on the diamond
    hull_edges = {frozenset((form_of[hg.forms[a]], form_of[hg.forms[b]]))
                  for a, b in hg.graph.edges()}
    diamond_edges = {frozenset((dpts[a], dpts[b])) for a, b in diamond.edges()}
    if hull_edges != diamond_edges:
        return False
    # the central square induces an isometric king graph in the hull
    square = [p for p in dpts if abs(p[0]) <= k and abs(p[1]) <= k]
    hull_index = {form_of[hg.forms[i]]: i for i in range(len(hg.forms))}
    for p, q in combinations(square, 2):
        cheb = max(abs(p[0] - q[0]), abs(p[1] - q[1]))
        if hg.graph.dist(hull_index[p], hull_index[q]) != cheb:
            return False
    # converse: even sub-diamond of the king graph is an isometric l1 grid
    king = king_graph(2 * k + 1, 2 * k + 1)
    def kid(i, j):
        return (i + k) * (2 * k + 1) + (j + k)
    sub = [(i, j) for (i, j) in product(range(-k, k + 1), repeat=2)
           if abs(i) + abs(j) <= k and (i + j) % 2 == 0]
    for p, q in combinations(sub, 2):
        # rotated-coordinate l1 distance equals Chebyshev distance
        expect = max(abs(p[0] - q[0]), abs(p[1] - q[1]))
        if king.dist(kid(*p), kid(*q)) != expect:
            return False
    return True


# -- the named corpus ----------------------------------------------------------


def corpus():
    """Deterministic named graph corpus used throughout the test suite."""
    out = {}
    out["p2"] = path_graph(2)
    out["p5"] = path_graph(5)
    out["p6"] = path_graph(6)
    out["p10"] = path_graph(10)
    out["c4"] = cycle_graph(4)
    out["c5"] = cycle_graph(5)
    out["c6"] = cycle_graph(6)
    out["c7"] = cycle_graph(7)
    out["c12"] = cycle_graph(12)
    out["k1"] = complete_graph(1)
    out["k3"] = complete_graph(3)
    out["k4"] = complete_graph(4)
    out["k6"] = complete_graph(6)
    out["star7"] = star_graph(7)
    out["wheel4"] = wheel_graph(4)
    out["wheel5"] = wheel_graph(5)
    out["sun3"] = sun3()
    out["house"] = house_graph()
    out["bowtie"] = bowtie_graph()
    out["k4_minus"] = k4_minus()
    out["k33_minus"] = k33_minus()
    out["q3"] = hypercube_graph(3)
    out["q4"] = hypercube_graph(4)
    out["grid3x3"] = grid_graph(3, 3)
    out["grid4x4"] = grid_graph(4, 4)
    out["grid10x10"] = grid_graph(10, 10)
    out["king3x3"] = king_graph(3, 3)
    out["king4x4"] = king_graph(4, 4)
    out["king5x5"] = king_graph(5, 5)
    out["king7x7"] = king_graph(7, 7)
    out["king12x12"] = king_graph(12, 12)
    out["tree20"] = random_tree(20, seed=7)
    out["tree200"] = random_tree(200, seed=11)
    out["path150"] = path_graph(150)
    out["l1diamond1"] = l1_grid(1)[0]
    out["t3deltoid3"] = t3_deltoid(3)[0]
    out["t3patch2"] = t3_patch(2)[0]
    out["ncp_figure"] = ncp_figure()[0]
    out["rand8a"] = random_connected_graph(8, 0.35, seed=101)
    out["rand9b"] = random_connected_graph(9, 0.3, seed=202)
    out["rand10c"] = random_connected_graph(10, 0.25, seed=303)
    return out
