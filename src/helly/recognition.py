"""Helly-graph recognition and related classifications.

Two independent decision procedures are cross-checked on every call:
dismantlability + clique-Helly versus weak modularity + 1-Helly.  A
disagreement raises InvariantViolation, since their equivalence is a
theorem for finite graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolation, ResourceCapExceeded, ValidationError, cap_from_env
from .graphs import (WM_BLOCK_CELLS, _mask_rows, _meet, _set_bits, _singletons, as_vertex_set,
                     bits, mask_of, maximal_clique_masks, weak_modularity)
from . import hypergraphs


def _clique_cap():
    return cap_from_env("HELLY_MAX_CLIQUES", 10 ** 6)


def maximal_cliques(g, cap=None):
    """Inclusion-maximal cliques, each sorted, list sorted lexicographically."""
    cap = _clique_cap() if cap is None else cap
    return sorted(tuple(bits(m)) for m in maximal_clique_masks(g.nbr_mask, cap))


def all_cliques(g, cap=None):
    """Every nonempty clique, in (size, lex) order.

    Extending each clique of one size, in lex order, by its common neighbours
    above its last vertex, in increasing order, gives the next size in lex order.
    """
    cap = _clique_cap() if cap is None else cap
    out = []
    level = [((), (1 << g.n) - 1)]  # (clique, common neighbours above its last vertex)
    while level:
        nxt = []
        for base, candidates in level:
            for v in bits(candidates):
                clique = base + (v,)
                out.append(clique)
                if len(out) > cap:
                    raise ResourceCapExceeded(f"clique count exceeds cap {cap}")
                nxt.append((clique, candidates & g.nbr_mask[v] & ~((1 << (v + 1)) - 1)))
        level = nxt
    return out


def triangles(g):
    for u, v in g.edges():
        for w in bits(g.nbr_mask[u] & g.nbr_mask[v] & ~((1 << (v + 1)) - 1)):
            yield (u, v, w)


def is_clique_helly(g):
    ok, _ = is_clique_helly_certified(g)
    return ok


def is_clique_helly_certified(g):
    """Triangle criterion (Dragan 1989; Szwarcfiter, Ars Combin. 1997): g is
    clique-Helly iff every extended triangle has a universal vertex.

    Returns (flag, lex-least failing triangle (u, v, w), u < v < w, or None).

    Dominator rows.  For an edge uv let I(uv) = B_1(u) & B_1(v), and let
    D(uv) hold the vertices c with I(uv) in B_1(c).  Adjacency is
    symmetric, so D(uv) is the AND of B_1(x) over the x in I(uv) (`_meet`).
    The extended triangle of uvw is I(uv) | I(uw) | I(vw), so c is
    universal to it iff c is in D(uv) & D(uw) & D(vw).  Dominating I(uv)
    puts c in it (u and v lie in I(uv), so in B_1(c)), so such a c lies in
    the extended triangle, as the criterion asks.

    Walk.  A triangle-free graph is answered before any numpy work.  Else
    the edges u < v are taken in lex order, in blocks, last block first:
    the edges of a triangle u < v < w come in the order uv < uw < vw, so
    all three rows D are built when the block of uv is reached.  The
    triangles of a block are the set bits w of B_1(u) & {neighbours of v
    above v}, edge by edge, in lex order, so the first failure of the
    earliest failing block is the lex-least witness.  I(uv) has at most
    min(deg u, deg v) + 1 members, and w at most as many choices; a block
    holds at most WM_BLOCK_CELLS // (words + 8) of them in all, or one
    edge, so the rows it gathers take at most WM_BLOCK_CELLS words and
    each of its index arrays at most WM_BLOCK_CELLS // 8 entries.
    """
    nbr = g.nbr_mask
    if not any(nbr[a] & nbr[b] for a in range(g.n) for b in g.adj[a]):
        return True, None
    import numpy as np
    n, words = g.n, (g.n + 63) // 64
    unit = _mask_rows(nbr, words) | _singletons(np.arange(n), words)
    upper = _mask_rows([m >> a + 1 << a + 1 for a, m in enumerate(nbr)], words)
    u, v = next(_set_bits(upper))  # the edges u < v, in lex order
    deg = np.array([m.bit_count() for m in nbr])
    step = max(1, WM_BLOCK_CELLS // (words + 8) // int(np.minimum(deg[u], deg[v]).max() + 1))
    key = u * n + v
    del u, v  # the keys stand for the edges from here on
    dom = np.empty((len(key), words), np.uint64)
    witness = None
    for lo in reversed(range(0, len(key), step)):
        bu, bv = np.divmod(key[lo:lo + step], n)
        dom[lo:lo + step] = _meet(unit, unit[bu] & unit[bv])
        e, w = next(_set_bits(unit[bu] & upper[bv]))  # the triangles u v w, w > v, in lex order
        common = dom[e + lo]
        common &= dom[key.searchsorted(bu[e] * n + w)]
        common &= dom[key.searchsorted(bv[e] * n + w)]
        fail = ~common.any(1)
        if fail.any():
            i = int(fail.argmax())
            witness = int(bu[e[i]]), int(bv[e[i]]), int(w[i])
    return witness is None, witness


def is_one_helly(g):
    """Berge-Duchet on the family of unit balls.

    Two vertices share a unit ball iff they are within distance 2, so the
    triple kernel walks only triples that are pairwise within distance 2.
    """
    return hypergraphs.berge_duchet(g.n, [m | 1 << v for v, m in enumerate(g.nbr_mask)]) is None


def helly_by_ball_hypergraph(g):
    """Berge-Duchet over the family of all balls of all radii.

    The ball of radius diam(g) is the whole graph, so every pair lies in
    some ball and no triple is pruned.

    Oracle: tests check `is_helly` and `is_one_helly` against it.
    """
    diam = g.diameter()
    balls = {g.ball_mask(v, r) for v in range(g.n) for r in range(diam + 1)}
    return hypergraphs.berge_duchet(g.n, sorted(balls)) is None


def helly_by_ball_oracle(g):
    """Subfamily oracle over all balls; n <= 10 only.

    Every subfamily's intersection contains the intersection of a maximal
    pairwise-intersecting family extending it, so checking the maximal
    families (cliques of the ball intersection graph) decides the Helly
    property of the whole family.  Up to 16 distinct balls the literal
    all-subfamilies sweep runs instead.
    """
    if g.n > 10:
        raise ValidationError("ball-family oracle is for n <= 10")
    diam = g.diameter()
    ball_list = sorted({g.ball_mask(v, r) for v in range(g.n) for r in range(diam + 1)})
    if len(ball_list) <= 16:
        return hypergraphs.helly_property_oracle(
            hypergraphs.Hypergraph(g.n, tuple(tuple(bits(m)) for m in ball_list)))
    return not hypergraphs._empty_families(ball_list)


@dataclass(frozen=True)
class DismantlingOrder:
    order: tuple            # elimination order of all n vertices
    dominator: tuple        # dominator[i] dominates order[i] at its elimination


@dataclass(frozen=True)
class DismantlingFailure:
    stuck_vertices: tuple   # induced subgraph with no dominated vertex


def _dominated(g, live, among):
    """(v, least live dominator of v) for each dominated v of `among`, a
    subset of `live`, in order.  y dominates v iff bv = B_1(v) & live lies
    in B_1(y) = N(y) | {y}; y is in bv and not in N(y), so that is
    bv & ~N(y) == {y}."""
    nbr = g.nbr_mask
    for v in bits(among):
        bv = (nbr[v] | 1 << v) & live
        for y in bits(nbr[v] & live):
            if bv & ~nbr[y] == 1 << y:
                yield v, y
                break


def dismantling_order(g):
    """Greedy elimination of the smallest-id dominated vertex.

    Returns DismantlingOrder on success, else DismantlingFailure with the
    stuck set S; the greedy verdict is final, with no search over other
    orders.  If y dominates v, sending v to y and fixing every other vertex
    maps edges to edges or loops, so G - v is a retract of G; S, reached by
    such removals, is a retract of G.  A retract of a dismantlable graph is
    dismantlable (Quilliot 1983; Nowakowski-Winkler 1983).  Greedy stops
    before the last vertex, so |S| >= 2, and only when no live vertex is
    dominated (the `dirty` invariant below), so S has no first vertex to
    remove and is not dismantlable; hence neither is G.

    Each step rescans only what a removal can change.  Whether v is
    dominated, and by which least live neighbour, depends only on
    N[v] & live and on the unit balls of v's live neighbours: y dominates v
    iff N[v] & live lies in B_1(y).  So it changes only when a neighbour of
    v is removed.  `dirty` holds the live vertices not found undominated
    since then: a step scans it in increasing order, the vertices it passes
    over leave it, and removing v puts v's live neighbours back.  The first
    dominated vertex of `dirty` is then the least dominated live vertex.
    """
    live = dirty = (1 << g.n) - 1
    order, doms = [], []
    for _ in range(g.n - 1):
        step = next(_dominated(g, live, dirty), None)
        if step is None:
            return DismantlingFailure(tuple(bits(live)))
        v, y = step
        order.append(v)
        doms.append(y)
        live ^= 1 << v
        dirty = (dirty >> v + 1 << v + 1) | (g.nbr_mask[v] & live)
    order.append(live.bit_length() - 1)
    doms.append(-1)
    return DismantlingOrder(tuple(order), tuple(doms))


@dataclass(frozen=True)
class HellyReport:
    is_helly: bool
    is_clique_helly: bool
    is_one_helly: bool
    is_dismantlable: bool
    weakly_modular: bool    # route B's verdict
    certificate: dict = field(default_factory=dict)


def is_helly(g):
    """Recognize a finite Helly graph; both decision routes must agree."""
    cl_ok, cl_witness = is_clique_helly_certified(g)
    dis = dismantling_order(g)
    dis_ok = isinstance(dis, DismantlingOrder)
    route_a = dis_ok and cl_ok

    wm = weak_modularity(g)
    one_ok = is_one_helly(g)
    route_b = wm.holds and one_ok

    if route_a != route_b:
        raise InvariantViolation(
            f"recognition routes disagree: dismantlable&clique-Helly={route_a} "
            f"but weakly-modular&1-Helly={route_b}")

    cert = {}
    if dis_ok:
        cert["dismantling_order"] = list(dis.order)
    else:
        cert["stuck_subgraph"] = list(dis.stuck_vertices)
        cert["stuck_certified"] = True  # by the retract argument of dismantling_order
    if not cl_ok:
        cert["clique_helly_failing_triangle"] = list(cl_witness)
    if not wm.holds:
        cert["weak_modularity_witness"] = list(wm.tc_witness or wm.qc_witness)
    return HellyReport(route_a, cl_ok, one_ok, dis_ok, wm.holds, cert)


def stable_interval_constant(g):
    """Exact max Hausdorff distance between I(w,v) and I(w,v') over v ~ v'."""
    best = 0
    edge_list = g.edges()
    for w in range(g.n):
        ivals = {}
        for v, vp in edge_list:
            for a in (v, vp):
                if a not in ivals:
                    ivals[a] = g.interval_mask(w, a)
            ia, ib = ivals[v], ivals[vp]
            for src, dst in ((ia, ib), (ib, ia)):
                for x in bits(src):
                    if (1 << x) & dst:
                        continue
                    r = 1
                    while not (g.ball_mask(x, r) & dst):
                        r += 1
                    if r > best:
                        best = r
    return best


def is_median(g):
    """Every vertex triple has exactly one median.

    Median graphs are the modular graphs with no induced K_{2,3}
    (Bandelt-Chepoi, "Metric graph theory and geometry: a survey", 2008).
    Three tests decide it, cheapest first.  Bipartite: a shortest odd cycle
    gives a triple with no median.  K_{2,3}-free: in a bipartite graph, a
    pair at distance 2 with three common neighbours induces a K_{2,3}, whose
    three degree-2 vertices have two medians.  Weakly modular: in a bipartite
    graph this is the quadrangle condition, which makes it modular.  The
    K_{2,3} scan reads the sphere S_2(u) off the neighbours' masks: with no
    odd cycle, N(N(u)) is S_2(u) and u itself.
    """
    nbr = g.nbr_mask
    row0 = g.dist_row(0)
    if any(row0[u] == row0[v] for u, v in g.edges()):
        return False
    for u in range(g.n):
        two = 0  # N(N(u)), which is the sphere S_2(u) and u, the graph being bipartite
        for x in g.adj[u]:
            two |= nbr[x]
        if any((nbr[u] & nbr[v]).bit_count() >= 3 for v in bits(two & (-1 << (u + 1)))):
            return False
    return weak_modularity(g).holds


def dominating_clique(g, subset):
    """Smallest clique within distance 1 of every vertex of `subset`, or None.

    Maximal cliques are scanned first; the full (size, lex)-ordered clique
    stream is the fallback, so the returned clique is deterministic.  A
    clique is within distance 1 of every vertex of `subset` iff `subset`
    lies in the OR of the unit balls B_1(c) of its vertices c.
    """
    need = mask_of(as_vertex_set(g, subset, "subset"))

    def dominates(clique):
        cover = 0
        for c in clique:
            cover |= g.nbr_mask[c] | 1 << c
        return need & ~cover == 0

    # enlarging a clique only shrinks distances, so existence is decided on
    # maximal cliques; the canonical (smallest, lex-least) witness is then
    # picked from the full (size, lex)-ordered stream
    if not any(dominates(c) for c in maximal_cliques(g)):
        return None
    for c in all_cliques(g):
        if dominates(c):
            return c
    raise InvariantViolation("maximal-clique prepass and full clique scan disagree")
