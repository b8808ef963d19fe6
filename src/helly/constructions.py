"""Helly-preserving and Helly-producing graph constructions.

Products, thickenings, Rips powers, face graphs, nerve graphs of maximal
cliques, unions of subproducts with the 3-piece condition, and tree-shaped
vertex gluings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod

from .errors import SIZE_CAP, InvariantViolation, ResourceCapExceeded, ValidationError
from .graphs import Graph, ball_star_mask, bits, mask_of
from . import hypergraphs, recognition


def strong_product(factors, cap=SIZE_CAP):
    """Direct (strong) product: adjacent when every coordinate is equal or
    adjacent.  Vertex ids enumerate coordinate tuples lexicographically.
    It is the one-piece union of subproducts."""
    factors = tuple(factors)
    return sgp_build(SgpDescription(factors, ((FULL,) * len(factors),)), cap)


def _interval_is_cube(g, u, v):
    """Cube detection on median graphs: I(u,v) induces a d(u,v)-cube."""
    k = g.dist(u, v)
    imask = g.interval_mask(u, v)
    size = imask.bit_count()
    if size != 1 << k:
        return False
    return all((g.nbr_mask[x] & imask).bit_count() == k for x in bits(imask))


def thicken_median(g):
    """Thickening of a median graph: join vertices sharing a cube.

    Only v > u within distance deg(u) of u are tried: the diagonal (u, v) of
    a k-cube has k neighbours of u inside the cube, so k <= deg(u).
    """
    if not recognition.is_median(g):
        raise ValidationError("thickening requires a median graph")
    edges = []
    for u in range(g.n):
        for v in bits(g.ball_mask(u, len(g.adj[u])) >> (u + 1) << (u + 1)):
            if _interval_is_cube(g, u, v):
                edges.append((u, v))
    return Graph(g.n, edges)


def maximal_cubes(g):
    """Inclusion-maximal cube vertex-sets of a median graph (oracle use)."""
    cubes = {g.interval_mask(u, v)
             for u in range(g.n) for v in range(g.n) if _interval_is_cube(g, u, v)}
    out = []
    for c in cubes:
        if not any(c != d and c | d == d for d in cubes):
            out.append(c)
    return sorted(tuple(bits(c)) for c in out)


def rips_power(g, delta):
    """Graph power: adjacent when 1 <= d(u,v) <= delta."""
    if delta < 1:
        raise ValidationError("delta must be >= 1")
    edges = []
    for u in range(g.n):
        for v in bits(g.ball_mask(u, delta) >> (u + 1) << (u + 1)):
            edges.append((u, v))
    return Graph(g.n, edges)


def face_graph(g, cap=None):
    """Graph on all nonempty cliques; adjacent when the union is a clique.

    Returns (graph, cliques) with cliques[i] the vertex set behind id i.

    A | B is a clique iff A lies in the AND of B_1(b) over b in B: the pairs
    inside A or inside B are adjacent, as both are cliques, and a in A is
    adjacent or equal to every b in B iff a is in every B_1(b).
    """
    cliques = recognition.all_cliques(g, cap=cap)
    masks = [mask_of(c) for c in cliques]
    common = [ball_star_mask(g, c, 1) for c in cliques]
    edges = [(i, j) for i, mi in enumerate(masks)
             for j in range(i + 1, len(masks)) if mi & ~common[j] == 0]
    return Graph(len(cliques), edges), cliques


def nerve_graph_of_cliques(g):
    """Graph on the maximal cliques; adjacent when they intersect.

    Returns (graph, maximal_cliques).
    """
    cliques = recognition.maximal_cliques(g)
    return hypergraphs.line_graph(hypergraphs.Hypergraph(g.n, tuple(cliques))), cliques


# -- spaces of graph products --------------------------------------------------

FULL = None  # sentinel for "this piece spans the whole factor"


@dataclass(frozen=True)
class SgpDescription:
    """Union of subproducts: per piece, each factor is FULL or pinned."""
    factors: tuple
    pieces: tuple  # tuple of tuples; entry FULL or a vertex id of the factor

    def __post_init__(self):
        if not self.factors or not self.pieces:
            raise ValidationError("need at least one factor and one piece")
        for piece in self.pieces:
            if len(piece) != len(self.factors):
                raise ValidationError("piece arity must match factor count")
            for t, entry in enumerate(piece):
                if entry is not FULL and not (0 <= entry < self.factors[t].n):
                    raise ValidationError(f"pinned vertex {entry} out of range")
        if len(set(self.pieces)) != len(self.pieces):
            raise ValidationError("pieces must be pairwise distinct")

    def piece_vertices(self, i):
        ranges = [range(f.n) if e is FULL else (e,)
                  for f, e in zip(self.factors, self.pieces[i])]
        return list(product(*ranges))


def pieces_agree(desc, i, j, t):
    """Two pieces agree on factor t: both full, or pinned compatibly."""
    a, b = desc.pieces[i][t], desc.pieces[j][t]
    return a is FULL or b is FULL or a == b


def pieces_intersect(desc, i, j):
    return all(pieces_agree(desc, i, j, t) for t in range(len(desc.factors)))


def sgp_build(desc, cap=SIZE_CAP):
    """The union-of-subproducts graph (vertices are coordinate tuples).

    A piece with more than `cap` vertices is refused before its vertex set
    is built.  So is a union that a lower bound puts past `cap`: pieces
    pinned to distinct vertices of one factor are pairwise disjoint, so for
    each factor the largest pieces pinned to each of its vertices add up to
    at most the union size.  Any other union is refused as soon as it grows
    past `cap`.  Piece intersection via the agreement criterion is then
    asserted against the direct vertex-set computation.  Returns (graph,
    coords, index).
    """
    sizes = [prod(f.n for f, e in zip(desc.factors, piece) if e is FULL) for piece in desc.pieces]
    if max(sizes) > cap:
        raise ResourceCapExceeded(f"SGP piece size exceeds cap {cap}")
    for t in range(len(desc.factors)):
        largest = {}
        for piece, size in zip(desc.pieces, sizes):
            if piece[t] is not FULL:
                largest[piece[t]] = max(size, largest.get(piece[t], 0))
        if sum(largest.values()) > cap:
            raise ResourceCapExceeded(f"SGP size exceeds cap {cap}")
    vertex_sets, union = [], set()
    for i in range(len(desc.pieces)):
        vertex_sets.append(set(desc.piece_vertices(i)))
        union |= vertex_sets[-1]
        if len(union) > cap:
            raise ResourceCapExceeded(f"SGP size exceeds cap {cap}")
    for i, j in combinations(range(len(desc.pieces)), 2):
        if bool(vertex_sets[i] & vertex_sets[j]) != pieces_intersect(desc, i, j):
            raise InvariantViolation(
                f"agreement criterion disagrees with vertex intersection on pieces {i},{j}")
    coords = sorted(union)
    index = {c: i for i, c in enumerate(coords)}
    nbr = [f.nbr_mask for f in desc.factors]
    edges = set()
    for vs in vertex_sets:
        for a, b in combinations(sorted(vs), 2):
            if all(x == y or (m[x] >> y) & 1 for m, x, y in zip(nbr, a, b)):
                edges.add((index[a], index[b]))
    return Graph(len(coords), sorted(edges)), coords, index


def sgp_three_piece(desc):
    """3-piece condition; on failure also hunts for a clique of the built
    graph contained in no piece.  Returns (flag, witness)."""
    npieces = len(desc.pieces)
    nfact = len(desc.factors)
    for i, j, k in combinations(range(npieces), 3):
        if not (pieces_intersect(desc, i, j) and pieces_intersect(desc, i, k)
                and pieces_intersect(desc, j, k)):
            continue
        ok = False
        for c in range(npieces):
            if not all(pieces_intersect(desc, c, p) for p in (i, j, k)):
                continue
            good = True
            for t in range(nfact):
                fulls = sum(1 for p in (i, j, k) if desc.pieces[p][t] is FULL)
                if fulls >= 2 and desc.pieces[c][t] is not FULL:
                    good = False
                    break
            if good:
                ok = True
                break
        if not ok:
            return False, {"triple": (i, j, k),
                           "uncovered_clique": _clique_outside_pieces(desc)}
    return True, None


def _clique_outside_pieces(desc):
    g, coords, _ = sgp_build(desc)
    piece_sets = [set(desc.piece_vertices(i)) for i in range(len(desc.pieces))]
    for clique in recognition.all_cliques(g):
        cset = {coords[v] for v in clique}
        if not any(cset <= ps for ps in piece_sets):
            return tuple(sorted(cset))
    return None


@dataclass(frozen=True)
class GspDescription:
    """Abstract graph of subproducts: nerve graph, factor labels, pin maps."""
    factors: tuple
    nerve: Graph
    labels: tuple   # labels[v] = frozenset of factor indices spanned at v
    pins: tuple     # pins[v] = dict factor-index -> vertex, off labels[v]

    def validate(self):
        nfact = len(self.factors)
        if len(self.labels) != self.nerve.n or len(self.pins) != self.nerve.n:
            raise ValidationError("labels and pins must cover every nerve vertex")
        for v, lab in enumerate(self.labels):
            if not all(0 <= t < nfact for t in lab):
                raise ValidationError(f"(A1) label of {v} mentions unknown factor")
        for u, v in self.nerve.edges():
            if self.labels[u] == self.labels[v]:
                raise ValidationError(f"(A2) adjacent nerve vertices {u},{v} share a label")
        for v in range(self.nerve.n):
            expected = set(range(nfact)) - set(self.labels[v])
            if set(self.pins[v]) != expected:
                raise ValidationError(f"(A3) pin map of {v} must cover exactly the unlabeled factors")
            for t, x in self.pins[v].items():
                if not (0 <= x < self.factors[t].n):
                    raise ValidationError(f"(A3) pin {x} out of range in factor {t}")
        for u in range(self.nerve.n):
            for v in range(u + 1, self.nerve.n):
                agree = all(self.pins[u][t] == self.pins[v][t]
                            for t in range(nfact)
                            if t not in self.labels[u] and t not in self.labels[v])
                if agree != ((self.nerve.nbr_mask[u] >> v) & 1 == 1):
                    raise ValidationError(
                        f"(A4) adjacency and off-label agreement differ at {u},{v}")
        return True

    def realization(self):
        pieces = []
        for v in range(self.nerve.n):
            piece = tuple(FULL if t in self.labels[v] else self.pins[v][t]
                          for t in range(len(self.factors)))
            pieces.append(piece)
        return SgpDescription(tuple(self.factors), tuple(pieces))


def gsp_product_gilmore(desc):
    """Product-Gilmore condition on a validated realizable GSP.

    Each triangle a, b, c of the nerve needs a vertex y, one of a, b, c or
    adjacent to all three, whose label holds the pairwise label
    intersections.  Those y are the bits of B_1(a) & B_1(b) & B_1(c).
    """
    desc.validate()
    nerve = desc.nerve
    ball = nerve.ball1_mask
    for a, b, c in recognition.triangles(nerve):
        need = ((desc.labels[a] & desc.labels[b])
                | (desc.labels[b] & desc.labels[c])
                | (desc.labels[a] & desc.labels[c]))
        if not any(need <= desc.labels[y] for y in bits(ball[a] & ball[b] & ball[c])):
            return False
    return True


def _root(parent, x):
    """Root of x in the union-find forest `parent`, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def glue_at_vertices(parts, gluings):
    """Wedge parts together along single vertices; the gluing pattern over
    the parts must be a tree.

    `gluings` is a list of (i, vi, j, vj) identifications.  Returns
    (graph, placement) where placement[(part, old_vertex)] = new id.
    """
    parts = list(parts)
    k = len(parts)
    if len(gluings) != k - 1:
        raise ValidationError("gluing pattern must be a tree over the parts")
    comp = {i: i for i in range(k)}
    for i, vi, j, vj in gluings:
        if not (0 <= i < k and 0 <= j < k):
            raise ValidationError("gluing references unknown part")
        if not (0 <= vi < parts[i].n and 0 <= vj < parts[j].n):
            raise ValidationError("gluing references unknown vertex")
        ri, rj = _root(comp, i), _root(comp, j)
        if ri == rj:
            raise ValidationError("gluing pattern is cyclic")
        comp[ri] = rj
    if k and len({_root(comp, i) for i in range(k)}) != 1:
        raise ValidationError("gluing pattern must connect all parts")

    # union-find over (part, vertex), each class rooted at its least member;
    # the tree pattern makes every gluing join two classes
    parent = {(i, v): (i, v) for i in range(k) for v in range(parts[i].n)}
    for i, vi, j, vj in gluings:
        a, b = _root(parent, (i, vi)), _root(parent, (j, vj))
        parent[max(a, b)] = min(a, b)
    classes = sorted({_root(parent, x) for x in parent})
    new_id = {c: t for t, c in enumerate(classes)}
    placement = {x: new_id[_root(parent, x)] for x in parent}
    edges = set()
    for i in range(k):
        for u, v in parts[i].edges():
            a, b = placement[(i, u)], placement[(i, v)]
            if a != b:
                edges.add((min(a, b), max(a, b)))
    return Graph(len(classes), sorted(edges)), placement
