"""Hypergraph Helly/conformality machinery and abstract cell-complex checks.

Edges are stored as int bitmasks over a dense vertex range; the triple-based
Berge-Duchet and Gilmore conditions then reduce to mask algebra.  The
Berge-Duchet test here decides the Helly property of the *edge family as
given* (nested edges included), which is exactly the notion dual to
conformality; `simplify` is available for the classification that requires
a simple hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import ValidationError, int_lists, json_object, vertex_count
from .graphs import (WM_BLOCK_CELLS, Graph, _holds, _mask_rows, _reduce_segments, _set_bits,
                     _spans, bits, mask_of, maximal_clique_masks)


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple  # tuple of sorted vertex tuples

    def __post_init__(self):
        for e in self.edges:
            if not e:
                raise ValidationError("hypergraph edges must be nonempty")
            if any(not (0 <= v < self.n) for v in e):
                raise ValidationError(f"edge {e!r} out of range for n={self.n}")
            if list(e) != sorted(set(e)):
                raise ValidationError(f"edge {e!r} must be sorted and duplicate-free")

    @classmethod
    def of(cls, n, edges):
        return cls(n, tuple(tuple(sorted(set(e))) for e in edges))

    @classmethod
    def from_json(cls, text):
        """Parse {"n": <int>, "edges": [[...], ...]}; bad input is a ValidationError."""
        data = json_object(text, "n", "edges")
        return cls.of(vertex_count(data["n"]), int_lists(data["edges"], "edges"))

    def edge_masks(self):
        return [mask_of(e) for e in self.edges]

    @cached_property
    def stars(self):
        """stars[v] is the mask of the indices of the edges that hold v (built once)."""
        stars = [0] * self.n
        for i, e in enumerate(self.edges):
            for v in e:
                stars[v] |= 1 << i
        return tuple(stars)


def simplify(h):
    """Drop edges contained in another edge (and duplicates)."""
    masks = h.edge_masks()
    keep = []
    for i, m in enumerate(masks):
        dominated = False
        for j, other in enumerate(masks):
            if i == j:
                continue
            if m | other == other and (m != other or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(h.edges[i])
    return Hypergraph(h.n, tuple(sorted(set(keep))))


def dual(h):
    """Dual hypergraph: one vertex per edge, one edge S_v per covered vertex."""
    return Hypergraph(len(h.edges), tuple(tuple(bits(s)) for s in h.stars if s))


def two_section_masks(h):
    """Adjacency masks of the 2-section (no connectivity requirement)."""
    nbr = [0] * h.n
    for m in h.edge_masks():
        for v in bits(m):
            nbr[v] |= m & ~(1 << v)
    return nbr


def _section_cliques(h):
    """Maximal cliques, as masks, of the 2-section on the covered vertices.

    A vertex in no edge is isolated in the 2-section and would add only its
    own singleton clique; with no vertex covered there is no clique at all,
    not the empty one.  Every other maximal clique meets the covered set
    and so lies inside it.
    """
    covered = 0
    for m in h.edge_masks():
        covered |= m
    return [c for c in maximal_clique_masks(two_section_masks(h), None) if c & covered]


def line_graph(h):
    """Intersection graph of the edges (the 2-section of the dual); raises if disconnected."""
    nbr = _line_masks(h.edge_masks())
    return Graph(len(nbr), [(u, v) for u, m in enumerate(nbr) for v in bits(m) if u < v])


def helly_property(h):
    """Berge-Duchet decision of the Helly property of the edge family."""
    ok, _ = helly_property_certified(h)
    return ok


def berge_duchet(n, family):
    """Lexicographically least failing triple of the Berge-Duchet test on
    `family`, int masks of members over 0..n-1, or None.

    Unchecked kernel behind every Berge-Duchet-style test.  The cap of a
    pair x, y is the intersection of the members that hold both (the
    ground set if none does), and x < y < z fails when its three caps have
    an empty intersection.  The family has the Helly property iff no triple
    fails (Berge and Duchet, 1975).

    Pruning.  Only triples whose three pairs each share a member are
    walked, and of those only the ones with z outside the cap of x, y.
    A triple with a pair in no member cannot fail, since that cap is the
    ground set and the other two both hold the vertex their pairs share;
    and if z is in the cap of x, y, it is in all three caps, since every
    member holding x, z or y, z holds z.  So z ranges over the 2-section
    neighbours of both x and y minus the cap of x, y.  On a star's unit
    balls this leaves the triples through the centre alone.

    Order.  Pairs x < y come out of the packed 2-section rows in row-major
    order, hence in lex order, and the triples of a run of pairs, (x, y, z)
    with z > y, come out of the packed candidate rows of those pairs in
    row-major order, so in lex order too.  Since (x, y) < (x', y') implies
    (x, y, z) < (x', y', z'), the runs list the walked triples in lex order;
    the scan stops at the first run with a failure, and its first failing
    triple is the least failing walked triple, hence the least failing
    triple.  Grids leave in the first run, at (0, 1, k).

    Caps are ANDs of packed member rows (`graphs`): the members holding the
    end with fewer holders, with those missing the other end replaced by a
    row of ones.  They are built for each run as it is walked and not kept:
    the caps of x, z and y, z a triple needs are read off its run
    (np.searchsorted on the run's sorted pair keys) or, for a pair past the
    run, built.  Every temporary is bounded through `WM_BLOCK_CELLS`: a run
    has at most WM_BLOCK_CELLS // (8 words) pairs or triples, so their cap
    rows of `words` 64-bit words take at most WM_BLOCK_CELLS bytes, and so
    do the holder rows gathered for its caps, unless one vertex alone has
    more holders; the set-bits kernel unpacks at most that many nonzero
    bytes at a time, and the incidences are the set bits of the members,
    sorted stably by vertex.
    The state kept across runs is the packed members, their incidences and
    the packed 2-section rows of the covered vertices, so memory stays near
    the size of the family plus O(n), whatever the largest number of
    members holding one vertex.

    Callers pass the unit balls (1-Helly of a graph), the edges (Helly
    property of a hypergraph), all balls (the ball-hypergraph oracle), and
    for Gilmore's conformality test the vertex stars S_v = {l : v in e_l}
    over edge indices.  For the stars, the members holding i and j are the
    S_v with v in e_i & e_j, so the cap of i, j is the set of edges l with
    e_i & e_j inside e_l (all edges when e_i and e_j are disjoint), and the
    three caps of i, j, k meet in the edges containing the union of the
    three pairwise intersections: the triple fails exactly when Gilmore's
    condition does.  Two stars meet iff their edges do, so the 2-section is
    the line graph.
    """
    if n < 3 or not any(family):
        return None
    import numpy as np
    words, k = (n + 63) // 64, len(family)
    step = max(1, WM_BLOCK_CELLS // (8 * words))  # rows of `words` words in WM_BLOCK_CELLS bytes
    rows = _mask_rows([*family, (1 << 64 * words) - 1], words)  # the members, then ones (k)
    member, vertex = map(np.concatenate, zip(*_set_bits(rows[:k], step)))
    hm = member[vertex.argsort(kind="stable")]  # the holders of each vertex in turn
    count = np.bincount(vertex, minlength=n)
    first = np.concatenate(([0], count.cumsum()))  # the holders of v are hm[first[v]:first[v + 1]]
    covered = count.nonzero()[0]
    at = count.astype(bool).cumsum() - 1  # the row of `near` of a covered vertex
    # 2-section rows, x included; the holders of the covered vertices tile hm
    near = _reduce_segments(np.bitwise_or, rows, hm, first[np.concatenate((covered, [n]))],
                            step * words)

    def caps(x, y):
        # the pairs x[i], y[i] each share a member; x becomes the end with fewer holders
        few = count[x] <= count[y]
        x, y = np.where(few, x, y), np.where(few, y, x)
        c = count[x]
        ends = np.concatenate(([0], c.cumsum()))  # the holder lists of x laid end to end
        out = np.empty((len(x), words), np.uint64)
        for lo, hi in _spans(ends, step):  # bounds the holder lists built at once
            m = hm[np.arange(ends[lo], ends[hi]) + (first[x[lo:hi]] - ends[lo:hi]).repeat(c[lo:hi])]
            held = _holds(rows, m, y[lo:hi].repeat(c[lo:hi]))
            _reduce_segments(np.bitwise_and, rows, np.where(held, m, k),
                             ends[lo:hi + 1] - ends[lo], step * words, out[lo:hi])
        return out

    for x0 in range(0, len(covered), step):
        for px, py in _set_bits(near[x0:x0 + step], step):
            px = covered[x0 + px]
            up = py > px
            px, py = px[up], py[up]
            if not len(px):
                continue
            cxy = caps(px, py)
            key = px * n + py  # increasing: the run's pairs are in lex order
            for t, z in _set_bits(near[at[px]] & near[at[py]] & ~cxy, step):
                up = z > py[t]
                t, z = t[up], z[up]
                if not len(t):
                    continue
                # the caps of x, z and y, z, read off the run where it has the pair
                want = np.concatenate((px[t], py[t])) * n + np.concatenate((z, z))
                i = np.minimum(key.searchsorted(want), len(key) - 1)
                pair = cxy[i]
                miss = key[i] != want
                if miss.any():
                    pair[miss] = caps(want[miss] // n, want[miss] % n)
                empty = ((cxy[t] & pair[:len(t)] & pair[len(t):]) == 0).all(axis=1).nonzero()[0]
                if len(empty):
                    e = empty[0]
                    return int(px[t[e]]), int(py[t[e]]), int(z[e])
    return None


def helly_property_certified(h):
    """Berge-Duchet test returning (flag, failing vertex triple or None).

    The edge family has the Helly property iff no vertex triple has
    pairwise caps (intersections of the edges containing a pair) with an
    empty common part.  Only triangles of the 2-section can fail.
    """
    witness = berge_duchet(h.n, h.edge_masks())
    return witness is None, witness


def helly_property_oracle(h):
    """Exponential oracle: every pairwise-intersecting subfamily meets."""
    masks = h.edge_masks()
    if len(masks) > 20:
        raise ValidationError("oracle is exponential; use <= 20 edges")
    full = (1 << h.n) - 1
    for size in range(2, len(masks) + 1):
        for sub in combinations(range(len(masks)), size):
            if any(not (masks[i] & masks[j]) for i, j in combinations(sub, 2)):
                continue
            cap = full
            for i in sub:
                cap &= masks[i]
            if cap == 0:
                return False
    return True


def is_conformal_certified(h):
    """Gilmore test: (flag, failing edge-index triple or None).

    Edges i, j, k fail when no edge contains the union of their pairwise
    intersections.  This is Berge-Duchet on the dual: the kernel runs on
    the vertex stars over edge indices, whose caps are the sets of edges
    containing a pairwise intersection (see `berge_duchet`).  A triple with
    a disjoint pair is witnessed by its third edge, which contains the
    other two intersections.
    """
    witness = berge_duchet(len(h.edges), h.stars)
    return witness is None, witness


def is_conformal_via_cliques(h):
    """Oracle route: every maximal clique of the 2-section lies in an edge."""
    masks = h.edge_masks()
    return all(any(m & c == c for m in masks) for c in _section_cliques(h))


def is_triangle_free_hypergraph(h):
    """No length-3 cycle avoids having its three vertices inside one of its edges.

    A 3-cycle on edges a, b, c has distinct vertices x in c & a, y in a & b
    and z in b & c.  It lies in a iff z is in a, in b iff x is in b, and in
    c iff y is in c, since each edge holds the two vertices it shares.  So
    a, b, c fail iff c & a - b, a & b - c and b & c - a are all nonempty:
    those three sets are pairwise disjoint, so any picks from them are
    distinct.

    Pair walk.  Read from the pair a, b, the three sets say that c meets
    a - b, that c meets b - a and that c misses part of a & b.  The edges
    meeting a - b are the OR of the stars (`Hypergraph.stars`) over a - b,
    those meeting b - a the OR over b - a, and those holding all of a & b
    the AND over a & b; so some c fails with a and b iff
    OR(a - b) & OR(b - a) & ~AND(a & b) != 0.  Neither a nor b meets the
    other's difference, so such a c is a third edge.  Any permutation of
    a, b, c permutes the three sets among themselves, so a failing triple
    fails with each of its pairs, in particular with the pair of its two
    least indices, and that pair meets, since a & b - c is nonempty.  So
    only the pairs a < b that meet are walked, b read off the OR of the
    stars over a, and each pair reads each vertex of a and of b once:
    |a| + |b| bigint operations per pair in place of m - 2 triples.
    """
    stars = h.stars
    masks = h.edge_masks()
    edges = h.edges
    for a, ea in enumerate(edges):
        ma, meets = masks[a], 0
        for v in ea:
            meets |= stars[v]
        meets >>= a + 1
        while meets:  # the bits of the edges b > a that meet a
            low = meets & -meets
            meets ^= low
            b = a + low.bit_length()
            mb, right = masks[b], 0
            for v in edges[b]:
                if not ma >> v & 1:
                    right |= stars[v]
            if not right:  # b lies in a
                continue
            left, both = 0, -1
            for v in ea:
                if mb >> v & 1:
                    both &= stars[v]
                else:
                    left |= stars[v]
            if left & right & ~both:
                return False
    return True


def strong_gilmore(h):
    """Gilmore with the witness forced among the three edges themselves.

    Oracle: tests check `is_triangle_free_hypergraph` against it.
    """
    masks = h.edge_masks()
    for i, j, k in combinations(range(len(masks)), 3):
        need = (masks[i] & masks[j]) | (masks[i] & masks[k]) | (masks[j] & masks[k])
        if not (masks[i] & need == need or masks[j] & need == need or masks[k] & need == need):
            return False
    return True


def conformal_closure(h):
    """Add every maximal clique of the 2-section as an edge (same 2-section)."""
    cliques = {tuple(bits(c)) for c in _section_cliques(h)}
    return Hypergraph(h.n, tuple(sorted(set(h.edges) | cliques)))


def hellyfication_hypergraph(h):
    """Add one witness vertex per maximal pairwise-intersecting bad family.

    Bad families (pairwise intersecting, empty total intersection) are the
    maximal cliques of the line graph with empty intersection; witnesses are
    numbered n, n+1, ... in lexicographic order of the sorted edge-index sets.
    """
    bad = sorted(tuple(bits(fam)) for fam in _empty_families(h.edge_masks()))
    new_edges = [list(e) for e in h.edges]
    next_id = h.n
    for fam in bad:
        for i in fam:
            new_edges[i].append(next_id)
        next_id += 1
    return Hypergraph(next_id, tuple(tuple(sorted(e)) for e in new_edges))


def _line_masks(edge_masks):
    """Adjacency masks of the intersection graph: i ~ j when masks i and j meet."""
    k = len(edge_masks)
    nbr = [0] * k
    for i, j in combinations(range(k), 2):
        if edge_masks[i] & edge_masks[j]:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    return nbr


def _empty_families(masks):
    """Maximal pairwise-intersecting families of the nonempty `masks` with
    an empty intersection, each as a mask of member indices.

    They are the maximal cliques of the intersection graph whose members
    share no vertex; a family of one member meets in that member.
    """
    out = []
    for fam in maximal_clique_masks(_line_masks(masks), None):
        cap = -1
        for i in bits(fam):
            cap &= masks[i]
        if cap == 0:
            out.append(fam)
    return out


# -- abstract cell complexes --------------------------------------------------


@dataclass(frozen=True)
class CellComplex:
    n: int
    cells: tuple  # tuple of sorted vertex tuples; may include ()

    @classmethod
    def of(cls, n, cells):
        cleaned = sorted({tuple(sorted(set(c))) for c in cells})
        return cls(n, tuple(cleaned))

    def validate(self):
        masks = [mask_of(c) for c in self.cells]
        have = set(masks)
        for i, j in combinations(range(len(masks)), 2):
            if masks[i] & masks[j] not in have:
                raise ValidationError(
                    f"cells {self.cells[i]!r} and {self.cells[j]!r} intersect "
                    "outside the complex")
        return True

    def dimensions(self):
        """dim(C) = longest chain of nonempty cells ending at C (recomputed)."""
        masks = [mask_of(c) for c in self.cells]
        order = sorted(range(len(masks)), key=lambda i: (masks[i].bit_count(), self.cells[i]))
        dim = {}
        for i in order:
            if masks[i] == 0:
                dim[i] = -1  # empty cell sits below every chain
                continue
            below = [dim[j] for j in order if j != i and masks[j] != 0
                     and masks[j] | masks[i] == masks[i] and masks[j] != masks[i]
                     and j in dim]
            dim[i] = 1 + max(below) if below else 0
        return [dim[i] for i in range(len(masks))]


@dataclass(frozen=True)
class CellConditionReport:
    three_cell: bool
    gmc: bool
    helly3: bool
    witnesses: dict

    @property
    def all_hold(self):
        return self.three_cell and self.gmc and self.helly3


def check_cell_conditions(x):
    """Exhaustive 3-cell, graded-monotonicity, and 3-cell-Helly verification.

    All three conditions are evaluated independently, each with its first
    failing witness.  Cube-like complexes with gated cells satisfy all
    three; simplicial complexes satisfy the first two but their edge triples
    already violate the 3-cell Helly property.
    """
    x.validate()
    masks = [mask_of(c) for c in x.cells]
    dim = x.dimensions()
    index = {m: i for i, m in enumerate(masks)}
    nonempty = [i for i, m in enumerate(masks) if m]
    witnesses = {}

    def is_facet(a, c):
        # a proper face of c, maximal among proper faces
        if a == c or a | c != c:
            return False
        for m in masks:
            if m != c and m != a and m | c == c and a | m == m:
                return False
        return True

    three_cell = True
    for i, j, k in combinations(nonempty, 3):
        ci, cj, ck = masks[i], masks[j], masks[k]
        cij, cik, cjk = ci & cj, ci & ck, cj & ck
        cijk = ci & cj & ck
        if not (is_facet(cij, ci) and is_facet(cij, cj)):
            continue
        if not (is_facet(cik, ci) and is_facet(cik, ck)):
            continue
        if not (is_facet(cjk, cj) and is_facet(cjk, ck)):
            continue
        if not (is_facet(cijk, cij) and is_facet(cijk, cik) and is_facet(cijk, cjk)):
            continue
        union = ci | cj | ck
        if not any(union | m == m for m in masks):
            three_cell = False
            witnesses["3-cell"] = (x.cells[i], x.cells[j], x.cells[k])
            break

    gmc = True
    for c_i in nonempty:
        c = masks[c_i]
        faces = [i for i in range(len(masks)) if masks[i] | c == c]
        for a_i in faces:
            for b_i in faces:
                a, b = masks[a_i], masks[b_i]
                if a & b == 0 or b | a == a:
                    continue
                found = False
                for d_i in faces:
                    d = masks[d_i]
                    if (is_facet(a, d) and dim[d_i] == dim[a_i] + 1
                            and (d & b) in index
                            and dim[index[d & b]] == dim[index[a & b]] + 1):
                        found = True
                        break
                if not found:
                    gmc = False
                    witnesses["gmc"] = (x.cells[c_i], x.cells[a_i], x.cells[b_i])
                    break
            if not gmc:
                break
        if not gmc:
            break

    helly3 = True
    for i, j, k in combinations(nonempty, 3):
        ci, cj, ck = masks[i], masks[j], masks[k]
        if ci & cj and ci & ck and cj & ck and not (ci & cj & ck):
            helly3 = False
            witnesses["helly3"] = (x.cells[i], x.cells[j], x.cells[k])
            break

    return CellConditionReport(three_cell, gmc, helly3, witnesses)
