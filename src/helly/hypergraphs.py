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
from .graphs import (WM_BLOCK_CELLS, Graph, _after, _holds, _mask_rows, _reduce_segments,
                     _set_bits, _spans, bits, mask_of, maximal_clique_masks)


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

    Expansions.  An incidence (m, x), x in member m, expands into the
    pairs (x, y) with y after x in m, one per such y.  The pairs x < y
    sharing a member are the expansion keys x n + y, and the members
    holding both x and y are those of the expansions with that key; so one
    stable sort of a run's keys lists its pairs in lex order, x < y, each
    once, with its holders next to each other, and one segmented AND of
    their member rows (`graphs._reduce_segments`) gives every cap of the
    run.  A run is a range of consecutive covered x whose expansions,
    `words` cells of member rows each, and slot table, n int32 entries per
    vertex from its first x to the next covered vertex, take at most
    WM_BLOCK_CELLS cells, or a single x.  Its pairs are walked in blocks of
    at most WM_BLOCK_CELLS // words, so there is more than one block only
    when one x has more pairs.

    Order.  The candidates z of a pair x < y are the set bits of
    after[x] & after[y] & ~cap(x, y), where after[v] is the packed row of
    the 2-section neighbours of v after v; after[x] & after[y] holds only
    z > y, since y > x.  So the candidates are masked to z > y before a
    bit is extracted, and the bits of a block's candidate rows, taken in
    row-major order (`graphs._set_bits`), are exactly its walked triples,
    ordered by pair and then by z: by the lex order of the pairs, that is
    the lex order of the triples.  Blocks come in the lex order of their
    pairs, and (x, y) < (x', y') implies (x, y, z) < (x', y', z'), so the
    blocks list the walked triples in lex order; the scan stops at the
    first block with a failure, and its first failing triple is the least
    failing walked triple, hence the least failing triple.  Grids leave in
    the first block, at (0, 1, k).

    Caps are ANDs of packed member rows (`graphs`) and are not kept past
    their block.  The caps of x, z and y, z a triple needs are read off its
    block through the slot table, the index of each of the block's pairs at
    its key less the block's first key.  A pair past the block, (y, z) with
    y after the run, has its cap built from the holders of the end with
    fewer holders, with those missing the other end replaced by a row of
    ones.  Every temporary is bounded through `WM_BLOCK_CELLS`: a block's
    member rows, cap rows and slot table as above, the holder rows gathered
    for caps past it, unless one vertex alone has more holders, and the
    triples taken at once, WM_BLOCK_CELLS // (8 words), with their cap
    rows.  The state kept across runs is the packed members, their
    incidences in both orders and the after rows of the covered vertices,
    so memory stays near the size of the family plus O(n), whatever the
    largest number of members holding one vertex.

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
    budget = max(1, WM_BLOCK_CELLS // words)  # expansions of a run, pairs of a block
    step = max(1, budget // 8)  # rows of `words` words in WM_BLOCK_CELLS bytes
    rows = _mask_rows([*family, (1 << 64 * words) - 1], words)  # the members, then ones (k)
    member, vertex = next(_set_bits(rows[:k]))  # the incidences, by member and then vertex
    order = vertex.argsort(kind="stable")
    hm = member[order]  # the incidences by vertex: the holders of each vertex in turn
    count = np.bincount(vertex, minlength=n)
    first = np.concatenate(([0], count.cumsum()))  # the holders of v are hm[first[v]:first[v + 1]]
    covered = count.nonzero()[0]
    fence = np.concatenate((covered, [n]))
    cut = first[fence]  # the holders of the covered vertices tile hm
    # after[i]: the 2-section neighbours of covered[i] after it
    after = _reduce_segments(np.bitwise_or, rows, hm, cut, step * words)
    after &= _after(covered, words)
    # incidence order[j] expands into the later[j] incidences after it in its member
    start = order + 1
    later = member.searchsorted(member, "right")[order] - start
    spread = np.concatenate(([0], later.cumsum()))  # hm[:j] has spread[j] expansions
    shift, xn = start - spread[:-1], vertex[order] * n

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

    # runs of covered vertices: expansions at `words` cells, slot tables at n / 2 a vertex
    for lo, hi in _spans(spread[cut] * words + fence * (n // 2 + 1), WM_BLOCK_CELLS):
        a, b = cut[lo], cut[hi]
        if spread[a] == spread[b]:  # no pairs
            continue
        c = later[a:b]
        # the member-major index of the vertex y of each expansion (x, y) of the run
        src = np.arange(spread[a], spread[b]) + shift[a:b].repeat(c)
        key = xn[a:b].repeat(c) + vertex[src]
        s = key.argsort(kind="stable")
        key, held = key[s], member[src[s]]
        new = np.empty(len(key) + 1, bool)
        new[0] = new[-1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:-1])
        bounds = new.nonzero()[0]  # the expansions of each pair, and the end
        for p in range(0, len(bounds) - 1, budget):  # one block unless one x has more pairs
            seg = bounds[p:p + budget + 1]
            pair = key[seg[:-1]]  # increasing: the block's pairs in lex order
            px, py = np.divmod(pair, n)
            cxy = _reduce_segments(np.bitwise_and, rows, held[seg[0]:seg[-1]], seg - seg[0],
                                   budget * words)
            slot = np.empty(pair[-1] - pair[0] + 2, np.int32)  # the block's pairs by key
            slot.fill(-1)
            slot[pair - pair[0]] = np.arange(len(pair))
            cand = after[covered.searchsorted(px)]
            cand &= after[covered.searchsorted(py)]
            cand &= ~cxy
            for t, z in _set_bits(cand, step):
                y = py[t]
                # the caps of x, z and y, z, read off the block where it has the pair
                want = np.concatenate((pair[t] - y + z, y * n + z))
                i = slot[np.minimum(want - pair[0], len(slot) - 1)]
                other = cxy[i]
                miss = (i < 0).nonzero()[0]
                if len(miss):
                    other[miss] = caps(*np.divmod(want[miss], n))
                meet = cxy[t] & other[:len(t)] & other[len(t):]
                # the ufunc's own reduce: ndarray.all goes through a Python wrapper
                empty = np.logical_and.reduce(meet == 0, axis=1).nonzero()[0]
                if len(empty):
                    e = empty[0]
                    return int(px[t[e]]), int(y[e]), int(z[e])
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
