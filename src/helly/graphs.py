"""Finite connected graphs with cached metric structure.

Vertices are dense ids 0..n-1.  Adjacency is kept as sorted tuples (for
iteration and serialization), as per-vertex int bitmasks (for the set
algebra of the metric predicates) and, for numpy code, as one CSR, built
lazily, or first by `_csr_graph`, which makes a graph from its CSR.

Distances come by one of two routes, both memoized.  A sweep over every
row (weak modularity, hyperbolicity, the diameter) asks for `distances()`,
the n x n matrix built by one bit-parallel BFS from all sources at once on
packed numpy rows.  A caller that needs a few rows asks for `dist_row`,
which runs a single-source BFS, or reads the row off the matrix once it
exists, so the two routes never disagree.  Balls are grown per radius as
far as a caller asks.  The weak-modularity report is memoized too, since
both recognition routes and the median test ask for it.  The graph is
observably immutable: the lazy caches (the CSR, rows, balls, matrix and
report) are idempotent, so concurrent readers can at worst recompute one.
numpy is imported by the functions that use it, so building and printing
graphs does not load it.  The packed rows of numpy code and their kernels
are defined here alone ("packed rows" below).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain

from .errors import (SIZE_CAP, ResourceCapExceeded, ValidationError, int_lists, json_value,
                     object_with, vertex_count)


def bits(mask):
    """Iterate the set bit positions of an int mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def maximal_clique_masks(nbr, cap):
    """Maximal cliques, as masks, of the graph with adjacency masks `nbr`.

    Bron-Kerbosch with Tomita pivoting on an explicit stack, so clique size is
    not bounded by the recursion limit.  The output order is unspecified.  A
    cap other than None stops the enumeration at clique cap + 1 with
    ResourceCapExceeded.
    """
    out = []
    stack = [(0, (1 << len(nbr)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
                if cap is not None and len(out) > cap:
                    raise ResourceCapExceeded(f"maximal clique count exceeds cap {cap}")
            continue
        pivot = max(bits(p | x), key=lambda v: (nbr[v] & p).bit_count())
        for v in bits(p & ~nbr[pivot]):
            bit = 1 << v
            stack.append((r | bit, p & nbr[v], x & nbr[v]))
            p &= ~bit
            x |= bit
    return out


class Graph:
    """Simple, undirected, connected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "nbr_mask", "ball1_mask", "_csr", "_rows", "_dist", "_ball_masks",
                 "_wm")

    def __init__(self, n, edges):
        if n <= 0:
            raise ValidationError("graph needs at least one vertex")
        if n > SIZE_CAP:  # refused before any per-vertex list is built
            raise ResourceCapExceeded(f"graph of {n} vertices exceeds cap {SIZE_CAP}")
        nbr = [0] * n
        adj = [[] for _ in range(n)]
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise ValidationError(f"loop at vertex {u} not allowed")
            if not nbr[u] >> v & 1:  # a repeated edge is kept once
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
                adj[u].append(v)
                adj[v].append(u)
        for a in adj:
            a.sort()
        self.n = n
        self.nbr_mask = nbr
        self.adj = list(map(tuple, adj))
        self._csr = None  # csr(), once asked for
        self._rows = [None] * n
        self._dist = None  # distances(), once computed
        self._ball_masks = [None] * n
        self._wm = None  # weak_modularity(self), once computed
        # connectivity is a constructor guarantee, not a per-op check
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        if not all(seen):
            raise ValidationError(
                f"graph is disconnected (vertex {seen.index(False)} unreachable from 0)")
        # about n^2 / 16 bytes, so built once the graph is known to be connected
        self.ball1_mask = [nbr[v] | (1 << v) for v in range(n)]

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_json(cls, text):
        """Parse {"n": <int>, "edges": [[u, v], ...]}; bad input is a ValidationError."""
        return cls.from_object(json_value(text))

    @classmethod
    def from_object(cls, data):
        """The graph of the decoded JSON value of `from_json`."""
        data = object_with(data, "n", "edges")
        edges = int_lists(data["edges"], "edges")
        if not set(map(len, edges)) <= {2}:
            raise ValidationError("every edge must have exactly two ends")
        return cls(vertex_count(data["n"]), edges)

    def edges(self):
        """Sorted list of edges (u, v) with u < v."""
        out = []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def to_json(self):
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges()]},
                          separators=(",", ":"), sort_keys=True)

    def to_dot(self):
        lines = ["graph G {"]
        for v in range(self.n):
            lines.append(f'  {v} [label="{v}"];')
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)

    # -- metric ---------------------------------------------------------------

    def csr(self):
        """(heads, offsets), read-only intp arrays (memoized): the sorted lists
        laid end to end and their starts; v's are heads[offsets[v]:offsets[v + 1]]."""
        if self._csr is None:
            import numpy as np
            offsets = np.fromiter(accumulate(map(len, self.adj), initial=0), np.intp, self.n + 1)
            heads = np.fromiter(chain.from_iterable(self.adj), np.intp, offsets[-1])
            heads.flags.writeable = offsets.flags.writeable = False
            self._csr = heads, offsets
        return self._csr

    def dist_row(self, u):
        """Distances from u as a list of ints (memoized): read off
        `distances()` once the matrix exists, else by BFS from u."""
        row = self._rows[u]
        if row is None:
            if self._dist is not None:
                row = self._dist[u].tolist()
            else:
                row = [-1] * self.n
                row[u] = 0
                queue = deque([u])
                while queue:
                    x = queue.popleft()
                    dx = row[x] + 1
                    for y in self.adj[x]:
                        if row[y] < 0:
                            row[y] = dx
                            queue.append(y)
            self._rows[u] = row
        return row

    def distances(self):
        """All-pairs distance matrix, n x n in the smallest signed dtype that
        holds n (memoized, read-only).

        One BFS from every source at once.  Row x of R_r is the ball B_r(x)
        as a packed row: R_0 holds the singletons, and R_{r+1}[x] is R_r[x]
        or'd with R_r[y] over the neighbours y of x, one segmented OR per
        level over the lists of `csr()`, gathering at most
        `WM_BLOCK_CELLS` words at once.  The bits of F_r = R_r & ~R_{r-1}
        are the pairs at distance r, so bit j of the matrix is the OR of the
        F_r with bit j of r set: each level ors F_r into the packed planes
        of the bits of r, and the planes are unpacked once, at the end, in
        blocks of rows of at most `WM_BLOCK_CELLS` cells, after the BFS rows
        are freed, so the peak is about the matrix and its planes.  The BFS
        ends at the first level that adds no bit.
        """
        if self._dist is None:
            import numpy as np
            n = self.n
            heads, offsets = self.csr()
            balls = _singletons(np.arange(n), (n + 63) // 64)
            grown = np.empty_like(balls)
            planes, level = [], 0  # planes[j]: the pairs whose distance has bit j set
            while n > 1:  # then every vertex has a neighbour, so no list is empty
                _reduce_segments(np.bitwise_or, balls, heads, offsets, WM_BLOCK_CELLS, grown)
                grown |= balls
                balls ^= grown  # F of the next level
                if not balls.any():
                    break
                level += 1
                if level & (level - 1) == 0:  # a power of two: a new top bit
                    planes.append(np.zeros_like(balls))
                for j, plane in enumerate(planes):
                    if level >> j & 1:
                        plane |= balls
                balls, grown = grown, balls
            del balls, grown
            d = np.zeros((n, n), np.min_scalar_type(-n))
            step = max(1, WM_BLOCK_CELLS // n)
            for lo in range(0, n, step):
                rows = d[lo:lo + step]
                for plane in reversed(planes):
                    rows <<= 1
                    rows |= _unpacked(plane[lo:lo + step], n)
            d.flags.writeable = False
            self._dist = d
        return self._dist

    def dist(self, u, v):
        return self.dist_row(u)[v]

    def diameter(self):
        return int(self.distances().max())

    def level_masks(self, u):
        """Masks of the spheres around u, indexed by distance."""
        levels = [1 << u]
        while sphere := self.ball_mask(u, len(levels)) & ~self.ball_mask(u, len(levels) - 1):
            levels.append(sphere)
        return levels

    def ball_mask(self, v, r):
        """Mask of the ball of radius r around v.

        The balls B_0, B_1, ... of v are cached as one list, grown on demand
        by adding the neighbours of the last sphere, and complete once it
        ends in two equal balls (the whole component of v).
        """
        if r < 0:
            return 0
        balls = self._ball_masks[v]
        if balls is None or (r >= len(balls) and balls[-1] != balls[-2]):
            # grown on a copy and stored with one assignment
            balls = [1 << v, self.ball1_mask[v]] if balls is None else balls[:]
            nbr = self.nbr_mask
            while len(balls) <= r and balls[-1] != balls[-2]:
                ball = balls[-1]
                for x in bits(ball & ~balls[-2]):
                    ball |= nbr[x]
                balls.append(ball)
            self._ball_masks[v] = balls
        return balls[min(r, len(balls) - 1)]

    def interval_mask(self, u, v):
        """Mask of I(u, v): the x with d(u, x) + d(x, v) = d(u, v) = k.

        It is the union over j of B(u, j) & B(v, k - j): a vertex in it has
        d(u, x) + d(x, v) <= k, and the triangle inequality forces equality.
        """
        k = self.dist(u, v)
        m = 0
        for j in range(k + 1):
            m |= self.ball_mask(u, j) & self.ball_mask(v, k - j)
        return m

    def is_clique(self, vertices):
        """S is a clique iff S lies in B_1(v) for every v in S: that says each
        member is adjacent to every other one, and B_1(v) holds v itself."""
        vs = list(vertices)
        s = mask_of(vs)
        return all(s & ~self.ball1_mask[v] == 0 for v in vs)

    def induced(self, vertices):
        """Induced subgraph plus the old-id list (position = new id)."""
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        sub = [(pos[u], pos[v]) for u in vs for v in self.adj[u] if v in pos and u < v]
        return Graph(len(vs), sub), vs

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.nbr_mask == other.nbr_mask

    def __hash__(self):
        return hash((self.n, tuple(self.nbr_mask)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={sum(len(a) for a in self.adj) // 2})"


def _csr_graph(heads, offsets, nbr_mask):
    """The graph whose `csr()` is (heads, offsets), with no edge tuples and
    no per-edge Python loop; only the vertex count is checked, as in the
    constructor.  Each input guarantees an invariant of the class:
      - heads and offsets, intp arrays: each segment heads[offsets[v]:
        offsets[v + 1]] is sorted, without repeats and without v, and u
        is in v's segment iff v is in u's, so `adj`, its slices of one
        `tolist()`, holds sorted simple undirected adjacency lists;
      - nbr_mask: nbr_mask[v] is the mask of v's segment, so the masks
        agree with `adj`, and `ball1_mask` adds v to it.
    Connectivity is not checked: the caller proves it before the graph is
    used, as `hull` does with the descent certificate of
    `hull._check_hull_distances`, which checks on the CSR that no vertex
    is isolated and then that the graph distance is the (finite)
    sup-distance, before `hull.hellyfication` returns the graph.  The
    arrays are made read-only."""
    n = len(offsets) - 1
    if n <= 0:
        raise ValidationError("graph needs at least one vertex")
    if n > SIZE_CAP:
        raise ResourceCapExceeded(f"graph of {n} vertices exceeds cap {SIZE_CAP}")
    g = Graph.__new__(Graph)
    flat, ends = heads.tolist(), offsets.tolist()
    g.n = n
    g.adj = [tuple(flat[a:b]) for a, b in zip(ends, ends[1:])]
    g.nbr_mask = nbr_mask
    g.ball1_mask = [mask | 1 << v for v, mask in enumerate(nbr_mask)]
    heads.flags.writeable = offsets.flags.writeable = False
    g._csr = heads, offsets
    g._rows, g._dist, g._ball_masks, g._wm = [None] * n, None, [None] * n, None
    return g


def ball_star_mask(g, vertices, r):
    m = (1 << g.n) - 1
    for v in vertices:
        m &= g.ball_mask(v, r)
    return m


def as_sequence(value, what):
    """`value` as a tuple; a value that is not iterable is bad input."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, got {value!r}") from None


def as_vertices(g, value, what):
    """`value` as a tuple of vertices of g; anything else is bad input."""
    vs = as_sequence(value, what)
    if not all(isinstance(v, int) and 0 <= v < g.n for v in vs):
        raise ValidationError(f"{what} {vs!r} has a vertex outside [0, {g.n})")
    return vs


def as_vertex_set(g, value, what):
    """`value` as a sorted nonempty tuple of distinct vertices of g."""
    vs = tuple(sorted(set(as_vertices(g, value, what))))
    if not vs:
        raise ValidationError(f"{what} must be nonempty")
    return vs


def is_gated(g, subset):
    """Decide whether `subset` is gated; return (flag, gate map or witness).

    On success the second component maps every outside vertex to its gate.
    On failure it is the first outside vertex with no gate.
    """
    hs = as_vertex_set(g, subset, "subset")
    hmask = mask_of(hs)
    gates = {}
    for x in range(g.n):
        if (hmask >> x) & 1:
            continue
        rx = g.dist_row(x)
        gate = None
        for cand in hs:
            dc = rx[cand]
            rc = g.dist_row(cand)
            if all(rx[y] == dc + rc[y] for y in hs):
                gate = cand
                break
        if gate is None:
            return False, x
        gates[x] = gate
    return True, gates


def is_convex(g, subset):
    """True iff the set contains the interval between each of its pairs."""
    vs = as_vertex_set(g, subset, "subset")
    smask = mask_of(vs)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if g.interval_mask(u, v) & ~smask:
                return False
    return True


@dataclass(frozen=True)
class WeakModularityReport:
    tc_holds: bool
    qc_holds: bool
    tc_witness: tuple | None = None
    qc_witness: tuple | None = None

    @property
    def holds(self):
        return self.tc_holds and self.qc_holds


# numpy cells per step of `weak_modularity`: source rows x items per block of
# the scan, and items x vertices per chunk while its item lists are built, so
# each temporary holds about 32K one-byte entries unless one row alone is wider
WM_BLOCK_CELLS = 1 << 15


def _spans(offsets, limit):
    """Consecutive ranges [lo, hi) of the segments offsets[i]:offsets[i + 1],
    in order, each of at most `limit` entries in all or of a single segment."""
    lo = 0
    while lo < len(offsets) - 1:
        hi = max(lo + 1, int(offsets.searchsorted(offsets[lo] + limit, "right")) - 1)
        yield lo, hi
        lo = hi


# -- packed rows ---------------------------------------------------------------
# A packed row is a set of vertices as a row of `words` uint64 words: vertex v
# is bit v & 7 of byte v >> 3, so on a little-endian host bit v & 63 of word
# v >> 6.  Only the kernels below read or write that layout; their callers
# (here, `bicombing`, `hypergraphs`, `recognition`) combine whole words with
# & | ^ ~, and `hull` takes its boolean rows to int masks.


def _mask_rows(masks, words):
    """The int masks as packed rows (read-only)."""
    import numpy as np
    return np.frombuffer(b"".join([m.to_bytes(8 * words, "little") for m in masks]),
                         np.uint64).reshape(-1, words)


def _row_masks(b):
    """The rows along the last axis of the boolean array b as int masks, in C
    order, the way back from `_mask_rows`: bit y of a mask is column y.  The
    packed words of each row are joined into one int per row, highest word
    first."""
    rows = b.reshape(-1, b.shape[-1])
    out = 0
    for word in _packed(rows, -(-rows.shape[1] // 64)).T[::-1]:
        out = out << 64 | word.astype(object)
    return out.tolist()


def _packed(rows, words):
    """The rows of a 2-D boolean array as packed rows; column v is vertex v."""
    import numpy as np
    padded = np.zeros((len(rows), 64 * words), bool)  # whole words pack fastest
    padded[:, :rows.shape[1]] = rows
    return np.packbits(padded.reshape(-1), bitorder="little").view(np.uint64).reshape(-1, words)


def _unpacked(rows, n):
    """The packed rows as an n-column array of 0s and 1s; column v is vertex v."""
    import numpy as np
    return np.unpackbits(rows.view(np.uint8), axis=1, count=n, bitorder="little")


def _singletons(vertices, words):
    """The sets {v} as packed rows."""
    import numpy as np
    out = np.zeros((len(vertices), words), np.uint64)
    out.view(np.uint8)[np.arange(len(vertices)), vertices >> 3] = 1 << (vertices & 7)
    return out


def _set_bits(rows, limit=None):
    """Yield the set bits of the packed rows as (row, vertex) index arrays in
    row-major order, in one chunk or in chunks of at most `limit` bits, and
    at least one chunk; only nonzero bytes are unpacked, `limit` at a time."""
    import numpy as np
    octets = rows.reshape(-1).view(np.uint8)
    at = (octets != 0).nonzero()[0]
    step = limit or 8 * len(at) or 1  # no limit: one block and one chunk, 8 bits a byte
    for lo in range(0, len(at) or 1, step):
        block = at[lo:lo + step]
        bit = np.unpackbits(octets[block], bitorder="little").view(bool).nonzero()[0]
        row, byte = np.divmod(block[bit >> 3], 8 * rows.shape[1])
        vertex = byte * 8 + (bit & 7)
        for i in range(0, len(bit) or 1, step):
            yield row[i:i + step], vertex[i:i + step]


def _meet(unit, rows):
    """Row i: the AND of unit[v] over the members v of rows[i], each nonempty."""
    import numpy as np
    r, v = next(_set_bits(rows))
    return _reduce_segments(np.bitwise_and, unit, v, r.searchsorted(np.arange(len(rows) + 1)),
                            WM_BLOCK_CELLS)


def _holds(rows, r, v):
    """Whether the packed row rows[r] holds the vertex v, elementwise, as 0 or 1."""
    return rows.view("u1")[r, v >> 3] >> (v & 7) & 1


def _reduce_segments(ufunc, table, index, offsets, limit, out=None):
    """Row i: `ufunc` reduced over the rows table[j] for the j of segment i,
    index[offsets[i]:offsets[i + 1]], nonempty; the segments tile index.
    The table rows gathered at once take at most `limit` cells, or one
    segment's where that needs more: one reduceat when all of them fit."""
    import numpy as np
    if out is None:
        out = np.empty((len(offsets) - 1, table.shape[1]), table.dtype)
    if len(index) * table.shape[1] <= limit:
        ufunc.reduceat(table.take(index, axis=0), offsets[:-1], out=out)
        return out
    for lo, hi in _spans(offsets, limit // table.shape[1]):
        a, b = offsets[lo], offsets[hi]
        ufunc.reduceat(table.take(index[a:b], axis=0), offsets[lo:hi] - a, out=out[lo:hi])
    return out


def _padded(index, offsets):
    """Column i: segment i, index[offsets[i]:offsets[i + 1]], padded to the
    longest by repeating its last entry; row k holds entry k of each."""
    import numpy as np
    sizes = np.diff(offsets)
    return index[offsets[:-1] + np.minimum(np.arange(sizes.max())[:, None], sizes - 1)]


class _WmItems:
    """Pairs v < w, each with the members (common neighbours) of v and w.

    Pairs are stored by decreasing member count, ties in lex order, so the
    pairs with more than k members are a prefix; `order[i]` is the lex rank
    of stored pair i.  `layers[k]` holds the k-th least member of each pair
    of that prefix.  The members are the set bits of adj[v] & adj[w], on
    packed adjacency rows, for blocks of pairs of at most WM_BLOCK_CELLS bytes.
    """

    def __init__(self, adj, v, w):
        import numpy as np
        sizes, members = [], []
        step = max(1, WM_BLOCK_CELLS // (8 * adj.shape[1]))
        for i in range(0, max(len(v), 1), step):  # one pass even with no pairs
            common = adj[v[i:i + step]] & adj[w[i:i + step]]
            r, c = next(_set_bits(common))
            sizes.append(np.bincount(r, minlength=len(common)))
            members.append(c.astype(np.min_scalar_type(len(adj))))
        sizes, members = np.concatenate(sizes), np.concatenate(members)
        self.order = np.argsort(-sizes, kind="stable")
        self.v, self.w = v[self.order], w[self.order]
        starts = (np.cumsum(sizes) - sizes)[self.order]
        counts = len(sizes) - np.cumsum(np.bincount(sizes))[:-1]
        self.layers = [members[starts[:c] + k] for k, c in enumerate(counts)]


def _wm_items(g):
    """TC items (the edges, with their apexes) and QC items (the pairs at
    distance 2, with their common neighbours), the pairs read off blocks of
    rows of `g.distances()` of at most `WM_BLOCK_CELLS` cells."""
    import numpy as np
    dist, step = g.distances(), max(1, WM_BLOCK_CELLS // g.n)
    pairs = {1: [], 2: []}  # blocks of the pairs v < w at each distance
    for lo in range(0, g.n, step):
        for j, found in pairs.items():
            v, w = np.nonzero(dist[lo:lo + step] == j)
            up = w > v + lo
            found.append((v[up] + lo, w[up]))
    adj = _mask_rows(g.nbr_mask, (g.n + 63) // 64)
    return [_WmItems(adj, *map(np.concatenate, zip(*pairs[j]))) for j in (1, 2)]


def weak_modularity(g):
    """Exhaustive triangle- and quadrangle-condition check.

    The first failing witness (lexicographically smallest) is reported:
    (u, v, w) for TC, (u, z, v, w) for QC.

    Both conditions are tested for a block of sources u at once, on the
    rows D[u] of `g.distances()`, against fixed item lists:

    - TC fails at u on the edge v < w iff D[u,v] = D[u,w] = j and no apex
      (common neighbour) of v, w is at distance j - 1.
    - QC fails at u on a non-adjacent pair v < w at distance 2, with common
      neighbours C, iff D[u,v] = D[u,w] = j, some c in C is at distance
      j + 1 and none at distance j - 1.  The pairs that fail for a vertex z
      at distance j + 1 are exactly the pairs of neighbours of z at distance
      j that fail this way, since z is then a common neighbour of theirs.

    Neither fails unless j >= 2: v != w gives j > 0, and at j = 1 the
    source u is a common neighbour at distance 0.  A member c is adjacent
    to v, so |D[u,c] - D[u,v]| <= 1: "at distance j - 1" is D[u,c] < D[u,v]
    and "j + 1" is D[u,c] > D[u,v].  Entries are only compared, never
    computed, so the matrix's dtype, the least signed one that holds n,
    serves as it is.

    Witness order.  Sources are scanned in increasing order, so the first
    row with a failure gives u.  TC items are ranked as the edges in lex
    order, as in a scan over `edges()`, so the least-ranked failing item
    gives (v, w).  A QC witness is ordered by z first, then (v, w): for each
    failing pair its least possible z is its least common neighbour at
    distance j + 1, and the witness is the lex-least (z, v, w) over the
    pairs failing at u, which is the first hit of a scan over z, then over
    pairs v < w of neighbours of z.  The scan stops at the block where both
    witnesses are known.  The report is memoized on the graph.
    """
    if g._wm is not None:
        return g._wm
    import numpy as np
    n = g.n
    tc, qc = _wm_items(g)
    dist = g.distances()
    block = max(1, WM_BLOCK_CELLS // max(n, len(tc.v), len(qc.v)))
    tc_witness = qc_witness = None
    tc_open, qc_open = len(tc.v) > 0, len(qc.v) > 0
    for u0 in range(0, n, block):
        if not (tc_open or qc_open):
            break
        d = dist[u0:u0 + block]
        if tc_open:
            dv = np.take(d, tc.v, axis=1)
            fail = (dv == np.take(d, tc.w, axis=1)) & (dv >= 2)
            for apex in tc.layers:
                if not fail.any():
                    break
                fail[:, :len(apex)] &= np.take(d, apex, axis=1) >= dv[:, :len(apex)]
            hit = fail.any(axis=1)
            if hit.any():
                r = int(hit.argmax())
                i = np.flatnonzero(fail[r])
                e = i[tc.order[i].argmin()]
                tc_witness = (u0 + r, int(tc.v[e]), int(tc.w[e]))
                tc_open = False
        if qc_open:
            dv = np.take(d, qc.v, axis=1)
            fail = (dv == np.take(d, qc.w, axis=1)) & (dv >= 2)
            up = np.zeros_like(fail)
            for common in qc.layers:
                if not fail.any():
                    break
                c = len(common)
                dc = np.take(d, common, axis=1)
                fail[:, :c] &= dc >= dv[:, :c]
                up[:, :c] |= dc > dv[:, :c]
            fail &= up
            hit = fail.any(axis=1)
            if hit.any():
                r = int(hit.argmax())
                # (z, v, w) for every farther common neighbour z of a failing pair
                zvw = []
                for common in qc.layers:
                    c = len(common)
                    m = fail[r, :c] & (d[r, common] > dv[r, :c])
                    zvw.append((common[m], qc.v[:c][m], qc.w[:c][m]))
                z, v, w = map(np.concatenate, zip(*zvw))
                i = np.lexsort((w, v, z))[0]
                qc_witness = (u0 + r, int(z[i]), int(v[i]), int(w[i]))
                qc_open = False
    g._wm = WeakModularityReport(tc_witness is None, qc_witness is None,
                                 tc_witness, qc_witness)
    return g._wm


def is_pseudo_modular(g):
    """Single metric condition: triples u,w at distance 1..2 equidistant from v."""
    n = g.n
    for v in range(n):
        rv = g.dist_row(v)
        levels = g.level_masks(v)
        for u in range(n):
            k = rv[u]
            if k < 2:
                continue
            ru = g.dist_row(u)
            for w in range(u + 1, n):
                if rv[w] != k or not (1 <= ru[w] <= 2):
                    continue
                if not (g.nbr_mask[u] & g.nbr_mask[w] & levels[k - 1]):
                    return False
    return True


@dataclass(frozen=True)
class MetricTriangle:
    v1: int
    v2: int
    v3: int
    size: int

    def vertices(self):
        return (self.v1, self.v2, self.v3)


def quasi_median(g, x, y, z):
    """Greedy quasi-median of a vertex triple.

    Each "at maximal distance" choice is tie-broken by smallest vertex id.
    Size 0 means the triple has a median.
    """
    def farthest(mask, frm):
        row = g.dist_row(frm)
        best, best_d = None, -1
        for v in bits(mask):
            if row[v] > best_d:
                best, best_d = v, row[v]
        return best

    v1 = farthest(g.interval_mask(x, y) & g.interval_mask(x, z), x)
    v2 = farthest(g.interval_mask(y, v1) & g.interval_mask(y, z), y)
    v3 = farthest(g.interval_mask(z, v1) & g.interval_mask(z, v2), z)
    size = max(g.dist(v1, v2), g.dist(v2, v3), g.dist(v3, v1))
    return MetricTriangle(v1, v2, v3, size)


def is_isometric_embedding(g, h, mapping):
    """True iff `mapping` (total on V(g)) preserves distances into h."""
    if len(mapping) != g.n:
        raise ValidationError("mapping must be total on the source graph")
    for u in range(g.n):
        ru = g.dist_row(u)
        rhu = h.dist_row(mapping[u])
        for v in range(u + 1, g.n):
            if ru[v] != rhu[mapping[v]]:
                return False
    return True
