"""Finite connected graphs with cached metric structure.

Vertices are dense ids 0..n-1.  Adjacency is kept both as sorted tuples
(for iteration and serialization) and as per-vertex int bitmasks (for the
set algebra that dominates every metric predicate in this package).
Distance rows are computed by BFS on first use and memoized, so desk-scale
graphs pay for all-pairs distances only when an operation actually sweeps
all pairs.  The graph is observably immutable: the lazy caches are
idempotent, so concurrent readers can at worst recompute a row.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .errors import ValidationError, int_lists, json_object, vertex_count


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


def maximal_clique_masks(nbr):
    """Maximal cliques, as masks, of the graph with adjacency masks `nbr`.

    Bron-Kerbosch with Tomita pivoting on an explicit stack, so clique size is
    not bounded by the recursion limit.  The output order is unspecified.
    """
    out = []
    stack = [(0, (1 << len(nbr)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
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

    __slots__ = ("n", "adj", "nbr_mask", "ball1_mask", "_rows", "_ball_masks")

    def __init__(self, n, edges):
        if n <= 0:
            raise ValidationError("graph needs at least one vertex")
        nbr = [0] * n
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise ValidationError(f"loop at vertex {u} not allowed")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self.n = n
        self.nbr_mask = nbr
        self.ball1_mask = [nbr[v] | (1 << v) for v in range(n)]
        self.adj = [tuple(bits(nbr[v])) for v in range(n)]
        self._rows = [None] * n
        self._ball_masks = [None] * n
        # connectivity is a constructor guarantee, not a per-op check
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= nbr[v]
            frontier = nxt & ~seen
            seen |= nxt
        if seen != (1 << n) - 1:
            missing = next(bits(~seen & ((1 << n) - 1)))
            raise ValidationError(f"graph is disconnected (vertex {missing} unreachable from 0)")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_json(cls, text):
        """Parse {"n": <int>, "edges": [[u, v], ...]}; bad input is a ValidationError."""
        data = json_object(text, "n", "edges")
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

    def to_dot(self, names=None):
        label = (lambda v: str(v)) if names is None else (lambda v: str(names[v]))
        lines = ["graph G {"]
        for v in range(self.n):
            lines.append(f'  {v} [label="{label(v)}"];')
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines)

    # -- metric ---------------------------------------------------------------

    def dist_row(self, u):
        """BFS distances from u (memoized)."""
        row = self._rows[u]
        if row is None:
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

    def dist(self, u, v):
        return self.dist_row(u)[v]

    def eccentricity(self, u):
        return max(self.dist_row(u))

    def diameter(self):
        return max(self.eccentricity(u) for u in range(self.n))

    def level_masks(self, u):
        """Masks of the BFS levels of u, indexed by distance."""
        row = self.dist_row(u)
        levels = [0] * (max(row) + 1)
        for v, d in enumerate(row):
            levels[d] |= 1 << v
        return levels

    def ball_mask(self, v, r):
        """Mask of the ball of radius r around v (cached per vertex)."""
        if r < 0:
            return 0
        prefix = self._ball_masks[v]
        if prefix is None:
            prefix = []
            acc = 0
            for level in self.level_masks(v):
                acc |= level
                prefix.append(acc)
            self._ball_masks[v] = prefix
        return prefix[min(r, len(prefix) - 1)]

    def interval_mask(self, u, v):
        ru, rv = self.dist_row(u), self.dist_row(v)
        duv = ru[v]
        m = 0
        for x in range(self.n):
            if ru[x] + rv[x] == duv:
                m |= 1 << x
        return m

    def is_clique(self, vertices):
        vs = list(vertices)
        return all(self.ball1_mask[v] & (1 << w) for v in vs for w in vs if w != v)

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


def interval(g, u, v):
    """Vertices metrically between u and v (always contains both)."""
    return tuple(bits(g.interval_mask(u, v)))


def ball(g, center, r):
    """Union ball: vertices within distance r of the set `center`."""
    if r < 0:
        raise ValidationError("radius must be nonnegative")
    vs = list(center)
    if not vs:
        raise ValidationError("center set must be nonempty")
    m = 0
    for v in vs:
        m |= g.ball_mask(v, r)
    return tuple(bits(m))


def ball_star_mask(g, vertices, r):
    m = (1 << g.n) - 1
    for v in vertices:
        m &= g.ball_mask(v, r)
    return m


def ball_star(g, vertices, r):
    """Intersection ball: vertices within distance r of every member."""
    if r < 0:
        raise ValidationError("radius must be nonnegative")
    vs = list(vertices)
    if not vs:
        raise ValidationError("vertex set must be nonempty")
    return tuple(bits(ball_star_mask(g, vs, r)))


def is_gated(g, subset):
    """Decide whether `subset` is gated; return (flag, gate map or witness).

    On success the second component maps every outside vertex to its gate.
    On failure it is the first outside vertex with no gate.
    """
    hs = sorted(set(subset))
    if not hs:
        raise ValidationError("subset must be nonempty")
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
    vs = sorted(set(subset))
    if not vs:
        raise ValidationError("subset must be nonempty")
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


def weak_modularity(g):
    """Exhaustive triangle- and quadrangle-condition check.

    The first failing witness (lexicographically smallest) is reported:
    (u, v, w) for TC, (u, z, v, w) for QC.
    """
    n = g.n
    edge_list = g.edges()
    tc_witness = None
    for u in range(n):
        if tc_witness:
            break
        row = g.dist_row(u)
        levels = g.level_masks(u)
        for v, w in edge_list:
            k = row[v]
            if k != row[w] or k == 0:
                continue
            common = g.nbr_mask[v] & g.nbr_mask[w] & levels[k - 1]
            if not common:
                tc_witness = (u, v, w)
                break
    qc_witness = None
    for u in range(n):
        if qc_witness:
            break
        row = g.dist_row(u)
        levels = g.level_masks(u)
        for z in range(n):
            k = row[z]
            if k < 2:
                continue
            near = [x for x in g.adj[z] if row[x] == k - 1]
            stop = False
            for i, v in enumerate(near):
                for w in near[i + 1:]:
                    if (g.nbr_mask[v] >> w) & 1:
                        continue
                    if not (g.nbr_mask[v] & g.nbr_mask[w] & levels[k - 2]):
                        qc_witness = (u, z, v, w)
                        stop = True
                        break
                if stop:
                    break
            if stop:
                break
    return WeakModularityReport(tc_witness is None, qc_witness is None,
                                tc_witness, qc_witness)


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


def is_metric_triangle(g, a, b, c):
    """Pairwise intervals meet only at the shared endpoints."""
    iab, ibc, ica = g.interval_mask(a, b), g.interval_mask(b, c), g.interval_mask(c, a)
    return (iab & ica == 1 << a) and (iab & ibc == 1 << b) and (ibc & ica == 1 << c)


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
