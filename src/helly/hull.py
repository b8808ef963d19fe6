"""Discrete injective hulls (Hellyfication) of finite integer metrics.

Vertices of the hull are the extremal integer metric forms: integer vectors
f with f(x)+f(y) >= d(x,y) everywhere and a tight partner for every
coordinate.  The hull graph joins forms at sup-distance S = 1, and its
graph distance is S.

Layers.  An extremal form has f(x) = S(f, e(x)), e(x) = d(x, .), and f(x)
= 0 only for f = e(x).  So the graph distance from f to the forms e(x) is
min f, and the BFS from them has layer k = {min f = k}.  Along an edge min
f moves by at most 1, so the first step of a shortest path from a form of
layer k + 1 toward its nearest e(x) is a form of layer k: every form of
layer k + 1 is an upward neighbour (one with min g = min f + 1) of a form
of layer k.  The BFS searches only upward neighbours.

Upward neighbours.  Write a unit neighbour as g = f - M + P, with M and P
the disjoint sets where g steps down and up, and let k = min f.  Then min g
= k + 1 exactly when M lies in {f >= k + 2} and P contains {f = k}:
g >= k + 1 forces x into P where f(x) = k and out of M where f(x) = k + 1;
conversely those two conditions give g >= k + 1, with equality on
{f = k}, which is not empty.

The search runs over M alone: a depth-first search on bitmasks with an
explicit stack, with no 3^n sweep and no bound from the recursion limit.
It keeps only the branches where every coordinate can still be tight and
every coordinate of {f = k} can still join P, which it does exactly when a
slack-0 partner of it joins M (_unit_neighbors).  The search masks of a
layer's forms come from numpy blocks of slacks, the only numpy step of the
search; each search leaf, a bitmask pair, becomes its neighbour vector on
its bits as soon as its form's search ends.

After the search everything runs on arrays, and each check is decided
once.  One generator, `_sup_rows`, yields numpy blocks of whole rows of S
in the smallest signed type that holds it.  The hull edges are read off
their definition, the pairs at S = 1: the S = 1 entries of the blocks, in
row-major order, are the sorted neighbour lists, so the hull graph is
built from them as its CSR (`graphs._csr_graph`), its adjacency masks
from the same rows, with no edge tuple and no per-edge Python loop.  As an
independent cross-check of the search, the pairs between consecutive
layers must be as many as the upward neighbours it found.  The result is
checked against the definition on numpy blocks of forms, each verdict and
its message read off one boolean array, and each point x is checked to be
embedded at e(x) itself; the hull-graph distance is checked to be S by a
descent certificate on the same blocks of S, which is equivalent to it:
from each form, the nearest neighbour to any other form is one step closer
to it.  The certificate also proves the graph connected, which its array
constructor does not check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (InvariantViolation, ResourceCapExceeded, ValidationError, cap_from_env,
                     int_lists, object_with)
from .graphs import WM_BLOCK_CELLS, Graph, _csr_graph, _reduce_segments, _row_masks


# bytes per block of rows of S (_sup_rows), for the hull graph and the
# hull-distance certificate (_check_hull_distances); the certificates
# of C12 and path_graph(200) ran 1.4x slower at 256 KB and no faster at 1-2 MB
CERTIFICATE_BYTES = 1 << 19


def _form_cap():
    return cap_from_env("HELLY_MAX_FORMS", 50000)


@dataclass(frozen=True)
class FiniteMetric:
    n: int
    d: tuple  # tuple of row tuples

    @classmethod
    def of(cls, rows):
        """Validated metric from a list of integer rows; 1.7 or true is refused."""
        rows = tuple(map(tuple, int_lists(rows, '"d"')))
        m = cls(len(rows), rows)
        m.validate()
        return m

    @classmethod
    def of_graph(cls, g):
        return cls(g.n, tuple(tuple(g.dist_row(u)) for u in range(g.n)))

    @classmethod
    def from_object(cls, data):
        """The metric of decoded JSON {"d": [[...], ...]}; bad input is a
        ValidationError."""
        return cls.of(object_with(data, "d")["d"])

    def validate(self):
        n, d = self.n, self.d
        if any(len(r) != n for r in d):
            raise ValidationError("distance matrix must be square")
        for x in range(n):
            if d[x][x] != 0:
                raise ValidationError(f"d({x},{x}) must be 0")
            for y in range(n):
                if d[x][y] != d[y][x] or d[x][y] < 0:
                    raise ValidationError(f"bad entry d({x},{y})")
                if x != y and d[x][y] == 0:
                    raise ValidationError(f"distinct points {x},{y} at distance 0")
                for z in range(n):
                    if d[x][y] > d[x][z] + d[z][y]:
                        raise ValidationError(f"triangle inequality fails at {x},{z},{y}")
        return True

    def radius_bound(self):
        """Pointwise bound max_y d(x,y); every extremal form sits below it."""
        return tuple(max(r) for r in self.d)


def is_metric_form(m, f):
    if len(f) != m.n:
        return False
    if any(v < 0 for v in f):
        return False
    for x in range(m.n):
        fx = f[x]
        dx = m.d[x]
        for y in range(x + 1, m.n):
            if fx + f[y] < dx[y]:
                return False
    return True


def is_extremal(m, f):
    """Tightness at every coordinate: each x has y with f(x)+f(y) = d(x,y).

    The partner may be x itself (possible only when f(x) = 0).  For integer
    forms this is equivalent to pointwise minimality.
    """
    if not is_metric_form(m, f):
        raise ValidationError("not a metric form")
    for x in range(m.n):
        fx = f[x]
        dx = m.d[x]
        if fx == 0:
            continue
        if all(fx + f[y] > dx[y] for y in range(m.n)):
            return False
    return True


def _partner_masks(d, f):
    """The search masks of each form of the block f (k x n), as k tuples
    (t0, t1, open, need): t0 and t1 are lists of n bitmasks, T0(x) the y
    with f(x) + f(y) - d(x, y) = 0 and T1(x) those at 1, open is
    {f >= min f + 2} and need is {f = min f}.  All of them come from one
    _row_masks call, 2n + 2 rows per form."""
    n = d.shape[0]
    s = f[:, :, None] + f[:, None, :] - d
    low = f.min(1, keepdims=True)
    masks = _row_masks(np.concatenate((s == 0, s == 1, (f >= low + 2)[:, None],
                                       (f == low)[:, None]), axis=1))
    rows = 2 * n + 2
    return [(masks[i:i + n], masks[i + n:i + 2 * n], masks[i + 2 * n], masks[i + 2 * n + 1])
            for i in range(0, len(masks), rows)]


def _frontier_neighbors(d, frontier):
    """Yield the upward neighbours of each form f of a BFS layer, in order, as
    a list of tuples: the extremal forms g at sup-distance 1 with min g =
    min f + 1.

    The search masks are built on numpy blocks of at most WM_BLOCK_CELLS
    cells, or of one form where that needs more.  Each search leaf (M, P)
    becomes g = f - M + P on the bits of M and P, and a form's neighbours
    are yielded as soon as its search ends.
    """
    step = max(1, WM_BLOCK_CELLS // d.size)
    for lo in range(0, len(frontier), step):
        block = frontier[lo:lo + step]
        for f, masks in zip(block, _partner_masks(d, np.array(block))):
            found = []
            for mm, pp in _unit_neighbors(*masks):
                g = list(f)
                while mm:  # the bit walk of `bits`, inline: leaves are many
                    low = mm & -mm
                    g[low.bit_length() - 1] -= 1
                    mm ^= low
                while pp:
                    low = pp & -pp
                    g[low.bit_length() - 1] += 1
                    pp ^= low
                found.append(tuple(g))
            yield found


def _unit_neighbors(t0, t1, open0, need):
    """The extremal forms g = f - M + P at sup-distance 1 from an extremal
    form f with M a subset of open0 and P a superset of need, as the pairs
    of bitmasks (M, P).

    The hull search calls it with open0 = {f >= k + 2} and need = {f = k},
    k = min f, and so finds the upward neighbours, those with min g = k + 1
    (see the module docstring).  With open0 = {f > 0} and need = 0 it finds
    every unit neighbour; only tests call it so.

    Write a neighbour as g = f + delta, delta in {-1,0,1}^n, with M =
    {delta = -1} and P = {delta = 1}.  Let s(x, y) = f(x) + f(y) - d(x, y)
    be the slack (s(x, x) = 2 f(x)) and T0(z), T1(z) the partners of z at
    slack 0 and 1, given as the bitmask lists t0 and t1 (_partner_masks);
    f(x) > 0 exactly when x is not in T0(x).
    Then g is an extremal form exactly when
      (a) M is nonempty, lies in {f > 0} and is independent at slack <= 1;
      (b) P = T0(M);
      (c) every other z has a T0 partner outside M | P or a T1 partner in M.
    Proof: g is a metric form iff delta(x) + delta(y) >= -s(x, y) for all
    x, y, where only slacks 0 and 1 can fail: so M lies in {f > 0}, no two
    points of M are at slack <= 1, and T0(M) lies in P.  g is extremal iff
    each z has a w with delta(z) + delta(w) = -s(z, w).  For z in P that
    asks w in M at slack 0, so P = T0(M).  Each z in M then is tight, with
    its slack-0 partner in f (f(z) > 0, so not z), which lies in P.  For
    delta(z) = 0 it asks w outside M | P at slack 0 (w = z when f(z) = 0)
    or w in M at slack 1: this is (c).  And delta != 0 iff M is nonempty.

    The search decides, lowest first, whether each open coordinate joins M,
    on a stack of bitmask states (M, P, open); open starts as open0 and
    holds the coordinates that can still join M.  P = T0(M) in every state,
    M and P only grow, and M | open only shrinks.  Two rules prune a branch:
      - a closed coordinate outside M | P and need is dead when it has no
        T0 partner outside M | P and no T1 partner in M | open: its T0
        partners all lie in P, which is closed, so it never joins P and
        fails (c);
      - a coordinate of need outside P is dead when it has no T0 partner in
        M | open (the cover rule): it joins P only when a T0 partner joins
        M, and the final M lies in M | open.
    Both stay dead.  A coordinate can die only when it closes, when a T0
    partner joins M | P or when a partner leaves M | open.  So when x stays
    out of M only x, T1(x) and the need coordinates of T0(x) are checked;
    when x joins M every closed coordinate outside M | P is, which costs no
    more than listing the T0 partners of the new P (about n/2 of them on a
    row form of a path).  At the root only need is checked: f is extremal,
    so every other closed coordinate has a T0 partner.  At a leaf no
    coordinate is open and none is dead, which is (c) and puts need inside
    P.
    """

    def alive(check, mp, reach):
        while check:
            low = check & -check
            z = low.bit_length() - 1
            if need & low:
                if not t0[z] & reach:
                    return False
            elif not (t0[z] & ~mp or t1[z] & reach):
                return False
            check ^= low
        return True

    out = []
    if not alive(need, 0, open0):
        return out
    points = (1 << len(t0)) - 1
    stack = [(0, 0, open0)]
    while stack:
        mm, pp, op = stack.pop()
        if not op:
            if mm:
                out.append((mm, pp))
            continue
        bit = op & -op
        x = bit.bit_length() - 1
        # x stays out of M: check x, the T1 partners it no longer rescues and
        # the need coordinates it no longer covers
        rest = op ^ bit
        mp = mm | pp
        if alive((bit | t1[x] | t0[x] & need) & ~mp & ~rest, mp, mm | rest):
            stack.append((mm, pp, rest))
        # x joins M: T0(x) joins P and every partner at slack <= 1 closes
        mm |= bit
        pp |= t0[x]
        rest &= ~(t0[x] | t1[x])
        mp = mm | pp
        if alive(points & ~mp & ~rest, mp, mm | rest):
            stack.append((mm, pp, rest))
    return out


@dataclass(frozen=True)
class HullGraph:
    metric: FiniteMetric
    forms: tuple     # sorted tuple of extremal form vectors
    graph: Graph     # edges at sup-distance 1, vertex i = forms[i]
    embed: tuple     # embed[x] = index of d(x, .) in forms


def sup_distance(f, g):
    return max(abs(a - b) for a, b in zip(f, g))


def hellyfication(m, cap=None):
    """Discrete injective hull of a finite integer metric.

    BFS by layers from the distance-row forms e(x), the forms of layer 0.
    Layer k is {min f = k}, and every form of layer k + 1 is an upward
    neighbour of one of layer k (the layer lemma of the module docstring),
    so searching only upward neighbours makes the sweep complete.  The
    upward neighbours g = f - M + P of a form f of layer k are the unit
    neighbours with M inside {f >= k + 2} and P containing {f = k}, and
    only those.  After the search, the hull graph is built on arrays from
    its definition, the pairs of forms at sup-distance 1 (`_unit_graph`:
    its CSR and adjacency masks come straight from numpy blocks of rows of
    S); the pairs between consecutive layers must be as many as the upward
    neighbours the search found.  The result is validated before it is
    returned: every stored form is extremal and 1-Lipschitz, f(x) =
    sup-distance(f, d(x, .)) for all stored f, x, embed[x] is the index of
    d(x, .) itself, which with the last check makes the embedding isometric,
    and the hull-graph distance is the sup-distance (the descent
    certificate, which also proves the graph connected).
    """
    cap = _form_cap() if cap is None else cap
    if isinstance(m, Graph):
        m = FiniteMetric.of_graph(m)
    d = np.array(m.d)
    frontier = list(m.d)  # the distance-row forms d(x, .), distinct as d(x, x) = 0 < d(y, x)
    seen = set(frontier)
    upward = 0  # search leaves, one per pair of consecutive layers at sup-distance 1
    while frontier:
        nxt = []
        for found in _frontier_neighbors(d, frontier):
            upward += len(found)
            for g in found:
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
                    if len(seen) > cap:
                        raise ResourceCapExceeded(
                            f"extremal form count exceeds cap {cap}")
        frontier = nxt
    forms = tuple(sorted(seen))
    graph = _unit_graph(np.array(forms).reshape(len(forms), m.n), upward)
    embed = tuple(bisect_left(forms, row) for row in m.d)
    hg = HullGraph(m, forms, graph, embed)
    _validate_hull(hg)
    return hg


def _unit_graph(forms, upward):
    """The hull graph on the rows of forms, each >= 0: i and j are adjacent
    iff S(i, j) = 1.  It is read off the blocks of rows of S of `_sup_rows`.
    The S = 1 entries of a block, in row-major order, are its rows' sorted
    neighbour lists, so they are laid end to end as the CSR of `_csr_graph`,
    and the block's rows go to `_row_masks` for the adjacency masks; no edge
    tuple is made.  Each pair is met in both orientations, so the pairs
    whose forms have different minima number twice `upward`, the upward
    neighbours the search found, or an InvariantViolation is raised."""
    low = forms.min(1, initial=np.iinfo(np.intp).max)  # an empty metric has no forms
    heads, sizes, masks, across = [], [np.zeros(1, np.intp)], [], 0
    for lo, sup in _sup_rows(forms):
        unit = sup == 1
        i, j = np.nonzero(unit)
        across += np.count_nonzero(low[i + lo] != low[j])
        heads.append(j)
        sizes.append(np.count_nonzero(unit, 1))
        masks += _row_masks(unit)
    if across != 2 * upward:
        raise InvariantViolation(
            f"hull search found {upward} upward neighbours, sup-distance 1 gives {across // 2}")
    return _csr_graph(np.concatenate(heads or [np.zeros(0, np.intp)]),
                         np.concatenate(sizes).cumsum(), masks)


def _sup_rows(forms, extra=0):
    """Yield (lo, block) with block[i, j] = S(forms[lo + i], forms[j]), the
    sup-distance table S of the rows of forms in blocks of rows.  Shifted to
    least entry 0, the forms keep S and bound it by their largest entry,
    whose smallest signed type then holds S and S - 1 >= -1.  A block holds
    as many rows as fit in CERTIFICATE_BYTES for the differences of every
    form with its forms and `extra` cells a row more, or one row where that
    needs more.  The differences are n planes, coordinates first, so the max
    runs plane by plane, along the rows of S; with the forms as rows it runs
    one loop of n cells per pair, which is slow when n is small."""
    forms = forms - forms.min(initial=0)
    points = np.ascontiguousarray(forms.T, np.min_scalar_type(-int(forms.max(initial=0)) - 1))
    step = max(1, CERTIFICATE_BYTES // max(1, points.itemsize * (points.size + extra)))
    for lo in range(0, len(forms), step):
        diff = points[:, lo:lo + step, None] - points[:, None, :]
        yield lo, np.abs(diff, out=diff).max(0)


def _validate_hull(hg):
    """Check the hull against its definition; a failure is an InvariantViolation.

    Every stored form is extremal and 1-Lipschitz with f(x) =
    sup-distance(f, e(x)), each point x is embedded at e(x) = d(x, .), and
    the hull-graph distance is the sup-distance.  The 1-Lipschitz and f(x)
    = sup-distance checks follow from extremality (f(y) - f(x) <= d(x, y)
    through a tight partner of y, and |f(y) - d(x, y)| <= f(x) with
    equality at y = x), and are kept as independent checks.  They run on
    numpy blocks of at most WM_BLOCK_CELLS cells, or of one form where that
    needs more, in the smallest signed type that holds their slacks and
    differences; the first failing form gets the message of the first check
    it fails.  The embedding is checked by its definition, forms[embed[x]]
    = e(x); then f(x) = sup-distance at f = e(y) makes it isometric, as
    S(e(x), e(y)) = e(y)(x) = d(x, y).
    The hull-graph distance is checked last, by the descent certificate of
    _check_hull_distances, with no BFS.
    """
    m = hg.metric
    n = m.n
    # slacks, differences and f - d lie within +-(2 max|f| + max d)
    big = 2 * max(max(map(max, hg.forms)), -min(map(min, hg.forms))) + max(map(max, m.d))
    small = np.min_scalar_type(-big - 1)
    forms, d = np.array(hg.forms, small), np.array(m.d, small)
    step = max(1, WM_BLOCK_CELLS // (n * n))
    messages = ("stored form {} is not extremal", "form {} is not 1-Lipschitz",
                "f(x) != sup-distance(f, e(x)) for {}")
    for lo in range(0, len(forms), step):
        f = forms[lo:lo + step]
        # least slack 0 at x: a metric form (f >= 0 at y = x) tight at x
        checks = np.stack((((f[:, :, None] + f[:, None, :] - d).min(2) == 0).all(1),
                           (f[:, None, :] - f[:, :, None] <= d).all((1, 2)),
                           (np.abs(f[:, None, :] - d).max(2) == f).all(1)))
        passed = checks.all(0)
        if not passed.all():
            i = int(passed.argmin())
            raise InvariantViolation(messages[checks[:, i].argmin()].format(hg.forms[lo + i]))
    misplaced = (forms[list(hg.embed)] != d).any(1)
    if misplaced.any():
        x = int(misplaced.argmax())
        raise InvariantViolation(f"point {x} is not embedded at d({x}, .)")
    _check_hull_distances(forms, hg.graph)


def _check_hull_distances(forms, graph):
    """Raise an InvariantViolation unless the graph distance between vertices
    i and j is the sup-distance S of forms[i] and forms[j], for all i, j.

    It is checked as a descent certificate: for every pair i != j, the least
    S(h, j) over the neighbours h of i is S(i, j) - 1.  Proof: for an edge
    (i, j) the neighbour h = j gives least 0, so S(i, j) = 1; a path of t
    edges then moves S by at most t, so graph distance >= S.  For i != j
    the least is >= 0, so S(i, j) >= 1, and a step to a neighbour one closer
    gives graph distance <= S by induction on S.  Conversely, when graph
    distance = S no neighbour is more than one closer, and the first step
    of a shortest path is one closer.  So the edges are exactly the pairs
    at S = 1, and each pair at S = k >= 2 steps down to k - 1.  A vertex
    with no neighbour fails at once: S is finite, and its graph distance to
    any other is not.  So a graph that passes is connected, and the check
    needs no connectivity from the graph it is given.

    The check runs on the blocks of rows of S of `_sup_rows`, with room for
    the rows gathered along the `graph.csr()` lists; as S is symmetric, a
    block of rows j, transposed, is the block of columns j.  The least over
    the neighbours of each i is one reduceat over those gathered rows.  A
    pair i = j always fails, as its least is >= 0, so a block of w columns
    passes when exactly w pairs fail.
    """
    if len(forms) == 1:
        return
    heads, offsets = graph.csr()
    if not np.diff(offsets).all():
        raise InvariantViolation("unit-step graph distance != sup-metric")
    for lo, rows in _sup_rows(forms, len(heads)):
        sup = rows.T  # sup[i, j - lo] = S(i, j)
        nearest = _reduce_segments(np.minimum, sup, heads, offsets, len(heads) * sup.shape[1])
        if np.count_nonzero(nearest != sup - 1) != sup.shape[1]:
            raise InvariantViolation("unit-step graph distance != sup-metric")


def enumerate_extremal_forms(m, cap=None):
    """Independent oracle: every extremal form inside the radius-bound box.

    Exhaustive depth-first enumeration of integer vectors that are metric
    forms, 1-Lipschitz, and pointwise below max_y d(x,y); extremality is
    then checked exactly at the leaves.  The search runs on an explicit
    stack of prefixes, so the number of points is not bounded by the
    recursion limit.  No search from the embedding is involved.
    """
    cap = _form_cap() if cap is None else cap
    if isinstance(m, Graph):
        m = FiniteMetric.of_graph(m)
    n = m.n
    bound = m.radius_bound()
    out = []
    stack = [()]  # prefixes f(0), ..., f(x - 1), popped in lexicographic order
    while stack:
        f = stack.pop()
        x = len(f)
        if x == n:
            if is_extremal(m, f):
                out.append(f)
                if len(out) > cap:
                    raise ResourceCapExceeded(f"extremal form count exceeds cap {cap}")
            continue
        lo, hi = 0, bound[x]
        dx = m.d[x]
        for y in range(x):
            lo = max(lo, dx[y] - f[y], f[y] - dx[y])
            hi = min(hi, f[y] + dx[y])
        stack.extend(f + (val,) for val in range(hi, lo - 1, -1))
    return sorted(out)


def hull_distance_profile(hg):
    """max over stored forms of min over points of sup-distance(f, d(x, .)).

    The validator checks f(x) = d_inf(f, e(x)) for every stored form f and
    point x, so the profile is the largest min f.
    """
    return max(map(min, hg.forms))


def dress_distance_identity_check(hg):
    """d_inf(f,g) = max over x,y of d(x,y) - f(y) - g(x), for all stored pairs."""
    m = hg.metric
    pts = range(m.n)
    for f, g in combinations(hg.forms, 2):
        lhs = sup_distance(f, g)
        rhs = max(m.d[x][y] - f[y] - g[x] for x in pts for y in pts)
        if lhs != rhs:
            return False
    return True
