"""Discrete injective hulls (Hellyfication) of finite integer metrics.

Vertices of the hull are the extremal integer metric forms: integer vectors
f with f(x)+f(y) >= d(x,y) everywhere and a tight partner for every
coordinate.  The hull graph joins forms at sup-distance 1.  Construction is
a BFS from the distance-row forms d(x, .); the one-step neighborhood of a
form is enumerated by a depth-first search over per-coordinate moves in
{-1,0,+1} with online feasibility/tightness pruning, which stays exact
while avoiding the 3^n sweep.  The set of moves still open at a coordinate
is always an interval: it starts as [-1, 1] (or [0, 1] when f(x) = 0),
propagation only raises its lower end and branching fixes one value.  So
each domain is a pair of bounds and each tightness test one comparison.
The search uses an explicit stack, so the number of points is not bounded
by the recursion limit, and the neighbour lists it returns are the hull
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (InvariantViolation, ResourceCapExceeded, ValidationError, cap_from_env,
                     int_lists, json_object)
from .graphs import Graph


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
    def from_json(cls, text):
        """Parse {"d": [[...], ...]}; bad input is a ValidationError."""
        return cls.of(json_object(text, "d")["d"])

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


def extremalize(m, f):
    """Extremal minorant of a metric form.

    Repeatedly decrements the smallest-index coordinate that still admits a
    decrement; any extremal form below the input serves, so the coordinate
    order is a determinism choice, not a correctness one.
    """
    if not is_metric_form(m, f):
        raise ValidationError("not a metric form")
    g = list(f)
    n = m.n
    while True:
        for x in range(n):
            dx = m.d[x]
            if g[x] >= 1 and all(g[x] - 1 + g[y] >= dx[y] for y in range(n) if y != x):
                g[x] -= 1
                break
        else:
            break
    return tuple(g)


def kuratowski_form(m, x):
    return tuple(m.d[x])


def _unit_neighbors(m, f):
    """All extremal forms at sup-distance exactly 1 from the extremal form f.

    Backtracking over per-coordinate moves in {-1,0,+1} with unit
    propagation, over the pairs of slack s = f(x) + f(y) - d(x, y) <= 1;
    y == x, with s = 2 f(x), is one of them when f(x) = 0.  They bound the
    move sums from below (a metric-form condition; larger slacks cannot be
    violated by unit moves), and each coordinate needs one of them whose
    move sum realizes -s (tightness, hence extremality of the result).
    Larger slacks are never needed for tightness: a coordinate that moves
    by -1 has a partner z of slack 0 in f, which must move by +1 and so
    stays tight, and any other move leaves a tight partner of slack
    -move(x) - move(y) <= 1.

    Each coordinate's domain is an interval [lo, hi]: it starts as [-1, 1],
    or [0, 1] when f(x) = 0, propagation only raises lower bounds
    (move(y) >= -s - hi[x]) and branching fixes one value.  The sums of two
    integer intervals fill an interval, so a partner y can still be tight
    exactly when lo[x] + lo[y] <= -s <= hi[x] + hi[y]; the diagonal partner
    needs no special case.  Only branching lowers an upper bound, and while
    hi[x] = 1 the rule bounds nothing (-s - 1 <= -1 <= lo[y]), so every new
    lower bound comes from the coordinate just fixed and propagation is one
    step: raise its partners' lower bounds, then recheck tightness at every
    changed coordinate and its partners.  No domain empties: s >= 0, so a
    free y keeps -s - move(x) <= 1 = hi[y], and a fixed y bounded x from
    below when it was fixed.  The search runs on an explicit stack and
    undoes domain changes through a trail.
    """
    n = m.n
    d = m.d
    near = [[] for _ in range(n)]  # (y, slack <= 1); y == x encodes the diagonal
    for x in range(n):
        fx = f[x]
        dx = d[x]
        for y in range(n):
            s = fx + f[y] - dx[y]
            if s <= 1:
                near[x].append((y, s))

    # branch in BFS order over the slack<=1 graph so constraints bind early
    order = []
    seen = [False] * n
    head = 0
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            order.append(root)
        while head < len(order):
            x = order[head]
            head += 1
            for y, _ in near[x]:
                if not seen[y]:
                    seen[y] = True
                    order.append(y)

    lo = [-1 if f[x] > 0 else 0 for x in range(n)]  # f(x)=0 forbids the -1 move
    hi = [1] * n
    trail = []  # (x, lo, hi) before each change

    def tight_possible(x):
        lx, hx = lo[x], hi[x]
        for y, s in near[x]:
            if lx + lo[y] <= -s <= hx + hi[y]:
                return True
        return False

    def consistent(changed):
        """Each changed coordinate and each of its partners can still be tight."""
        for x in changed:
            if not tight_possible(x):
                return False
            for y, _ in near[x]:
                if not tight_possible(y):
                    return False
        return True

    out = []
    stack = [(0, -1, 0)]  # (depth, next move, trail mark)
    while stack:
        i, move, mark = stack.pop()
        while len(trail) > mark:
            z, lo[z], hi[z] = trail.pop()
        x = order[i]
        if move < lo[x]:
            move = lo[x]
        if move > hi[x]:
            continue
        stack.append((i, move + 1, mark))
        trail.append((x, lo[x], hi[x]))
        lo[x] = hi[x] = move
        changed = [x]
        for y, s in near[x]:
            if -s - move > lo[y]:  # move(y) >= -s - hi[x]
                trail.append((y, lo[y], hi[y]))
                lo[y] = -s - move
                changed.append(y)
        if not consistent(changed):
            continue
        if i + 1 < n:
            stack.append((i + 1, -1, len(trail)))
        elif any(lo):
            out.append(tuple(f[z] + lo[z] for z in range(n)))
    return sorted(out)


@dataclass(frozen=True)
class HullGraph:
    metric: FiniteMetric
    forms: tuple     # sorted tuple of extremal form vectors
    graph: Graph     # edges at sup-distance 1, vertex i = forms[i]
    embed: tuple     # embed[x] = index of d(x, .) in forms

    def form_index(self, f):
        return self.forms.index(tuple(f))


def sup_distance(f, g):
    return max(abs(a - b) for a, b in zip(f, g))


def hellyfication(m, cap=None):
    """Discrete injective hull of a finite integer metric.

    BFS from the distance-row forms over unit steps; connectivity of the
    extremal-form graph makes the sweep complete, and the unit neighbours
    the BFS lists are the hull edges.  The result is validated:
    every stored form is extremal and 1-Lipschitz, the embedding is
    isometric, and f(x) = sup-distance(f, d(x, .)) for all stored f, x.
    """
    cap = _form_cap() if cap is None else cap
    if isinstance(m, Graph):
        m = FiniteMetric.of_graph(m)
    seeds = [kuratowski_form(m, x) for x in range(m.n)]
    seen = set(seeds)
    frontier = list(dict.fromkeys(seeds))
    nbrs = {}  # form -> its sorted unit neighbours
    while frontier:
        nxt = []
        for f in frontier:
            nbrs[f] = _unit_neighbors(m, f)
            for g in nbrs[f]:
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
                    if len(seen) > cap:
                        raise ResourceCapExceeded(
                            f"extremal form count exceeds cap {cap}")
        frontier = nxt
    forms = tuple(sorted(seen))
    index = {f: i for i, f in enumerate(forms)}
    edges = [(i, index[g]) for i, f in enumerate(forms) for g in nbrs[f] if f < g]
    graph = Graph(len(forms), edges)
    embed = tuple(index[kuratowski_form(m, x)] for x in range(m.n))
    hg = HullGraph(m, forms, graph, embed)
    _validate_hull(hg)
    return hg


def _validate_hull(hg):
    m = hg.metric
    for f in hg.forms:
        if not is_extremal(m, f):
            raise InvariantViolation(f"stored form {f} is not extremal")
        for x in range(m.n):
            dx = m.d[x]
            if any(f[x] + dx[y] < f[y] for y in range(m.n)):
                raise InvariantViolation(f"form {f} is not 1-Lipschitz")
            if f[x] != sup_distance(f, kuratowski_form(m, x)):
                raise InvariantViolation(f"f(x) != sup-distance(f, e(x)) for {f}")
    for x in range(m.n):
        fx = hg.forms[hg.embed[x]]
        for y in range(x + 1, m.n):
            fy = hg.forms[hg.embed[y]]
            if sup_distance(fx, fy) != m.d[x][y]:
                raise InvariantViolation("embedding is not isometric")
    # hull-graph distance must agree with the sup-metric on forms
    for i, f in enumerate(hg.forms):
        row = hg.graph.dist_row(i)
        for j in range(i + 1, len(hg.forms)):
            if row[j] != sup_distance(f, hg.forms[j]):
                raise InvariantViolation("unit-step graph distance != sup-metric")


def enumerate_extremal_forms(m, cap=None):
    """Independent oracle: every extremal form inside the radius-bound box.

    Exhaustive depth-first enumeration of integer vectors that are metric
    forms, 1-Lipschitz, and pointwise below max_y d(x,y); extremality is
    then checked exactly at the leaves.  No search from the embedding is
    involved.
    """
    cap = _form_cap() if cap is None else cap
    if isinstance(m, Graph):
        m = FiniteMetric.of_graph(m)
    n = m.n
    bound = m.radius_bound()
    out = []
    f = [0] * n

    def dfs(x):
        if x == n:
            if is_extremal(m, tuple(f)):
                out.append(tuple(f))
                if len(out) > cap:
                    raise ResourceCapExceeded(f"extremal form count exceeds cap {cap}")
            return
        lo, hi = 0, bound[x]
        dx = m.d[x]
        for y in range(x):
            lo = max(lo, dx[y] - f[y], f[y] - dx[y])
            hi = min(hi, f[y] + dx[y])
        for val in range(lo, hi + 1):
            f[x] = val
            dfs(x + 1)
        f[x] = 0

    dfs(0)
    return sorted(out)


def hull_distance_profile(hg):
    """max over stored forms of min over points of sup-distance(f, d(x, .))."""
    worst = 0
    for f in hg.forms:
        nearest = min(f[x] for x in range(hg.metric.n))  # f(x) = d_inf(f, e(x))
        worst = max(worst, nearest)
    return worst


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


def coarse_helly_defect(g, centers, radii, require_pairwise=True):
    """Minimal uniform radius enlargement giving the ball family a common point.

    defect = min over y of max over i of max(0, d(y, x_i) - r_i).  With
    `require_pairwise` the family must pairwise intersect
    (d(x_i, x_j) <= r_i + r_j) or a ValidationError names the violating pair;
    the flag exists because the classical unbounded-defect grid families are
    stated with radii below the pairwise-intersection threshold.
    """
    centers = list(centers)
    radii = list(radii)
    if len(centers) != len(radii) or not centers:
        raise ValidationError("need equally many centers and radii, at least one")
    if any(r < 0 for r in radii):
        raise ValidationError("radii must be nonnegative")
    if not all(0 <= c < g.n for c in centers):
        raise ValidationError(f"centers must lie in [0, {g.n}), got {centers}")
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
