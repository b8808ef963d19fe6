"""Discrete injective hulls (Hellyfication) of finite integer metrics.

Vertices of the hull are the extremal integer metric forms: integer vectors
f with f(x)+f(y) >= d(x,y) everywhere and a tight partner for every
coordinate.  The hull graph joins forms at sup-distance 1.  Construction is
a BFS from the distance-row forms d(x, .); the one-step neighborhood of a
form is enumerated by a depth-first search over per-coordinate moves in
{-1,0,+1} with online feasibility/tightness pruning, which stays exact
while avoiding the 3^n sweep.
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
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        m = cls(len(rows), rows)
        m.validate()
        return m

    @classmethod
    def of_graph(cls, g):
        return cls(g.n, tuple(tuple(g.dist_row(u)) for u in range(g.n)))

    @classmethod
    def from_json(cls, text):
        """Parse {"d": [[...], ...]}; bad input is a ValidationError."""
        return cls.of(int_lists(json_object(text, "d")["d"], '"d"'))

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


_VAL_BIT = {-1: 1, 0: 2, 1: 4}
_BIT_VALS = {1: (-1,), 2: (0,), 4: (1,), 3: (-1, 0), 5: (-1, 1), 6: (0, 1), 7: (-1, 0, 1)}


def _unit_neighbors(m, f):
    """All extremal forms at sup-distance exactly 1 from the extremal form f.

    Backtracking over per-coordinate moves in {-1,0,+1} with unit
    propagation.  Two constraint families suffice: pairs with slack <= 1
    bound the move sums from below (a metric-form condition; larger slacks
    cannot be violated by unit moves), and every coordinate needs a partner
    whose move sum realizes -slack for some slack <= 2 (tightness, hence
    extremality of the result).  Domains shrink through a trail so the
    possibility checks are exact under the current partial assignment.
    """
    n = m.n
    d = m.d
    partners = [[] for _ in range(n)]   # (y, slack <= 2); y == x encodes the diagonal
    low_pairs = [[] for _ in range(n)]  # (y, slack <= 1)
    for x in range(n):
        fx = f[x]
        diag = 2 * fx
        if diag <= 2:
            partners[x].append((x, diag))
        dx = d[x]
        for y in range(n):
            if y == x:
                continue
            s = fx + f[y] - dx[y]
            if s <= 2:
                partners[x].append((y, s))
            if s <= 1:
                low_pairs[x].append((y, s))

    # branch in BFS order over the slack<=1 graph so constraints bind early
    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        queue = [root]
        seen[root] = True
        while queue:
            x = queue.pop(0)
            order.append(x)
            for y, _ in low_pairs[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)

    dom = [7 if f[x] > 0 else 6 for x in range(n)]  # f(x)=0 forbids the -1 move
    trail = []
    out = []

    def tight_possible(x):
        dx_dom = dom[x]
        for y, s in partners[x]:
            if y == x:
                # 2*move == -s on the diagonal
                if s == 0 and dx_dom & 2:
                    return True
                if s == 2 and dx_dom & 1:
                    return True
                continue
            dy = dom[y]
            if s == 0:
                if (dx_dom & 1 and dy & 4) or (dx_dom & 2 and dy & 2) or (dx_dom & 4 and dy & 1):
                    return True
            elif s == 1:
                if (dx_dom & 1 and dy & 2) or (dx_dom & 2 and dy & 1):
                    return True
            elif s == 2:
                if dx_dom & 1 and dy & 1:
                    return True
        return False

    def shrink(x, new_dom):
        """Shrink dom[x]; return False on wipeout. Cascades via the queue."""
        if new_dom == dom[x]:
            return True
        if new_dom == 0:
            return False
        trail.append((x, dom[x]))
        dom[x] = new_dom
        queue.append(x)
        return True

    queue = []

    def propagate():
        while queue:
            x = queue.pop()
            hi_x = 1 if dom[x] & 4 else (0 if dom[x] & 2 else -1)
            for y, s in low_pairs[x]:
                lb = -s - hi_x  # move(y) >= -s - max(dom[x])
                new = dom[y]
                if lb > -1:
                    new &= ~1
                if lb > 0:
                    new &= ~2
                if lb > 1:
                    new &= ~4
                if not shrink(y, new):
                    return False
            for y, _ in partners[x]:
                if y != x and not tight_possible(y):
                    return False
            if not tight_possible(x):
                return False
        return True

    def dfs(i):
        if i == n:
            if any(dom[x] != 2 for x in range(n)):
                out.append(tuple(f[x] + _BIT_VALS[dom[x]][0] for x in range(n)))
            return
        x = order[i]
        base = dom[x]
        for move in (-1, 0, 1):
            bit = _VAL_BIT[move]
            if not base & bit:
                continue
            mark = len(trail)
            trail.append((x, base))
            dom[x] = bit
            queue.append(x)
            if propagate():
                dfs(i + 1)
            queue.clear()
            while len(trail) > mark:
                z, old = trail.pop()
                dom[z] = old
        dom[x] = base

    dfs(0)
    return sorted(set(out))


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
    extremal-form graph makes the sweep complete.  The result is validated:
    every stored form is extremal and 1-Lipschitz, the embedding is
    isometric, and f(x) = sup-distance(f, d(x, .)) for all stored f, x.
    """
    cap = _form_cap() if cap is None else cap
    if isinstance(m, Graph):
        m = FiniteMetric.of_graph(m)
    seeds = [kuratowski_form(m, x) for x in range(m.n)]
    seen = set(seeds)
    frontier = list(dict.fromkeys(seeds))
    while frontier:
        nxt = []
        for f in frontier:
            for g in _unit_neighbors(m, f):
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
                    if len(seen) > cap:
                        raise ResourceCapExceeded(
                            f"extremal form count exceeds cap {cap}")
        frontier = nxt
    forms = tuple(sorted(seen))
    index = {f: i for i, f in enumerate(forms)}
    edges = [(i, j) for (i, f), (j, g) in combinations(enumerate(forms), 2)
             if sup_distance(f, g) == 1]
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
