"""Seeded inputs and op lists for the four benchmark workloads.

Everything here is standard library only and independent of
`helly.geometry`, so a change to the package's generators cannot change
what is measured.  The program under test only ever sees the JSON files
written from `Workload.files`.

An op is one `helly` CLI invocation.  `cls` names the op class that the
class totals (`check_helly_s`, `hyp_s`, ...) add up; `check` is the spec the
output checker uses after timing; `expect_exit` is the documented exit code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product

WORKLOADS = ("classify", "hull-build", "fellow", "queries")


@dataclass(frozen=True)
class Op:
    id: str
    cls: str
    argv: tuple          # file arguments are names in Workload.files
    check: tuple         # (kind, *params) for check.py
    expect_exit: int = 0
    env: tuple = ()      # ((name, value), ...) set around the call


@dataclass
class Workload:
    name: str
    seed: int
    files: dict = field(default_factory=dict)   # name -> JSON text
    ops: list = field(default_factory=list)
    probes: list = field(default_factory=list)   # run after timing, see _malformed_probes

    def add_file(self, name, obj):
        text = obj if isinstance(obj, str) else json.dumps(
            obj, separators=(",", ":"), sort_keys=True)
        self.files[name] = text
        return name


# -- graphs as (n, sorted edge list) -------------------------------------------


def graph_obj(n, edges):
    return {"n": n, "edges": [list(e) for e in sorted(edges)]}


def _lattice(rows, cols, king):
    vid = lambda r, c: r * cols + c
    steps = ((0, 1), (1, -1), (1, 0), (1, 1)) if king else ((0, 1), (1, 0))
    edges = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in steps:
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append(tuple(sorted((vid(r, c), vid(rr, cc)))))
    return rows * cols, sorted(edges)


def king(rows, cols):
    return _lattice(rows, cols, True)


def grid(rows, cols):
    return _lattice(rows, cols, False)


def cycle(n):
    return n, sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def path_product(dims):
    """Strong product of paths: coordinates differ by at most 1 everywhere."""
    coords = list(product(*[range(d) for d in dims]))
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    for c in coords:
        for delta in product((-1, 0, 1), repeat=len(dims)):
            d = tuple(a + b for a, b in zip(c, delta))
            if d in index and index[d] > index[c]:
                edges.append((index[c], index[d]))
    return len(coords), sorted(edges)


def tree(n, rng):
    """Uniform random labelled tree, decoded from a random Pruefer sequence."""
    if n == 2:
        return 2, [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append(tuple(sorted((leaf, v))))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(n) if degree[x] == 1]
    edges.append((u, w))
    return n, sorted(edges)


def typical_tree(n, rng, draws=25):
    """The random tree of median Wiener index (sum of distances) among `draws`
    uniform random trees.  Most ops on a tree cost in step with its distances,
    which vary widely between uniform random trees; the median draw keeps the
    structure random but the cost close to that of a typical tree, so the
    seed changes the input without changing how much work it is."""
    trees = [tree(n, rng) for _ in range(draws)]
    trees.sort(key=tree_wiener)
    return trees[draws // 2]


def tree_wiener(g):
    """Sum of distances over vertex pairs of a tree: each edge lies on the
    paths between its two sides."""
    n, edges = g
    adj = adjacency(n, edges)
    parent, order = [-1] * n, [0]
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                order.append(y)
    size = [1] * n
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    return sum(size[x] * (n - size[x]) for x in order[1:])


_HEX = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def tri_patch(radius):
    """Ball of the triangular grid around the origin, axial coordinates."""
    dist = lambda i, j: (abs(i) + abs(j) + abs(i + j)) // 2
    pts = sorted((i, j) for i in range(-radius, radius + 1)
                 for j in range(-radius, radius + 1) if dist(i, j) <= radius)
    index = {p: t for t, p in enumerate(pts)}
    edges = set()
    for p in pts:
        for di, dj in _HEX:
            q = (p[0] + di, p[1] + dj)
            if q in index:
                edges.add(tuple(sorted((index[p], index[q]))))
    return len(pts), sorted(edges)


def l1_grid(k):
    """Even-parity lattice points with |i|+|j| <= 2k, diagonal steps."""
    pts = sorted((i, j) for i in range(-2 * k, 2 * k + 1) for j in range(-2 * k, 2 * k + 1)
                 if abs(i) + abs(j) <= 2 * k and (i + j) % 2 == 0)
    index = {p: t for t, p in enumerate(pts)}
    edges = [(index[p], index[q]) for p, q in combinations(pts, 2)
             if abs(p[0] - q[0]) == 1 and abs(p[1] - q[1]) == 1]
    return len(pts), sorted(edges)


def linf_diamond_size(k):
    """Number of lattice points with |i|+|j| <= 2k: the hull size of l1_grid(k)."""
    return sum(1 for i in range(-2 * k, 2 * k + 1) for j in range(-2 * k, 2 * k + 1)
               if abs(i) + abs(j) <= 2 * k)


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_row(adj, s):
    row = [-1] * len(adj)
    row[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if row[y] < 0:
                    row[y] = row[x] + 1
                    nxt.append(y)
        frontier = nxt
    return row


def bfs_rows(n, edges):
    adj = adjacency(n, edges)
    return [bfs_row(adj, s) for s in range(n)]


def l1_points_metric(rng, count, side):
    pts = set()
    while len(pts) < count:
        pts.add((rng.randrange(side), rng.randrange(side)))
    pts = sorted(pts)
    return {"d": [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]}


def random_hypergraph(rng, n, m, max_size):
    edges = set()
    while len(edges) < m:
        size = rng.randint(1, max_size)
        edges.add(tuple(sorted(rng.sample(range(n), size))))
    return {"n": n, "edges": [list(e) for e in sorted(edges)]}


def unit_ball_hypergraph(n, edges):
    adj = adjacency(n, edges)
    balls = sorted({tuple(sorted(adj[v] + [v])) for v in range(n)})
    return {"n": n, "edges": [list(b) for b in balls]}


def king_cliques(rows, cols):
    """Maximal cliques of the king graph: the 2x2 blocks, in lexicographic order."""
    out = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            v = r * cols + c
            out.append([v, v + 1, v + cols, v + cols + 1])
    return out


def king_reflections(rows, cols):
    """Generators of the king graph's reflection group (and transpose if square)."""
    vid = lambda r, c: r * cols + c
    perms = [[vid(rows - 1 - r, c) for r in range(rows) for c in range(cols)],
             [vid(r, cols - 1 - c) for r in range(rows) for c in range(cols)]]
    if rows == cols:
        perms.append([vid(c, r) for r in range(rows) for c in range(cols)])
    return perms


def cycle_two_delta(n):
    """Four-point 2*delta of the cycle C_n (n >= 4)."""
    return 2 * (n // 4) if n % 2 == 0 else (n - 3) // 2


def king_two_delta(k):
    """Four-point 2*delta of the square k x k king graph."""
    return 2 * ((k - 1) // 2)


# -- workloads -----------------------------------------------------------------


def build(name, seed):
    """The files and ops of workload `name` for `seed` (deterministic)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"perfbench/{name}/{seed}")
    w = Workload(name, seed)
    _BUILDERS[name](w, rng)
    ids = [op.id for op in w.ops]
    if len(ids) != len(set(ids)):
        raise AssertionError("op ids must be unique")
    return w


def _graph_file(w, stem, g):
    return w.add_file(f"{stem}.json", graph_obj(*g))


def _check_op(w, stem, g, family, helly, median=None):
    f = _graph_file(w, stem, g)
    w.ops.append(Op(f"check:{stem}", "check_helly" if helly else "check_non_helly",
             ("check", f), ("check", f, family, helly, median)))


def _hyp_op(w, stem, g, two_delta):
    f = _graph_file(w, stem, g)
    w.ops.append(Op(f"hyp:{stem}", "hyp", ("hyp", f), ("hyp", f, two_delta)))


def _hyper_op(w, stem, h, helly=None, conformal=None):
    f = w.add_file(f"{stem}.json", h)
    w.ops.append(Op(f"hyper-check:{stem}", "hyper_check", ("hyper-check", f),
             ("hyper-check", f, helly, conformal)))


def _classify(w, rng):
    # Helly families: kings, random trees, strong products of paths
    for k in (10, 11):
        _check_op(w, f"king{k}x{k}", king(k, k), "king", True, False)
    for n in (100, 120):
        _check_op(w, f"tree{n}", typical_tree(n, rng), "tree", True, True)
    _check_op(w, "paths4x4x4", path_product((4, 4, 4)), "path-product", True, False)
    # non-Helly families: cycles run the 1-Helly sweep in full, grids and
    # triangular patches leave it early
    for n in (80, 100):
        _check_op(w, f"cycle{n}", cycle(n), "cycle", False, False)
    for k in (8, 10):
        _check_op(w, f"grid{k}x{k}", grid(k, k), "grid", False, True)
    _check_op(w, "tri4", tri_patch(4), "tri-patch", False, False)
    # hyperbolicity on about 40 vertices, values known in closed form
    _hyp_op(w, "hyp-tree40", typical_tree(40, rng), 0)
    _hyp_op(w, "hyp-cycle40", cycle(40), cycle_two_delta(40))
    _hyp_op(w, "hyp-king6x6", king(6, 6), king_two_delta(6))
    # hypergraphs: random ones (checked by oracles), and the unit-ball and
    # clique hypergraphs of Helly graphs (Helly by theorem; cliques conformal)
    for i in range(10):
        _hyper_op(w, f"hyper-random{i}",
                  random_hypergraph(rng, rng.randint(10, 14), rng.randint(8, 12), 5))
    _hyper_op(w, "hyper-balls-king6x6", unit_ball_hypergraph(*king(6, 6)), helly=True)
    _hyper_op(w, "hyper-balls-tree40", unit_ball_hypergraph(*typical_tree(40, rng)), helly=True)
    _hyper_op(w, "hyper-cliques-king7x7", {"n": 49, "edges": king_cliques(7, 7)},
              helly=True, conformal=True)


def _hull_op(w, stem, obj, expect):
    f = w.add_file(f"{stem}.json", obj)
    w.ops.append(Op(f"hull:{stem}", "hull", ("hull", f), ("hull", f) + expect))


def _hull_build(w, rng):
    # expect = (known form count or None, use the extremal-form oracle)
    for n in (8, 9, 10):
        _hull_op(w, f"cycle{n}", graph_obj(*cycle(n)), (None, True))
    for r, c in ((4, 4), (4, 5)):
        _hull_op(w, f"grid{r}x{c}", graph_obj(*grid(r, c)), (None, False))
    _hull_op(w, "l1grid2", graph_obj(*l1_grid(2)), (linf_diamond_size(2), False))
    # Helly inputs are their own hulls: the search runs and finds nothing new
    _hull_op(w, "king5x5", graph_obj(*king(5, 5)), (25, False))
    _hull_op(w, "tree30", graph_obj(*typical_tree(30, rng)), (30, False))
    # l1 metrics of random point sets go through FiniteMetric.validate
    for i in range(6):
        _hull_op(w, f"points{i}", l1_points_metric(rng, 6, 6), (None, True))


def _fellow_op(w, stem, g, budget, seed):
    f = _graph_file(w, stem, g)
    argv = ("bicombing", f, "--fellow-traveler")
    n, edges = g
    total = (n + 2 * len(edges)) ** 2
    if budget:
        argv += ("--budget", str(budget), "--seed", str(seed))
        tuples = min(budget, total)
    else:
        tuples = total
    w.ops.append(Op(f"fellow:{stem}" + (f":b{budget}:s{seed}" if budget else ""),
             "fellow_sampled" if budget else "fellow_all", argv,
             ("fellow", f, tuples)))


def _fellow(w, rng):
    # exhaustive runs: every endpoint pair recurs ~45 times
    for a, b in ((3, 3), (3, 4), (4, 4)):
        _fellow_op(w, f"king{a}x{b}", king(a, b), 0, 0)
    _fellow_op(w, "paths2x2x2", path_product((2, 2, 2)), 0, 0)
    for n in (12, 14):
        _fellow_op(w, f"tree{n}", typical_tree(n, rng), 0, 0)
    # sampled runs on large graphs: few tuples per endpoint pair; the budget
    # is large enough that the cost of one sample of tuples varies little
    for stem, g in (("king10x10", king(10, 10)), ("tree100", typical_tree(100, rng))):
        _fellow_op(w, stem, g, 800, rng.randrange(1000))


PAIRS_PER_GRAPH = 18


def _queries(w, rng):
    files = {}

    def graph(stem, g):
        if stem not in files:
            files[stem] = _graph_file(w, stem, g)
        return files[stem]

    big = [("king20x20", king(20, 20))]
    big += [(f"tree{n}", typical_tree(n, rng)) for n in (200, 250, 300)]
    # (stem, family, graph): graphs of at most 40 vertices
    small_helly = [(f"king{a}x{b}", "king", king(a, b))
                   for a, b in ((3, 3), (3, 5), (4, 4), (5, 6), (6, 6))]
    small_helly += [(f"tree{n}-s", "tree", typical_tree(n, rng)) for n in (8, 16, 24, 32, 40)]
    small_non = [(f"cycle{n}", "cycle", cycle(n)) for n in (4, 9, 14, 20)]
    small_non += [(f"grid{a}x{b}", "grid", grid(a, b)) for a, b in ((2, 3), (3, 3), (4, 5), (6, 6))]
    small_non += [("tri2", "tri-patch", tri_patch(2)), ("tri3", "tri-patch", tri_patch(3))]

    requests = []
    # canonical clique-paths between random pairs of large Helly graphs: a
    # clique-path costs in step with its length, so each graph gets pairs at
    # distances spread evenly from 1 to its diameter
    for stem, g in big:
        rows = bfs_rows(*g)
        diameter = max(map(max, rows))
        for i in range(PAIRS_PER_GRAPH):
            d = 1 + i * (diameter - 1) // (PAIRS_PER_GRAPH - 1)
            while True:
                u = rng.randrange(g[0])
                far = [v for v in range(g[0]) if rows[u][v] == d]
                if far:
                    break
            v = rng.choice(far)
            requests.append(Op(f"pair:{stem}:{u}-{v}", "pair",
                               ("bicombing", graph(stem, g), "--pair", str(u), str(v)),
                               ("pair", graph(stem, g), u, v)))
    for helly, family_list in ((True, small_helly), (False, small_non)):
        for stem, family, g in family_list:
            requests.append(Op(f"check:{stem}", "check_helly" if helly else "check_non_helly",
                               ("check", graph(stem, g)),
                               ("check", graph(stem, g), family, helly, None)))
    for i in range(12):
        stem, _, g = rng.choice(small_helly + small_non)
        n = g[0]
        k = rng.randint(1, 3)
        centers = rng.sample(range(n), min(k, n))
        rows = bfs_rows(*g)
        # radii large enough that the balls pairwise intersect
        radii = [max(rows[c][d] for d in centers) // 2 + 1 for c in centers]
        requests.append(Op(f"coarse:{stem}:{i}", "coarse",
                           ("coarse", graph(stem, g), "--centers", *map(str, centers),
                            "--radii", *map(str, radii)),
                           ("coarse", graph(stem, g), tuple(centers), tuple(radii))))
    for a, b in ((2, 3), (3, 3), (3, 4), (4, 4)):
        requests.append(Op(f"build-thicken:grid{a}x{b}", "build",
                           ("build", "thicken", graph(f"grid{a}x{b}", grid(a, b))),
                           ("same-graph", *king(a, b))))
    for a, b in ((3, 4), (5, 5), (2, 6)):
        requests.append(Op(f"build-product:path{a}xpath{b}", "build",
                           ("build", "product", graph(f"path{a}", path(a)),
                            graph(f"path{b}", path(b))),
                           ("same-graph", *king(a, b))))
    for a, b in ((4, 4), (5, 6), (6, 6)):
        requests.append(Op(f"build-nerve:king{a}x{b}", "build",
                           ("build", "nerve", graph(f"king{a}x{b}", king(a, b))),
                           ("same-graph", *king(a - 1, b - 1))))
    for stem, g in (("king3x3", king(3, 3)), ("path5", path(5)), ("cycle5", cycle(5))):
        requests.append(Op(f"build-face:{stem}", "build",
                           ("build", "face", graph(stem, g)), ("face", graph(stem, g))))
    for a, b in ((3, 3), (4, 4), (3, 5), (5, 6)):
        gens = king_reflections(a, b)
        act = w.add_file(f"action-king{a}x{b}.json", {"perms": gens})
        requests.append(Op(f"fix:king{a}x{b}", "fix",
                           ("fix", graph(f"king{a}x{b}", king(a, b)), act),
                           ("fix", graph(f"king{a}x{b}", king(a, b)), act)))
    for name, params, g in (("king", (4, 6), king(4, 6)), ("grid", (5, 5), grid(5, 5)),
                            ("cycle", (9,), cycle(9)), ("path", (12,), path(12))):
        requests.append(Op(f"gen:{name}{'x'.join(map(str, params))}", "gen",
                           ("gen", name, *map(str, params)), ("same-graph", *g)))
    for i in range(6):
        h = random_hypergraph(rng, rng.randint(5, 9), rng.randint(3, 7), 4)
        f = w.add_file(f"hyper-q{i}.json", h)
        requests.append(Op(f"hyper-check:q{i}", "hyper_check", ("hyper-check", f),
                           ("hyper-check", f, None, None)))
    for n in (5, 6, 7):
        f = graph(f"cycle{n}", cycle(n))
        requests.append(Op(f"hull:cycle{n}", "hull", ("hull", f), ("hull", f, None, True)))
    for i in range(3):
        f = w.add_file(f"points-q{i}.json", l1_points_metric(rng, 5, 4))
        requests.append(Op(f"hull:points-q{i}", "hull", ("hull", f), ("hull", f, None, True)))
    requests += _refusals(w, graph)
    w.ops.extend(requests)
    w.probes.extend(_malformed_probes(w))


def _refusals(w, graph):
    """Malformed or out-of-contract requests that the CLI refuses today with
    its documented exit code (2 usage, 3 validation or cap)."""
    bad = {
        "out-of-range-edge": {"n": 3, "edges": [[0, 1], [1, 5]]},
        "disconnected": {"n": 4, "edges": [[0, 1], [2, 3]]},
        "self-loop": {"n": 3, "edges": [[0, 1], [1, 1], [1, 2]]},
        "missing-edges": {"n": 3},
        "empty-graph": {"n": 0, "edges": []},
    }
    ops = []
    for stem, obj in bad.items():
        f = w.add_file(f"bad-{stem}.json", obj)
        ops.append(Op(f"refuse:{stem}", "refuse", ("check", f), ("refuse",), 3))
    c6 = graph("cycle6", cycle(6))
    k3 = graph("king3x3", king(3, 3))
    ops += [
        Op("refuse:unknown-generator", "refuse", ("gen", "moebius", "3"), ("refuse",), 3),
        Op("refuse:non-integer-param", "refuse", ("gen", "king", "a", "b"), ("refuse",), 2),
        Op("refuse:missing-centers", "refuse", ("coarse", k3), ("refuse",), 2),
        Op("refuse:pair-on-non-helly", "refuse", ("bicombing", c6, "--pair", "0", "3"),
           ("refuse",), 3),
        Op("refuse:disjoint-balls", "refuse",
           ("coarse", c6, "--centers", "0", "3", "--radii", "1", "1"), ("refuse",), 3),
        Op("refuse:fix-non-helly", "refuse",
           ("fix", c6, w.add_file("action-rot6.json", {"perms": [[1, 2, 3, 4, 5, 0]]})),
           ("refuse",), 3),
        Op("refuse:non-automorphism", "refuse",
           ("fix", k3, w.add_file("action-bad.json", {"perms": [[1, 0, 2, 3, 4, 5, 6, 7, 8]]})),
           ("refuse",), 3),
        Op("refuse:triangle-inequality", "refuse",
           ("hull", w.add_file("bad-metric.json", {"d": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]})),
           ("refuse",), 3),
        Op("refuse:empty-hyperedge", "refuse",
           ("hyper-check", w.add_file("bad-hyper.json", {"n": 3, "edges": [[0, 1], []]})),
           ("refuse",), 3),
        Op("refuse:form-cap", "refuse", ("hull", graph("cycle10", cycle(10))), ("refuse",), 3,
           (("HELLY_MAX_FORMS", "20"),)),
    ]
    return ops


_BUILDERS = {"classify": _classify, "hull-build": _hull_build,
             "fellow": _fellow, "queries": _queries}


def _malformed_probes(w):
    """The malformed-input classes of ROADMAP item 5 that crash the CLI today.

    They are run once per `queries` run, after timing and outside every
    timed metric, because a measured workload must consist of ops that
    succeed; each one is still reported, with its outcome, as a failure of
    the input boundary.
    """
    k3 = w.add_file("probe-king3x3.json", graph_obj(*king(3, 3)))
    return [
        Op("probe:malformed-json", "probe",
           ("check", w.add_file("probe-malformed.json", '{"n": 3, "edges": [[0, 1], ')),
           ("refuse",), 3),
        Op("probe:three-element-edge", "probe",
           ("check", w.add_file("probe-edge3.json", {"n": 3, "edges": [[0, 1, 2]]})),
           ("refuse",), 3),
        Op("probe:missing-generator-parameter", "probe", ("gen", "king", "2"), ("refuse",), 3),
        Op("probe:pair-out-of-range", "probe", ("bicombing", k3, "--pair", "0", "99"),
           ("refuse",), 3),
        Op("probe:bad-clique-cap", "probe", ("build", "nerve", k3), ("refuse",), 3,
           (("HELLY_MAX_CLIQUES", "abc"),)),
        Op("probe:fractional-n", "probe",
           ("check", w.add_file("probe-fractional.json", {"n": 2.5, "edges": [[0, 1]]})),
           ("refuse",), 3),
    ]
