"""Output checks, run after timing and outside every metric.

Each op is checked against what is known about its input family (kings,
trees and path products are Helly; long cycles and grids are not; 2*delta of
trees, cycles and kings in closed form), against the package's oracles where
the size allows (`helly_by_ball_oracle`, `helly_property_oracle`,
`is_conformal_via_cliques`, `enumerate_extremal_forms`), and otherwise by
structural verifiers (`verify_normal_clique_path`, `is_normal_path`,
`is_extremal`).  Distances, cliques and group closures used as references
are computed here, independently of the package.
"""

from __future__ import annotations

import json
from itertools import combinations

from helly import bicombing, hull, hypergraphs
from helly.graphs import Graph
from helly.recognition import helly_by_ball_oracle
from workloads import adjacency, bfs_row, bfs_rows


def check_op(op, files, code, stdout):
    """None if the op's exit code and stdout are right, else the reason."""
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}"
    kind, *params = op.check
    if kind == "refuse":
        return None if stdout == "" else "refusal wrote to stdout"
    try:
        return _CHECKERS[kind](json.loads(stdout), files, *params)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _graph(files, name):
    return Graph.from_json(files[name])


def _edges(files, name):
    obj = json.loads(files[name])
    return obj["n"], [tuple(e) for e in obj["edges"]]


def _masks(n, edges):
    """Closed-neighbourhood masks."""
    m = [1 << v for v in range(n)]
    for u, v in edges:
        m[u] |= 1 << v
        m[v] |= 1 << u
    return m


def _dominated(v, live, closed):
    nv = closed[v] & live
    return any(y != v and (nv >> y) & 1 and nv & ~(closed[y] & live) == 0
               for y in range(len(closed)))


def _check(out, files, name, family, helly, median):
    n, edges = _edges(files, name)
    if out.get("is_helly") is not helly:
        return f"{family}: is_helly={out.get('is_helly')}, expected {helly}"
    if median is not None and out.get("is_median") is not median:
        return f"{family}: is_median={out.get('is_median')}, expected {median}"
    if out["is_helly"] != (out["is_clique_helly"] and out["is_dismantlable"]):
        return "is_helly disagrees with dismantlable and clique-Helly"
    closed = _masks(n, edges)
    cert = out["certificate"]
    if out["is_dismantlable"]:
        order = cert.get("dismantling_order")
        if sorted(order or ()) != list(range(n)):
            return "dismantling order is not a permutation of the vertices"
        live = (1 << n) - 1
        for v in order[:-1]:
            if not _dominated(v, live, closed):
                return f"dismantling order: vertex {v} is not dominated"
            live &= ~(1 << v)
    else:
        stuck = cert.get("stuck_subgraph") or ()
        live = sum(1 << v for v in stuck)
        if len(stuck) < 2 or any(_dominated(v, live, closed) for v in stuck):
            return "stuck subgraph is not stuck"
    if not out["is_clique_helly"]:
        u, v, w = cert["clique_helly_failing_triangle"]
        if not all((closed[a] >> b) & 1 for a, b in ((u, v), (u, w), (v, w))):
            return "failing triangle is not a triangle"
        ext = (closed[u] & closed[v]) | (closed[u] & closed[w]) | (closed[v] & closed[w])
        if any(ext & ~closed[c] == 0 for c in range(n) if (ext >> c) & 1):
            return "failing triangle has a universal vertex"
    if n <= 10:
        if helly_by_ball_oracle(_graph(files, name)) is not helly:
            return "ball oracle disagrees with the family truth"
    return None


def _four_point(rows, i, j, k, l):
    sums = sorted((rows[i][j] + rows[k][l], rows[i][k] + rows[j][l], rows[i][l] + rows[j][k]))
    return sums[2] - sums[1]


def _hyp(out, files, name, two_delta):
    if out.get("two_delta") != two_delta:
        return f"two_delta={out.get('two_delta')}, expected {two_delta}"
    rows = bfs_rows(*_edges(files, name))
    if _four_point(rows, *out["witness"]) != two_delta:
        return "witness quadruple does not attain two_delta"
    return None


def _hyper_check(out, files, name, helly, conformal):
    h = hypergraphs.Hypergraph.from_json(files[name])
    masks = h.edge_masks()
    if len(masks) <= 12:
        helly = hypergraphs.helly_property_oracle(h)
        conformal = hypergraphs.is_conformal_via_cliques(h)
    if helly is not None and out["helly_property"] is not helly:
        return f"helly_property={out['helly_property']}, expected {helly}"
    if conformal is not None and out["conformal"] is not conformal:
        return f"conformal={out['conformal']}, expected {conformal}"
    if out["dual_helly_property"] is not out["conformal"]:
        return "dual Helly property differs from conformality"
    if not out["helly_property"]:
        x, y, z = out["helly_failing_triple"]
        cap = -1
        for a, b in ((x, y), (x, z), (y, z)):
            pair = (1 << a) | (1 << b)
            holding = [m for m in masks if m & pair == pair]
            if not holding:
                return "failing triple has an uncovered pair"
            for m in holding:
                cap &= m
        if cap:
            return "failing triple has a common vertex"
    if not out["conformal"]:
        i, j, k = out["gilmore_failing_edge_triple"]
        need = (masks[i] & masks[j]) | (masks[i] & masks[k]) | (masks[j] & masks[k])
        if any(m & need == need for m in masks):
            return "Gilmore triple is covered by an edge"
    return None


def _hull(out, files, name, count, use_oracle):
    text = files[name]
    obj = json.loads(text)
    m = (hull.FiniteMetric.of_graph(Graph.from_json(text)) if "edges" in obj
         else hull.FiniteMetric.of(obj["d"]))
    forms = [tuple(f) for f in out["forms"]]
    if forms != sorted(set(forms)):
        return "forms are not sorted and distinct"
    if count is not None and len(forms) != count:
        return f"{len(forms)} forms, expected {count}"
    if any(not hull.is_extremal(m, f) for f in forms):
        return "a form is not extremal"
    if [forms[i] for i in out["embed"]] != [tuple(r) for r in m.d]:
        return "embedding does not send points to their distance rows"
    if out["distance_profile"] != max(min(f) for f in forms):
        return "distance profile is wrong"
    unit = [[i, j] for i, j in combinations(range(len(forms)), 2)
            if max(abs(a - b) for a, b in zip(forms[i], forms[j])) == 1]
    if out["edges"] != unit:
        return "hull edges are not the pairs at sup-distance 1"
    if use_oracle and forms != hull.enumerate_extremal_forms(m):
        return "forms differ from the bounded-box oracle"
    return None


def _fellow(out, files, name, tuples):
    if out["tuples_checked"] != tuples:
        return f"tuples_checked={out['tuples_checked']}, expected {tuples}"
    if out["clique_constant"] > 1 or out["path_constant"] > 3:
        return "fellow-traveler constants above their bounds (clique 1, path 3)"
    g = _graph(files, name)
    rows = bfs_rows(*_edges(files, name))
    for key in ("clique_witness", "path_witness"):
        p, q, s, t = out[key]
        if rows[p][q] > 1 or rows[s][t] > 1:
            return f"{key} is not a pair of close pairs"
        for a, b in ((p, s), (q, t)):
            if not bicombing.verify_normal_clique_path(g, bicombing.normal_clique_path(g, a, b)):
                return f"{key}: clique-path fails its local conditions"
    p, q, s, t = out["clique_witness"]
    paths = [bicombing.normal_clique_path(g, p, s).cliques,
             bicombing.normal_clique_path(g, q, t).cliques]
    long, short = sorted(paths, key=len, reverse=True)
    gap = max(min(rows[x][y] for x in c for y in short[min(i, len(short) - 1)])
              for i, c in enumerate(long))
    if gap != out["clique_constant"]:
        return "clique witness does not attain the clique constant"
    return None


def _pair(out, files, name, u, v):
    g = _graph(files, name)
    row = _row(files, name, u)
    cliques = out["clique_path"]
    if cliques[0] != [u] or cliques[-1] != [v] or len(cliques) != row[v] + 1:
        return "clique-path has the wrong ends or length"
    if not bicombing.verify_normal_clique_path(g, cliques):
        return "clique-path fails its local conditions"
    paths = [tuple(p) for p in out["normal_paths"]]
    if not paths or paths != sorted(set(paths)):
        return "normal paths are missing, unsorted or repeated"
    for p in paths:
        if p[0] != u or p[-1] != v or len(p) != row[v] + 1:
            return "a normal path has the wrong ends or length"
        if not bicombing.is_normal_path(g, p):
            return "a path is not normal"
    return None


def _row(files, name, u):
    return bfs_row(adjacency(*_edges(files, name)), u)


def _coarse(out, files, name, centers, radii):
    rows = [_row(files, name, c) for c in centers]
    want = min(max(max(0, r[y] - rad) for r, rad in zip(rows, radii))
               for y in range(len(rows[0])))
    return None if out == {"defect": want} else f"defect {out}, expected {want}"


def _same_graph(out, files, n, edges):
    if out.get("n") != n or [tuple(e) for e in out.get("edges", ())] != sorted(edges):
        return "graph differs from the expected construction"
    return None


def _cliques(n, edges):
    """All nonempty cliques in (size, lex) order."""
    closed = _masks(n, edges)
    out = []

    def extend(base, cand):
        for v in range(n):
            if (cand >> v) & 1:
                c = base + (v,)
                out.append(c)
                extend(c, cand & closed[v] & ~((1 << (v + 1)) - 1))

    extend((), (1 << n) - 1)
    return sorted(out, key=lambda c: (len(c), c))


def _face(out, files, name):
    n, edges = _edges(files, name)
    cliques = _cliques(n, edges)
    closed = _masks(n, edges)
    union_is_clique = lambda a, b: all((closed[x] >> y) & 1 for x in a + b for y in a + b)
    want = [(i, j) for i, j in combinations(range(len(cliques)), 2)
            if union_is_clique(cliques[i], cliques[j])]
    return _same_graph(out, files, len(cliques), want)


def _fix(out, files, name, action):
    n, edges = _edges(files, name)
    gens = [tuple(p) for p in json.loads(files[action])["perms"]]
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        frontier = [c for c in {tuple(p[x] for x in e) for e in frontier for p in gens}
                    if c not in group]
        group.update(frontier)
    if out["group_order"] != len(group):
        return f"group order {out['group_order']}, expected {len(group)}"
    invariant = lambda c: all({p[v] for v in c} == set(c) for p in gens)
    want = next(c for c in _cliques(n, edges) if invariant(c))
    if tuple(out["fixed_clique"]) != want:
        return f"fixed clique {out['fixed_clique']}, expected {list(want)}"
    return None


_CHECKERS = {
    "check": _check, "hyp": _hyp, "hyper-check": _hyper_check, "hull": _hull,
    "fellow": _fellow, "pair": _pair, "coarse": _coarse, "same-graph": _same_graph,
    "face": _face, "fix": _fix,
}
