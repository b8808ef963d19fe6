"""Normal clique-paths and normal paths in Helly graphs.

The one-step projection of a clique toward another (the imprint)
drives the canonical clique-path between cliques at uniform distance;
vertex-level normal paths thread through it.  Verification routines check
the local path conditions, the uniqueness statement, and the fellow
traveler constants (1 for clique-paths, 3 for vertex paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import HellyPreconditionError, ValidationError
from .graphs import ball_star_mask, bits


def _check_clique(g, vertices, name):
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise ValidationError(f"{name} must be a nonempty clique")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValidationError(f"{name} {vs!r} has a vertex outside [0, {g.n})")
    if not g.is_clique(vs):
        raise ValidationError(f"{name} {vs!r} is not a clique")
    return vs


def max_distance(g, a, b):
    return max(g.dist(x, y) for x in a for y in b)


def min_distance(g, a, b):
    return min(g.dist(x, y) for x in a for y in b)


def uniform_distance(g, a, b):
    """The single cross-distance k if all pairs agree, else None."""
    it = iter((x, y) for x in a for y in b)
    x0, y0 = next(it)
    k = g.dist(x0, y0)
    for x, y in it:
        if g.dist(x, y) != k:
            return None
    return k


def imprint_mask(g, tau, sigma):
    k = max_distance(g, tau, sigma)
    if k < 2:
        raise ValidationError(f"imprint needs max-distance >= 2, got {k}")
    reach = ball_star_mask(g, tau, k) & ball_star_mask(g, sigma, 1)
    if reach == 0:
        raise HellyPreconditionError(
            "empty projection set; the graph is not Helly")
    result = ball_star_mask(g, tau, k - 1)
    for r in bits(reach):
        result &= g.ball1_mask[r]
    if result == 0:
        raise HellyPreconditionError("empty imprint; the graph is not Helly")
    return result


def imprint(g, tau, sigma):
    """One-step projection of clique sigma toward clique tau.

    Nonempty clique at max-distance k-1 from tau; requires k >= 2.  An empty
    result is a certificate that the graph is not Helly and raises
    HellyPreconditionError.
    """
    tau = _check_clique(g, tau, "tau")
    sigma = _check_clique(g, sigma, "sigma")
    return tuple(bits(imprint_mask(g, tau, sigma)))


@dataclass(frozen=True)
class CliquePath:
    cliques: tuple  # tuple of sorted vertex tuples

    def __len__(self):
        return len(self.cliques) - 1

    def to_lists(self):
        return [list(c) for c in self.cliques]


def normal_clique_path(g, tau, sigma):
    """The canonical clique-path from tau to sigma at uniform distance k.

    Built by iterating the imprint from the sigma end; length is exactly k.
    Vertex pairs are accepted as singleton cliques.  Non-uniform input pairs
    are rejected.
    """
    if isinstance(tau, int):
        tau = (tau,)
    if isinstance(sigma, int):
        sigma = (sigma,)
    tau = _check_clique(g, tau, "tau")
    sigma = _check_clique(g, sigma, "sigma")
    k = uniform_distance(g, tau, sigma)
    if k is None:
        raise ValidationError("cliques are not at uniform distance")
    if k == 0:
        return CliquePath((tau,))
    cliques = [sigma]
    current = sigma
    for step in range(k - 1, 0, -1):
        current = imprint(g, tau, current)
        cliques.append(current)
    cliques.append(tau)
    return CliquePath(tuple(reversed(cliques)))


def verify_normal_clique_path(g, path):
    """Local conditions: consecutive cliques disjoint with clique union,
    next-but-one cliques at uniform distance 2, middle clique = imprint."""
    cliques = [tuple(sorted(set(c))) for c in path.cliques] \
        if isinstance(path, CliquePath) else [tuple(sorted(set(c))) for c in path]
    if not cliques:
        return False
    for c in cliques:
        if not c or not g.is_clique(c):
            return False
    for a, b in zip(cliques, cliques[1:]):
        if set(a) & set(b):
            return False
        if not g.is_clique(tuple(set(a) | set(b))):
            return False
    for i in range(1, len(cliques) - 1):
        if uniform_distance(g, cliques[i - 1], cliques[i + 1]) != 2:
            return False
    for i in range(1, len(cliques) - 1):
        try:
            if set(cliques[i]) != set(imprint(g, cliques[i - 1], cliques[i + 1])):
                return False
        except (ValidationError, HellyPreconditionError):
            return False
    return True


def _normal_level_sets(g, t, s):
    """Level sets L_0..L_k of vertices usable at each normal-path position.

    L_k = {s}; each lower level collects the imprints toward t of the level
    above (members of L_{i+1} sit at distance i+1 >= 2 from t down to i=1).
    Every level member extends both ways, so levels are exact.
    """
    k = g.dist(t, s)
    levels = [None] * (k + 1)
    levels[k] = {s}
    for i in range(k - 1, 0, -1):
        nxt = set()
        for v in levels[i + 1]:
            nxt.update(imprint(g, (t,), (v,)))
        levels[i] = nxt
    levels[0] = {t}
    return [tuple(sorted(lv)) for lv in levels]


def normal_paths(g, t, s, cap=100000):
    """All normal (t,s)-paths, lexicographically sorted."""
    if not (0 <= t < g.n and 0 <= s < g.n):
        raise ValidationError(f"vertices {t}, {s} must lie in [0, {g.n})")
    k = g.dist(t, s)
    if k == 0:
        return [(t,)]
    paths = [[s]]
    for _ in range(k - 1):
        nxt = []
        for partial in paths:
            for p in imprint(g, (t,), (partial[-1],)):
                nxt.append(partial + [p])
                if len(nxt) > cap:
                    raise ValidationError(f"more than {cap} normal paths")
        paths = nxt
    return sorted(tuple([t] + list(reversed(p))) for p in paths)


def is_normal_path(g, seq):
    """Local normality: consecutive steps adjacent, two-step distance 2,
    each inner vertex in the imprint of its successor toward its predecessor."""
    seq = tuple(seq)
    if len(seq) < 2:
        return len(seq) == 1
    for a, b in zip(seq, seq[1:]):
        if g.dist(a, b) != 1:
            return False
    for i in range(1, len(seq) - 1):
        if g.dist(seq[i - 1], seq[i + 1]) != 2:
            return False
        if seq[i] not in imprint(g, (seq[i - 1],), (seq[i + 1],)):
            return False
    return True


@dataclass(frozen=True)
class FellowTravelerReport:
    clique_constant: int
    path_constant: int
    clique_witness: tuple | None
    path_witness: tuple | None
    tuples_checked: int


def _synchronized_clique_gap(g, p, s, q, t):
    """max over positions of min-distance between the two clique-paths."""
    gp = normal_clique_path(g, (p,), (s,))
    gq = normal_clique_path(g, (q,), (t,))
    long, short = (gp, gq) if len(gp) >= len(gq) else (gq, gp)
    worst = 0
    k = len(short)
    for i, c in enumerate(long.cliques):
        other = short.cliques[i] if i <= k else short.cliques[k]
        worst = max(worst, min_distance(g, c, other))
    return worst


def _synchronized_path_gap(g, p, s, q, t):
    """max over positions and path choices of vertex distance."""
    lp = _normal_level_sets(g, p, s)
    lq = _normal_level_sets(g, q, t)
    long, short = (lp, lq) if len(lp) >= len(lq) else (lq, lp)
    worst = 0
    k = len(short) - 1
    for i, level in enumerate(long):
        other = short[i] if i <= k else short[k]
        worst = max(worst, max(g.dist(x, y) for x in level for y in other))
    return worst


def fellow_traveler_check(g, max_tuples=None, seed=0):
    """Fellow-traveler constants over 4-tuples (p,q,s,t) with d(p,q) <= 1,
    d(s,t) <= 1.

    Exhaustive by default; when `max_tuples` is given, a seeded sample of
    that size is used instead.  Asserts clique constant <= 1 and path
    constant <= 3 and reports witnesses attaining the maxima.
    """
    close_pairs = [(u, u) for u in range(g.n)]
    for u, v in g.edges():
        close_pairs.append((u, v))
        close_pairs.append((v, u))
    close_pairs.sort()
    tuples = [(p, q, s, t) for p, q in close_pairs for s, t in close_pairs]
    if max_tuples is not None and len(tuples) > max_tuples:
        import random
        rng = random.Random(seed)
        tuples = sorted(rng.sample(tuples, max_tuples))
    clique_constant = path_constant = 0
    clique_witness = path_witness = None
    for p, q, s, t in tuples:
        cg = _synchronized_clique_gap(g, p, s, q, t)
        if cg > clique_constant:
            clique_constant, clique_witness = cg, (p, q, s, t)
        pg = _synchronized_path_gap(g, p, s, q, t)
        if pg > path_constant:
            path_constant, path_witness = pg, (p, q, s, t)
    report = FellowTravelerReport(clique_constant, path_constant,
                                  clique_witness, path_witness, len(tuples))
    if clique_constant > 1 or path_constant > 3:
        from .errors import InvariantViolation
        raise InvariantViolation(
            f"fellow traveler constants exceeded: {report}")
    return report


def local_recognition_radius_check(g):
    """Normality of every 2-path is decided identically inside B_2 of its
    midpoint and in the whole graph."""
    for b in range(g.n):
        ball2 = g.ball_mask(b, 2)
        sub, old_ids = g.induced(tuple(bits(ball2)))
        pos = {v: i for i, v in enumerate(old_ids)}
        for a in g.adj[b]:
            for c in g.adj[b]:
                if c <= a:
                    continue
                global_ok = _two_path_normal(g, a, b, c)
                local_ok = _two_path_normal(sub, pos[a], pos[b], pos[c])
                if global_ok != local_ok:
                    return False
    return True


def _two_path_normal(g, a, b, c):
    if g.dist(a, c) != 2:
        return False
    try:
        return b in imprint(g, (a,), (c,))
    except (ValidationError, HellyPreconditionError):
        return False
