"""Normal clique-paths and normal paths in Helly graphs.

The one-step projection of a clique toward another (the imprint)
drives the canonical clique-path between cliques at uniform distance;
vertex-level normal paths thread through it.  Verification routines check
the local path conditions, the uniqueness statement, and the fellow
traveler constants (1 for clique-paths, 3 for vertex paths).

Public functions validate their input once; the builders below them run on
the unchecked `imprint_mask`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations

from .errors import HellyPreconditionError, InvariantViolation, ValidationError
from .graphs import ball_star_mask, bits, mask_of


def _sequence(value, what):
    """`value` as a tuple; a value that is not iterable is bad input."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence, got {value!r}") from None


def _vertices(g, value, what):
    """`value` as a tuple of vertices of g; anything else is bad input."""
    vs = _sequence(value, what)
    if not all(isinstance(v, int) and 0 <= v < g.n for v in vs):
        raise ValidationError(f"{what} {vs!r} has a vertex outside [0, {g.n})")
    return vs


def _check_clique(g, vertices, name):
    vs = tuple(sorted(set(_vertices(g, vertices, name))))
    if not vs:
        raise ValidationError(f"{name} must be a nonempty clique")
    if not g.is_clique(vs):
        raise ValidationError(f"{name} {vs!r} is not a clique")
    return vs


def max_distance(g, a, b):
    return max(g.dist(x, y) for x in a for y in b)


def min_distance(g, a, b):
    return min(g.dist(x, y) for x in a for y in b)


def uniform_distance(g, a, b):
    """The single cross-distance k if all pairs agree, else None."""
    ks = {g.dist(x, y) for x in a for y in b}
    return ks.pop() if len(ks) == 1 else None


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


def _clique_path(g, tau, sigma, k):
    """Cliques tau, ..., sigma of the normal clique-path; unchecked input.

    tau and sigma are sorted cliques at uniform distance k; each imprint is
    again at uniform distance from tau, and is checked to be a clique before
    it is imprinted in turn.
    """
    cliques = [sigma]
    for _ in range(k - 1):
        if len(cliques) > 1 and not g.is_clique(cliques[-1]):
            raise ValidationError(f"sigma {cliques[-1]!r} is not a clique")
        cliques.append(tuple(bits(imprint_mask(g, tau, cliques[-1]))))
    if k:
        cliques.append(tau)
    return tuple(reversed(cliques))


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
    return CliquePath(_clique_path(g, tau, sigma, k))


def verify_normal_clique_path(g, path):
    """Local conditions: consecutive cliques disjoint with clique union,
    next-but-one cliques at uniform distance 2, middle clique = imprint."""
    if isinstance(path, CliquePath):
        path = path.cliques
    cliques = [tuple(sorted(set(_vertices(g, c, "clique"))))
               for c in _sequence(path, "clique-path")]
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
    for a, b, c in zip(cliques, cliques[1:], cliques[2:]):
        if uniform_distance(g, a, c) != 2:
            return False
        try:
            if mask_of(b) != imprint_mask(g, a, c):
                return False
        except HellyPreconditionError:
            return False
    return True


def _steps(g, t, s):
    """Level masks L_0..L_k of the normal (t, s)-paths, and the step mask of
    every member of L_1..L_k: its imprint toward t, or {t} at distance 1.

    L_k = {s} and each lower level is the union of the steps of the level
    above.  Every level member extends both ways, so the levels are exactly
    the vertices at each position of some normal path.  Unchecked input.
    """
    step = {}
    levels = [1 << s]
    for i in range(g.dist(t, s), 0, -1):
        below = 0
        for v in bits(levels[-1]):
            step[v] = imprint_mask(g, (t,), (v,)) if i > 1 else 1 << t
            below |= step[v]
        levels.append(below)
    return levels[::-1], step


def normal_paths(g, t, s, cap=100000):
    """All normal (t,s)-paths, lexicographically sorted."""
    _vertices(g, (t, s), "pair")
    _, step = _steps(g, t, s)
    paths = [(s,)]
    for _ in range(g.dist(t, s)):
        if sum(step[p[-1]].bit_count() for p in paths) > cap:
            raise ValidationError(f"more than {cap} normal paths")
        paths = [p + (w,) for p in paths for w in bits(step[p[-1]])]
    return sorted(p[::-1] for p in paths)


def is_normal_path(g, seq):
    """Local normality: consecutive steps adjacent, two-step distance 2,
    each inner vertex in the imprint of its successor toward its predecessor."""
    seq = _vertices(g, seq, "path")
    if len(seq) < 2:
        return len(seq) == 1
    for a, b in zip(seq, seq[1:]):
        if g.dist(a, b) != 1:
            return False
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        if g.dist(a, c) != 2:
            return False
        try:
            if not imprint_mask(g, (a,), (c,)) >> b & 1:
                return False
        except HellyPreconditionError:
            return False
    return True


@dataclass(frozen=True)
class FellowTravelerReport:
    clique_constant: int
    path_constant: int
    clique_witness: tuple | None
    path_witness: tuple | None
    tuples_checked: int


def _gap(a, b, dist):
    """max over positions of dist between the entries of two sequences,
    the shorter one held at its last entry."""
    if len(a) < len(b):
        a, b = b, a
    return max(dist(x, b[min(i, len(b) - 1)]) for i, x in enumerate(a))


def fellow_traveler_check(g, max_tuples=None, seed=0):
    """Fellow-traveler constants over 4-tuples (p,q,s,t) with d(p,q) <= 1,
    d(s,t) <= 1.

    Exhaustive by default; when `max_tuples` is given, a seeded sample of
    that size is used instead.  Clique-paths p->s and q->t are compared by
    min-distance, their normal-path level sets by max-distance.  Asserts
    clique constant <= 1 and path constant <= 3 and reports witnesses
    attaining the maxima.
    """
    if max_tuples is not None and max_tuples < 0:
        raise ValidationError(f"max_tuples must be nonnegative, got {max_tuples}")
    close = [(u, v) for u in range(g.n) for v in bits(g.ball1_mask[u])]
    n = len(close)
    # tuple i is close[i // n] + close[i % n]; sampling indices picks the
    # same tuples as sampling the list of all n * n tuples would
    indices = range(n * n)
    if max_tuples is not None and n * n > max_tuples:
        indices = sorted(random.Random(seed).sample(indices, max_tuples))
    # endpoint pairs recur across tuples: build each clique-path and each
    # ladder of level sets once per call
    clique_path = cache(lambda a, b: _clique_path(g, (a,), (b,), g.dist(a, b)))
    level_sets = cache(lambda a, b: tuple(tuple(bits(m)) for m in _steps(g, a, b)[0]))
    clique_constant = path_constant = 0
    clique_witness = path_witness = None
    for i in indices:
        (p, q), (s, t) = close[i // n], close[i % n]
        cg = _gap(clique_path(p, s), clique_path(q, t), partial(min_distance, g))
        if cg > clique_constant:
            clique_constant, clique_witness = cg, (p, q, s, t)
        pg = _gap(level_sets(p, s), level_sets(q, t), partial(max_distance, g))
        if pg > path_constant:
            path_constant, path_witness = pg, (p, q, s, t)
    report = FellowTravelerReport(clique_constant, path_constant,
                                  clique_witness, path_witness, len(indices))
    if clique_constant > 1 or path_constant > 3:
        raise InvariantViolation(
            f"fellow traveler constants exceeded: {report}")
    return report


def local_recognition_radius_check(g):
    """Normality of every 2-path is decided identically inside B_2 of its
    midpoint and in the whole graph."""
    for b in range(g.n):
        sub, old_ids = g.induced(tuple(bits(g.ball_mask(b, 2))))
        pos = {v: i for i, v in enumerate(old_ids)}
        for a, c in combinations(g.adj[b], 2):
            if is_normal_path(g, (a, b, c)) != is_normal_path(sub, (pos[a], pos[b], pos[c])):
                return False
    return True
