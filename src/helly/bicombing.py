"""Normal clique-paths and normal paths in Helly graphs.

The one-step projection of a clique toward another (the imprint)
drives the canonical clique-path between cliques at uniform distance;
vertex-level normal paths thread through it.  Verification routines check
the local path conditions, the uniqueness statement, and the fellow
traveler constants (1 for clique-paths, 3 for vertex paths).

Public functions validate their input once; the builders below them run on
the unchecked `_imprint`, which takes the max-distance from the step index.
The fellow-traveler check builds each path once, following one dict of
linked path tails, and compares the paths of all tuples at once, on numpy
blocks of padded distance tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from .errors import HellyPreconditionError, InvariantViolation, ValidationError
from .graphs import (WM_BLOCK_CELLS, as_sequence, as_vertex_set, as_vertices, ball_star_mask,
                     bits, mask_of)


def _check_clique(g, vertices, name):
    vs = as_vertex_set(g, vertices, name)
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
    return _imprint(g, tau, mask_of(sigma), k)


def _imprint(g, tau, c, k):
    """Imprint mask of the clique mask c toward the clique tau, at max-distance
    k >= 2 from it; unchecked input."""
    reach = ball_star_mask(g, tau, k)
    for v in bits(c):
        reach &= g.ball1_mask[v]
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


def _clique_path(g, tau, sigma, k, links=None):
    """Masks of the cliques tau, ..., sigma of the normal clique-path;
    unchecked input.

    tau and sigma are sorted cliques at uniform distance k.  The path is
    built from the sigma end: each clique c at distance >= 2 is imprinted
    toward tau, a clique at uniform distance one less.  `links`, a dict
    that calls may share, holds each step as a link (tau, c) -> imprint
    mask.  The tail from c toward tau is the same in every path that
    reaches c, so a linked clique is followed, not imprinted again.

    Every step is a clique, in any graph, Helly or not.  Let c be a clique
    at max-distance k >= 2 from tau and reach = B*(tau, k) & B*(c, 1); c
    lies in reach.  Each x in the imprint lies in B*(tau, k - 1), so in
    B*(tau, k), and in B_1(r) for every r in reach, which holds c, so x is
    in reach.  Any two members x, y of the imprint then have y in B_1(x).
    The imprint is at max-distance k - 1 from tau, since each member is
    adjacent to the member of c at distance k.  By induction from the
    validated sigma, every clique of the path is a clique.
    """
    links = {} if links is None else links
    path = [mask_of(sigma)]
    for i in range(k, 1, -1):  # path[-1] is at max-distance i from tau
        key = (tau, path[-1])
        step = links.get(key)
        if step is None:
            step = links[key] = _imprint(g, tau, path[-1], i)
        path.append(step)
    if k:
        path.append(mask_of(tau))
    return path[::-1]


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
    return CliquePath(tuple(tuple(bits(c)) for c in _clique_path(g, tau, sigma, k)))


def verify_normal_clique_path(g, path):
    """Local conditions: consecutive cliques disjoint with clique union,
    next-but-one cliques at uniform distance 2, middle clique = imprint.

    Oracle: tests and the benchmark check `normal_clique_path` against it.
    """
    if isinstance(path, CliquePath):
        path = path.cliques
    cliques = [tuple(sorted(set(as_vertices(g, c, "clique"))))
               for c in as_sequence(path, "clique-path")]
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


def _steps(g, t, s, links=None):
    """Level masks L_0..L_k of the normal (t, s)-paths, from the t end.

    L_k = {s} and each lower level is the union of the steps of the level
    above: a member v of L_i steps to its imprint toward t for i >= 2, and
    to {t} for i = 1.  Every level member extends both ways, so the levels
    are exactly the vertices at each position of some normal path.
    Unchecked input.  `links`, a dict that calls may share, holds the step
    of each member v as the link ((t,), {v}) of `_clique_path`, and each
    level as a link (t, L_i) -> L_(i-1), so a level already linked is
    followed, not stepped again.
    """
    links = {} if links is None else links
    tau, levels = (t,), [1 << s]
    for i in range(g.dist(t, s), 0, -1):
        key = (t, levels[-1])
        below = links.get(key)
        if below is None:
            below = 0
            for v in bits(levels[-1]):
                vkey = (tau, 1 << v)
                step = links.get(vkey)
                if step is None:
                    step = links[vkey] = _imprint(g, tau, 1 << v, i) if i > 1 else 1 << t
                below |= step
            links[key] = below
        levels.append(below)
    return levels[::-1]


def normal_paths(g, t, s, cap=100000):
    """All normal (t,s)-paths, lexicographically sorted."""
    as_vertices(g, (t, s), "pair")
    links, tau = {}, (t,)
    step = {v: links[tau, 1 << v] for level in _steps(g, t, s, links)[1:] for v in bits(level)}
    paths = [(s,)]
    for _ in range(g.dist(t, s)):
        if sum(step[p[-1]].bit_count() for p in paths) > cap:
            raise ValidationError(f"more than {cap} normal paths")
        paths = [p + (w,) for p in paths for w in bits(step[p[-1]])]
    return sorted(p[::-1] for p in paths)


def is_normal_path(g, seq):
    """Local normality: consecutive steps adjacent, two-step distance 2,
    each inner vertex in the imprint of its successor toward its predecessor."""
    seq = as_vertices(g, seq, "path")
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


def fellow_traveler_check(g, max_tuples=None, seed=0):
    """Fellow-traveler constants over 4-tuples (p,q,s,t) with d(p,q) <= 1,
    d(s,t) <= 1.

    Exhaustive by default; when `max_tuples` is given, a seeded sample of
    that size is used instead.  Clique-paths p->s and q->t are compared by
    min-distance, their normal-path level sets by max-distance, position by
    position with the shorter one held at its last entry.  Asserts clique
    constant <= 1 and path constant <= 3 and reports the first tuples
    attaining the maxima.

    Paths toward one target a step by imprints toward {a} and share their
    tails, so all of them follow one dict of links: ((a,), clique) -> its
    imprint for clique-paths and vertex steps, and (a, level) -> the level
    below for level sets.  A path imprints only the cliques and levels not
    yet linked, and is built as masks; each distinct mask becomes a vertex
    set once.  Each endpoint pair is built once, in the order a per-tuple loop
    meets it (clique-paths (p,s), (q,t), then levels (p,s), (q,t)), so a
    non-Helly graph raises the same first exception.  Then each vertex set
    becomes a row of its members, padded by repeating the first, and each
    path a row of set ids, padded by repeating the last.  Both paddings are
    exact: a repeated member leaves a min or max unchanged, and past the end
    of the longer path both sides sit at their last entries, a pair already
    counted.  Blocks of tuples, at most `WM_BLOCK_CELLS` cells each, read
    D[members_A, members_B] from the cached `dist_row`s and reduce it by min
    or max, then take the max over positions.
    """
    if max_tuples is not None and max_tuples < 0:
        raise ValidationError(f"max_tuples must be nonnegative, got {max_tuples}")
    close = [(u, v) for u in range(g.n) for v in bits(g.ball1_mask[u])]
    n = len(close)
    # tuple i is close[i // n] + close[i % n]; sampling indices picks the
    # same tuples as sampling the list of all n * n tuples would
    if max_tuples is not None and n * n > max_tuples:
        indices = np.array(sorted(random.Random(seed).sample(range(n * n), max_tuples)))
    else:
        indices = np.arange(n * n, dtype=np.min_scalar_type(n * n))
    if not len(indices):
        return FellowTravelerReport(0, 0, None, None, 0)
    # endpoint pairs (p, s) and (q, t) of each tuple as p * g.n + s, q * g.n + t
    ends = np.array(close, dtype=np.min_scalar_type(g.n * g.n))
    pairs, first, pair_of = np.unique(ends[indices // n] * g.n + ends[indices % n],
                                      return_index=True, return_inverse=True)
    links = {}
    builders = (lambda a, b: _clique_path(g, (a,), (b,), g.dist(a, b), links),
                lambda a, b: _steps(g, a, b, links))
    set_id, paths = {}, ([None] * len(pairs), [None] * len(pairs))
    # pairs by first use; positions 2i and 2i + 1 of the keys are tuple i's
    order = np.argsort(first).tolist()
    for _, fresh in groupby(order, key=lambda r: first[r] // 2):
        fresh = [(r, *divmod(int(pairs[r]), g.n)) for r in fresh]
        for build, rows in zip(builders, paths):
            for r, a, b in fresh:
                rows[r] = [set_id.setdefault(c, len(set_id)) for c in build(a, b)]
    links.clear()  # about one entry per step built; freed before the numpy blocks
    sets = [tuple(bits(c)) for c in set_id]
    sizes = np.array([len(c) for c in sets])
    wide = sizes.max()
    members = np.array([c + c[:1] * (wide - len(c)) for c in sets], dtype=np.int32)
    # not np.unique, whose first plain call imports numpy.ma (about 1 MB)
    used = np.flatnonzero(np.bincount(members.ravel(), minlength=g.n))
    dist = np.array([g.dist_row(v) for v in used.tolist()], dtype=np.min_scalar_type(g.n))
    length = max(map(len, paths[0]))
    pair_of = pair_of.reshape(-1, 2).astype(np.int32)
    found = []
    for rows, reduce in zip(paths, (np.min, np.max)):
        table = np.array([r + r[-1:] * (length - len(r)) for r in rows], dtype=np.int32)
        width = int(sizes[table].max())
        cols = members[:, :width]
        at = np.searchsorted(used, cols)  # row of each member in `dist`
        step = max(1, WM_BLOCK_CELLS // (length * width * width))
        gaps = np.empty(len(indices), dtype=dist.dtype)
        for i in range(0, len(indices), step):
            ids = table[pair_of[i:i + step]]
            d = dist[at[ids[:, 0]][..., :, None], cols[ids[:, 1]][..., None, :]]
            gaps[i:i + step] = reduce(d, axis=(2, 3)).max(axis=1)
        i = int(gaps.argmax())  # the first tuple attaining the maximum
        found.append((int(gaps[i]), close[indices[i] // n] + close[indices[i] % n])
                     if gaps[i] else (0, None))
    (clique_constant, clique_witness), (path_constant, path_witness) = found
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
