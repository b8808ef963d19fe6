"""Normal clique-paths and normal paths in Helly graphs.

The one-step projection of a clique toward another (the imprint)
drives the canonical clique-path between cliques at uniform distance;
vertex-level normal paths thread through it.  Verification routines check
the local path conditions, the uniqueness statement, and the fellow
traveler constants (1 for clique-paths, 3 for vertex paths).

Two routes build the paths, and they share no code.  A single pair, as
`normal_clique_path`, `normal_paths` and `imprint` ask for it, runs on
the unchecked bigint `_imprint`, which reads balls grown from the
adjacency masks and the BFS rows from tau, so it never builds the
distance matrix.  The fellow-traveler check builds the paths of every
endpoint pair of its sample at once, level by level from the far end, on
packed rows (`graphs`) built from `g.distances()` (`_normal_rows`);
the single-pair route is its test oracle.  Public functions validate
their input once; the builders below them take it unchecked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import HellyPreconditionError, InvariantViolation, ValidationError
from .graphs import (WM_BLOCK_CELLS, _mask_rows, _meet, _packed, _padded, _reduce_segments,
                     _set_bits, _singletons, as_sequence, as_vertex_set, as_vertices,
                     ball_star_mask, bits, mask_of)


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
        reach &= g.nbr_mask[v] | 1 << v
    if reach == 0:
        raise HellyPreconditionError(
            "empty projection set; the graph is not Helly")
    result = ball_star_mask(g, tau, k - 1)
    for r in bits(reach):
        result &= g.nbr_mask[r] | 1 << r
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
    """Masks of the cliques tau, ..., sigma of the normal clique-path;
    unchecked input.

    tau and sigma are sorted cliques at uniform distance k.  The path is
    built from the sigma end: each clique c at distance >= 2 is imprinted
    toward tau, a clique at uniform distance one less.

    Every step is a clique, in any graph, Helly or not.  Let c be a clique
    at max-distance k >= 2 from tau and reach = B*(tau, k) & B*(c, 1); c
    lies in reach.  Each x in the imprint lies in B*(tau, k - 1), so in
    B*(tau, k), and in B_1(r) for every r in reach, which holds c, so x is
    in reach.  Any two members x, y of the imprint then have y in B_1(x).
    The imprint is at max-distance k - 1 from tau, since each member is
    adjacent to the member of c at distance k.  By induction from the
    validated sigma, every clique of the path is a clique.
    """
    path = [mask_of(sigma)]
    for i in range(k, 1, -1):  # path[-1] is at max-distance i from tau
        path.append(_imprint(g, tau, path[-1], i))
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


def _steps(g, t, s):
    """The step mask of each member of the levels L_1..L_k of the normal
    (t, s)-paths, as a dict; unchecked input.

    L_k = {s} and each lower level is the union of the steps of the level
    above: a member v of L_i steps to its imprint toward t for i >= 2, and
    to {t} for i = 1.  Every level member extends both ways, so the levels
    are exactly the vertices at each position of some normal path.
    """
    step, level = {}, 1 << s
    for i in range(g.dist(t, s), 0, -1):
        below = 0
        for v in bits(level):
            step[v] = _imprint(g, (t,), 1 << v, i) if i > 1 else 1 << t
            below |= step[v]
        level = below
    return step


def normal_paths(g, t, s, cap=100000):
    """All normal (t,s)-paths, lexicographically sorted."""
    as_vertices(g, (t, s), "pair")
    step = _steps(g, t, s)
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


def _imprints(unit, reach, below):
    """below & the AND of unit[r] over r in reach, row by row; an empty row
    is an empty imprint."""
    import numpy as np
    out = _meet(unit, reach) & below
    if not out.any(axis=1).all():
        raise HellyPreconditionError("empty imprint; the graph is not Helly")
    return out


def _distinct(rows):
    """The distinct packed rows, and the index of each row among them."""
    import numpy as np
    order = np.lexsort(rows.T)
    rows = rows[order]
    fresh = np.ones(len(rows), bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    at = np.empty(len(rows), np.int32)
    at[order] = fresh.cumsum() - 1
    return rows[fresh], at


def _normal_rows(g, a, b):
    """Normal clique-paths and normal-path level sets of the endpoint pairs
    (a[r], b[r]), all at once, as (sets, ids): the distinct sets of both
    kinds as packed rows, and the tables ids[0] of clique-paths and ids[1]
    of level sets, where ids[., j, r] is the set at position j of pair r's
    path, held at its last entry past the end.  Raises
    HellyPreconditionError on an empty imprint.

    The same steps as `_clique_path(g, (a,), (b,), k)` and `_steps(g, a,
    b)`, level by level from the far end: at level i = max k, ..., 2, every
    pair with k = d(a, b) >= i steps its clique C_i and its level L_i,
    which start as {b} at level k, toward a.  The imprint of a clique c at
    max-distance i from {a} is B(a, i - 1) & the AND of B_1(r) over r in
    reach = B(a, i) & the AND of B_1(v) over v in c: two segmented ANDs
    over gathered unit-ball rows (`_meet`).  L_(i-1) is the union, one
    segmented OR, of the imprints of the {v} for v in L_i, whose
    reach is B(a, i) & B_1(v).  Level 1 steps to {a}.  Unit balls come from
    `g.nbr_mask`, each with its vertex added, the balls B(a, i) of the
    targets from `g.distances()`, one level at a time.  Pairs are swept by decreasing k, in blocks
    whose two state rows per pair take at most `WM_BLOCK_CELLS` words, so
    the pairs that step at a level are a prefix of their block.  The sets
    made are deduplicated in batches as they come (`_distinct`, a lexsort
    over the words), and the batches once more at the end.

    No reach is empty and the only failure is an empty imprint.  Each
    member of C_i and of L_i is at distance exactly i from a, by induction
    from {b}: an imprint lies in B(a, i - 1), and each member is adjacent
    to all of reach, which holds the members at distance i.  So a member
    lies in its own reach.  The single-pair route meets the same fact, so
    there, too, an empty imprint is the only exception a path build raises.
    """
    import numpy as np
    dist = g.distances()
    words = (g.n + 63) // 64
    unit = _mask_rows(g.nbr_mask, words) | _singletons(np.arange(g.n), words)
    k = dist[a, b].astype(np.intp)
    size = (int(k.max()) + 1) * len(k)
    ids = np.empty(2 * size, np.int32)  # the two tables, cell j * len(k) + r of each
    found, held = [], []  # the distinct rows of each batch; sets not yet in a batch

    def record(rows, at):
        """Enter the sets `rows` at the cells `at`, deduplicated in batches of
        about `WM_BLOCK_CELLS` bytes; with no rows, close the last batch."""
        held.append((rows, at))
        if len(rows) and 8 * words * sum(len(r) for r, _ in held) < WM_BLOCK_CELLS:
            return
        sets, index = _distinct(np.concatenate([r for r, _ in held]))
        ids[np.concatenate([c for _, c in held])] = index + sum(map(len, found))
        found.append(sets)
        held.clear()

    # by decreasing k, so the pairs that step at a level lead their block
    order = np.argsort(-k, kind="stable")
    step = max(1, WM_BLOCK_CELLS // (2 * words))
    for lo in range(0, len(k), step):
        pairs = order[lo:lo + step]
        ta, kb = a[pairs], k[pairs]
        far = np.count_nonzero(kb)
        clique = _singletons(b[pairs], words)
        ends = np.concatenate([clique, _singletons(ta[:far], words)])
        at = np.concatenate([kb * len(k) + pairs, pairs[:far]])  # {b} at k, {a} at 0
        record(np.concatenate([ends, ends]), np.concatenate([at, at + size]))
        # the distance rows of the block's distinct targets, and each pair's
        targets = np.bincount(ta, minlength=g.n).astype(bool)
        target = (targets.cumsum() - 1)[ta]
        rows_of = dist[targets.nonzero()[0]]
        level = clique.copy()
        below = _packed(rows_of <= kb[0], words)
        for i in range(kb[0], 1, -1):
            above, below = below, _packed(rows_of <= i - 1, words)
            m = np.count_nonzero(kb >= i)
            t = target[:m]
            reach = _meet(unit, clique[:m]) & above[t]
            clique[:m] = _imprints(unit, reach, below[t])
            r, v = next(_set_bits(level[:m]))
            steps = _imprints(unit, unit[v] & above[t[r]], below[t[r]])
            _reduce_segments(np.bitwise_or, steps, np.arange(len(r)),
                             r.searchsorted(np.arange(m + 1)), WM_BLOCK_CELLS, level[:m])
            at = (i - 1) * len(k) + pairs[:m]
            record(np.concatenate([clique[:m], level[:m]]), np.concatenate([at, at + size]))
    record(clique[:0], pairs[:0])
    ids = ids.reshape(2, -1, len(k))
    for j in range(1, ids.shape[1]):  # past its end a path holds its last set
        np.copyto(ids[:, j], ids[:, j - 1], where=k < j)
    sets, index = _distinct(np.concatenate(found))
    return sets, index[ids]


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

    The paths of every endpoint pair (p, s) and (q, t) of the tuples are
    built at once by `_normal_rows`.  On a non-Helly graph the check raises
    what a loop over the tuples, building each path in turn, would raise
    first: the HellyPreconditionError of an empty imprint if any path build
    meets one, else the report's InvariantViolation.  Every pair is built
    by that loop, and an empty imprint is the only exception a build can
    raise (see `_normal_rows`), so which pair fails first, and at which
    level, does not change the exception; the batch raises at the first
    empty imprint of its sweep and builds no further, so no failed row is
    ever carried to a lower level.

    Gaps.  For each distinct set A, R[A] is the row of the least
    (clique-paths) or greatest (level sets) distance from a member of A to
    each vertex, one segmented reduce over the rows of D = `g.distances()`.
    Then min-distance(A, B) is the least of R[A] over the members of B, and
    max-distance the greatest.  Each set becomes a column of its members
    (`_padded`) and each path a row of set ids, both padded by repeating
    the last.  Both paddings are exact: a repeated member leaves a min or
    max unchanged, and past the end of the longer path both sides sit at
    their last entries, a pair already counted.  Blocks of tuples, at most
    `WM_BLOCK_CELLS` cells each, gather R[A, members of B], reduce it by min
    or max, then take the max over positions.
    """
    import numpy as np
    if max_tuples is not None and max_tuples < 0:
        raise ValidationError(f"max_tuples must be nonnegative, got {max_tuples}")
    close = [(u, v) for u in range(g.n) for v in bits(g.nbr_mask[u] | 1 << u)]
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
    pairs, pair_of = np.unique(ends[indices // n] * g.n + ends[indices % n],
                               return_inverse=True)
    pair_of = pair_of.reshape(-1, 2).astype(np.int32)
    dist = g.distances()
    sets, ids = _normal_rows(g, pairs // g.n, pairs % g.n)
    r, v = next(_set_bits(sets))
    offsets = r.searchsorted(np.arange(len(sets) + 1))
    # members lead, so each reduction below runs over whole rows
    cols = _padded(v.astype(np.int32), offsets)
    found = []
    for table, reduce in zip(ids, (np.minimum, np.maximum)):
        near = _reduce_segments(reduce, dist, v, offsets, WM_BLOCK_CELLS)  # R
        width = int(np.diff(offsets)[table].max())
        step = max(1, WM_BLOCK_CELLS // (len(table) * width))
        gaps = np.empty(len(indices), dist.dtype)
        for i in range(0, len(indices), step):
            left, right = table[:, pair_of[i:i + step, 0]], table[:, pair_of[i:i + step, 1]]
            cells = near.take(left * g.n + cols[:width, right])
            gaps[i:i + step] = reduce.reduce(cells, axis=0).max(axis=0)
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
