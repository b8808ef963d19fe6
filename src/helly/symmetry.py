"""Group actions on graphs: fixed cliques and fixed-point face complexes.

A finite automorphism group acting on a Helly graph always fixes a clique
setwise; both the direct clique scan and the proof route through the
Hellyfication of a vertex orbit are implemented so they can cross-check
each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (InvariantViolation, ResourceCapExceeded, ValidationError, int_lists,
                     json_object)
from .graphs import Graph
from . import constructions, hull, recognition


@dataclass(frozen=True)
class GroupAction:
    graph: Graph
    generators: tuple  # tuple of permutation tuples

    @classmethod
    def of(cls, graph, perms):
        perms = tuple(tuple(p) for p in perms)
        for p in perms:
            if sorted(p) != list(range(graph.n)):
                raise ValidationError(f"{p!r} is not a permutation of the vertices")
            for u, v in graph.edges():
                if not (graph.nbr_mask[p[u]] >> p[v]) & 1:
                    raise ValidationError(
                        f"generator breaks the edge ({u},{v}) -> ({p[u]},{p[v]})")
        return cls(graph, perms)

    @classmethod
    def from_json(cls, graph, text):
        """Parse {"perms": [[...], ...]}; bad input is a ValidationError."""
        return cls.of(graph, int_lists(json_object(text, "perms")["perms"], '"perms"'))


def close_group(action, cap=10000):
    """All elements of the generated permutation group, sorted."""
    n = action.graph.n
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for p in action.generators:
                comp = tuple(p[g[i]] for i in range(n))
                if comp not in elements:
                    elements.add(comp)
                    nxt.append(comp)
                    if len(elements) > cap:
                        raise ResourceCapExceeded(f"group order exceeds cap {cap}")
        frontier = nxt
    return sorted(elements)


def _invariant_under(action, vertex_set):
    target = set(vertex_set)
    for p in action.generators:
        if {p[v] for v in vertex_set} != target:
            return False
    return True


def fixed_clique(action, require_helly=True):
    """Smallest (size, then lex) clique invariant under the whole group.

    Existence is guaranteed on Helly graphs; an empty search there raises
    InvariantViolation.  Invariance under the generators equals invariance
    under the group.
    """
    g = action.graph
    if require_helly and not recognition.is_helly(g).is_helly:
        raise ValidationError("fixed-clique search requires a Helly graph")
    for clique in recognition.all_cliques(g):
        if _invariant_under(action, clique):
            return clique
    raise InvariantViolation("no invariant clique in a Helly graph")


def orbit(action, v):
    group = close_group(action)
    return tuple(sorted({p[v] for p in group}))


def hull_orbit_fixed_clique(action, v):
    """Fixed clique found inside the Hellyfication of one vertex orbit.

    The orbit carries the induced metric; the group acts on extremal forms
    by precomposition with the inverse.  Extremality preservation and
    closure of the stored form set under the action are verified before the
    invariant-clique scan.  Returns (clique_of_form_indices, hull_graph,
    orbit_vertices).
    """
    g = action.graph
    pts = orbit(action, v)
    pos = {p: i for i, p in enumerate(pts)}
    metric = hull.FiniteMetric.of(
        [[g.dist(a, b) for b in pts] for a in pts])
    hg = hull.hellyfication(metric)
    form_index = {f: i for i, f in enumerate(hg.forms)}

    induced_perms = []
    for p in action.generators:
        if {p[a] for a in pts} != set(pts):
            raise InvariantViolation("orbit is not generator-invariant")
        inv = {p[a]: a for a in pts}
        perm = []
        for f in hg.forms:
            moved = tuple(f[pos[inv[pts[i]]]] for i in range(len(pts)))
            if not hull.is_extremal(metric, moved):
                raise InvariantViolation("action does not preserve extremality")
            j = form_index.get(moved)
            if j is None:
                raise InvariantViolation("action does not permute the hull forms")
            perm.append(j)
        induced_perms.append(tuple(perm))
    hull_action = GroupAction.of(hg.graph, induced_perms)
    clique = fixed_clique(hull_action, require_helly=False)
    return clique, hg, pts


def fixed_face_subgraph(action):
    """Subgraph of the face graph induced by the setwise-invariant cliques.

    Returns (graph, invariant_cliques).
    """
    g = action.graph
    fg, cliques = constructions.face_graph(g)
    keep = [i for i, c in enumerate(cliques) if _invariant_under(action, c)]
    if not keep:
        raise InvariantViolation("no invariant clique to span the fixed face subgraph")
    sub, old = fg.induced(keep)
    return sub, [cliques[i] for i in old]
