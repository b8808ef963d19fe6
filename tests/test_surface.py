"""Every public top-level name of `helly` has a caller, or is listed here.

A name is referenced when an AST name, attribute or import in `src/helly`
mentions it outside its own definition, or when a module of the benchmark
in `perfbench/` mentions it, in code or in a string constant (the benchmark
tracer patches names given as strings).  Tests do not count.  The names
that nothing references are the oracles that tests compare against, the
statements of the paper that wait for a claim row, and the test corpus.
When one of them gains a caller it must leave its list, so the list
shrinks along with the surface.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ORACLES = {
    "geometry.isometric_embedding_exists",
    "hypergraphs.strong_gilmore",
    "recognition.helly_by_ball_hypergraph",
}

PAPER_STATEMENTS = {
    "bicombing.local_recognition_radius_check",
    "constructions.GspDescription",
    "constructions.gsp_product_gilmore",
    "constructions.maximal_cubes",
    "graphs.is_convex",
    "graphs.is_gated",
    "graphs.is_isometric_embedding",
    "graphs.is_pseudo_modular",
    "graphs.quasi_median",
    "hull.dress_distance_identity_check",
    "hypergraphs.CellComplex",
    "hypergraphs.check_cell_conditions",
    "hypergraphs.conformal_closure",
    "hypergraphs.hellyfication_hypergraph",
    "hypergraphs.simplify",
    "recognition.dominating_clique",
    "symmetry.fixed_face_subgraph",
    "symmetry.hull_orbit_fixed_clique",
}

CORPUS = {"geometry.corpus"}


def mentions(node):
    """The names, attributes and imported names under `node`."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def defined(node):
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced():
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bench |= mentions(tree)
        bench.update(word for n in ast.walk(tree)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)
                     for word in re.findall(r"\w+", n.value))
    uses = [(path.stem, node, mentions(node))
            for path in sorted((ROOT / "src" / "helly").glob("*.py"))
            for node in ast.parse(path.read_text()).body]
    return {f"{module}.{name}"
            for module, node, _ in uses for name in defined(node)
            if not name.startswith("_") and name not in bench
            and not any(name in refs for _, other, refs in uses if other is not node)}


def test_every_public_name_has_a_caller_or_is_listed():
    found, listed = unreferenced(), ORACLES | PAPER_STATEMENTS | CORPUS
    assert not found - listed, f"public names with no caller: {sorted(found - listed)}"
    assert not listed - found, f"listed names with a caller, or gone: {sorted(listed - found)}"
