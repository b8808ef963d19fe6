"""Every public top-level name of `helly` has a caller, or is listed here.

A name `module.name` is referenced when `src/helly` or a module of the
benchmark in `perfbench/` mentions it outside its own definition: as an
import from `module`, as the attribute `module.name` of an imported helly
module, as a read of `name` that the symbol tables of `module` resolve to
its module scope (a local, a parameter or an attribute spelled the same
does not count), or, in `perfbench/`, inside a string constant (the
benchmark tracer patches names given as strings such as
"hull.hellyfication").  Tests do not count.  The names that nothing
references are the oracles that tests compare against, the statements of
the paper that wait for a claim row, and the test corpus.  When one of
them gains a caller it must leave its list, so the list shrinks along with
the surface.
"""

import ast
import re
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem for path in (ROOT / "src" / "helly").glob("*.py")}

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


def helly_modules(tree):
    """Local dotted name -> helly module, for the modules that `tree` imports
    whole (`from . import graphs`, `import helly.cli`)."""
    out = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.level or n.module == "helly"):
            out.update((a.asname or a.name, a.name) for a in n.names if a.name in MODULES)
        elif isinstance(n, ast.Import):
            out.update((a.asname or a.name, a.name[6:]) for a in n.names
                       if a.name.startswith("helly."))
    return out


def qualified(node, aliases):
    """The `module.name` that `node` imports from a helly module or reads as
    an attribute of one."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").startswith("helly")):
            module = (n.module or "").rpartition(".")[2]
            out.update(f"{module}.{a.name}" for a in n.names)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, (ast.Name, ast.Attribute))
                and ast.unparse(n.value) in aliases):
            out.add(f"{aliases[ast.unparse(n.value)]}.{n.attr}")
    return out


def module_reads(node):
    """The names a top-level statement reads that resolve to module scope."""
    out, tables = set(), [symtable.symtable(ast.unparse(node), "<statement>", "exec")]
    while tables:
        table = tables.pop()
        tables += table.get_children()
        out.update(s.get_name() for s in table.get_symbols()
                   if s.is_global() and s.is_referenced())
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
        bench |= qualified(tree, helly_modules(tree))
        bench.update(word for n in ast.walk(tree)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str)
                     for word in re.findall(r"\w+\.\w+", n.value))
    uses = []  # (module, top-level statement, the module.name it references)
    for path in sorted((ROOT / "src" / "helly").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = helly_modules(tree)
        uses += [(path.stem, node, qualified(node, aliases)
                  | {f"{path.stem}.{name}" for name in module_reads(node)})
                 for node in tree.body]
    return {f"{module}.{name}"
            for module, node, _ in uses for name in defined(node)
            if not name.startswith("_") and f"{module}.{name}" not in bench
            and not any(f"{module}.{name}" in refs for _, other, refs in uses
                        if other is not node)}


def test_every_public_name_has_a_caller_or_is_listed():
    found, listed = unreferenced(), ORACLES | PAPER_STATEMENTS | CORPUS
    assert not found - listed, f"public names with no caller: {sorted(found - listed)}"
    assert not listed - found, f"listed names with a caller, or gone: {sorted(listed - found)}"


# the calls that read or write the packed-row layout, and the segmented
# reduce over gathered rows; only `graphs` may make them
FORMAT_CALLS = {"packbits", "unpackbits", "to_bytes", "reduceat"}


def format_calls(tree):
    """The names of FORMAT_CALLS that `tree` mentions, as an attribute, a
    name or an import."""
    names = {getattr(n, "attr", None) or getattr(n, "id", None) or getattr(n, "name", None)
             for n in ast.walk(tree) if isinstance(n, (ast.Attribute, ast.Name, ast.alias))}
    return names & FORMAT_CALLS


def calls(tree, name):
    """The calls in `tree` of a function named `name`, plain or as an attribute."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def test_hull_builds_its_graph_from_arrays():
    # the hull graph comes from its CSR arrays, not from the edge-tuple
    # constructor fed by a zip of index lists
    tree = ast.parse((ROOT / "src" / "helly" / "hull.py").read_text())
    assert calls(tree, "_csr_graph")
    assert not calls(tree, "Graph"), "hull calls the edge-tuple constructor"
    assert not [c for c in calls(tree, "zip") if any(calls(a, "tolist") for a in c.args)], (
        "hull zips index lists into edge tuples")


def test_cli_never_builds_the_dual_hypergraph():
    # hyper-check reads the dual's Helly property off Gilmore's run on the
    # stars (H is conformal iff H* is Helly), not off a run on dual(h)
    tree = ast.parse((ROOT / "src" / "helly" / "cli.py").read_text())
    assert not calls(tree, "dual"), "cli calls hypergraphs.dual"


def test_only_graphs_builds_a_graph_from_arrays():
    # a Graph made without its constructor, or with its CSR set from outside,
    # is made by `graphs._csr_graph` alone
    found = {f"{path.stem}.{n.attr}" for path in sorted((ROOT / "src" / "helly").glob("*.py"))
             if path.stem != "graphs" for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, ast.Attribute) and n.attr in {"__new__", "_csr"}}
    assert not found, f"a Graph built outside graphs: {sorted(found)}"


def test_only_graphs_reads_and_writes_packed_rows():
    found = {f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "helly").glob("*.py"))
             if path.stem != "graphs" for name in format_calls(ast.parse(path.read_text()))}
    assert not found, f"packed-row layout outside graphs: {sorted(found)}"


def self_calls(tree):
    """The functions in `tree` that call their own name: bare, or as an
    attribute of `self` or `cls` in a method.  A call of the same name on
    another object, such as `geometry.ncp_figure` inside
    `claims.ncp_figure`, is not one."""
    return sorted(f.name for f in ast.walk(tree)
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for c in calls(f, f.name)
                  if isinstance(c.func, ast.Name) or (isinstance(c.func.value, ast.Name)
                                                      and c.func.value.id in {"self", "cls"}))


def test_no_function_calls_itself():
    # no algorithm may be limited by Python's recursion depth
    found = {f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "helly").glob("*.py"))
             for name in self_calls(ast.parse(path.read_text()))}
    assert not found, f"self-recursive functions: {sorted(found)}"


def test_the_self_call_pin_sees_recursion_and_only_recursion():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class C:\n    def g(self):\n        return self.g()\n"
                     "    @classmethod\n    def h(cls):\n        return cls.h()\n"
                     "def ncp_figure():\n    return geometry.ncp_figure()\n")
    assert self_calls(tree) == ["f", "g", "h"]
