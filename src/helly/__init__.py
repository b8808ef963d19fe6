"""Exact desk-scale computation with Helly graphs.

Modules: graphs (metric core), hypergraphs (Helly/conformality duality and
cell complexes), recognition (classification with cross-checked routes),
hull (discrete injective hulls), bicombing (normal clique-paths),
constructions (Helly-preserving operations), geometry (hyperbolicity,
generators, coarse-Helly defects, grid families), symmetry (fixed cliques
under group actions), claims (the paper's named claims on fixed inputs), cli
(command-line surface).
"""

__version__ = "0.1.0"
