"""Verification toolkit for relative extra-large presentations.

Checks the inter-edge label conditions, builds the coset-poset complexes and
their piecewise-Euclidean metric, certifies the 2pi link condition on every
vertex type, audits the complete-family requirements behind the asphericity
reduction, and extracts acylindrical-hyperbolicity witnesses.
"""

from .defining_graph import (
    ClassifierReport,
    DefiningGraph,
    GraphError,
    Instance,
    InterEdge,
    RelVerdict,
    SubgraphFamily,
    check_rel,
    check_rel_prime,
    classify_known,
    inter_edges,
    parse_graph,
)

__all__ = [
    "ClassifierReport",
    "DefiningGraph",
    "GraphError",
    "Instance",
    "InterEdge",
    "RelVerdict",
    "SubgraphFamily",
    "check_rel",
    "check_rel_prime",
    "classify_known",
    "inter_edges",
    "parse_graph",
]

__version__ = "0.1.0"
