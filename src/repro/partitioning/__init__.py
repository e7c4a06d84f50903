"""Placement schemes: hash, lookup-table, and Schism baseline."""

from .base import (HashScheme, LookupScheme, ModuloScheme,
                   first_component_routing, identity_routing)
from .schism import (SchismConfig, SchismPartitioning,
                     build_coaccess_graph, partition_schism)

__all__ = [
    "HashScheme",
    "SchismConfig",
    "SchismPartitioning",
    "build_coaccess_graph",
    "partition_schism",
    "LookupScheme",
    "ModuloScheme",
    "first_component_routing",
    "identity_routing",
]
