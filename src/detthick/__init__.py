"""Exact combinatorics of invariant determinantal thickenings.

Ext modules, Castelnuovo-Mumford regularity, induced Ext maps and
Kodaira-type vanishing for GL-invariant ideals of a generic matrix,
computed purely through partition combinatorics with exact integers.
"""

from .ext import (
    ExtComponent,
    ExtMapResult,
    ExtResult,
    IndexTuple,
    enumerate_weights,
    ext_graded,
    ext_map_parts,
    index_tuples,
)
from .ideals import (
    IdealSpec,
    intersect,
    member,
    normalize,
    power_gens,
    radical_index,
    saturate,
    subideal,
    succ_gens,
    symbolic_gens,
    yset_gens,
)
from .kodaira import VanishingReport, kodaira_check, sing_codim
from .partitions import (
    EMPTY,
    Partition,
    enumerate_partitions,
    leq,
    sup,
)
from .regularity import (
    NEG_INF,
    f_value,
    has_linear_resolution,
    r_bruteforce,
    r_closed,
    reg_j,
    reg_power_details,
    reg_power_family,
    reg_quotient,
    reg_tuples,
)
from .schur import (
    GradedTable,
    j_graded_dim,
    quotient_graded_dim,
    quotient_hilbert_table,
    ring_graded_dim,
    schur_dim,
)
from .zset import ZPair, ZSet, zset_general, zset_power, zset_symbolic

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "ExtComponent",
    "ExtMapResult",
    "ExtResult",
    "GradedTable",
    "IdealSpec",
    "IndexTuple",
    "NEG_INF",
    "Partition",
    "VanishingReport",
    "ZPair",
    "ZSet",
    "enumerate_partitions",
    "enumerate_weights",
    "ext_graded",
    "ext_map_parts",
    "f_value",
    "has_linear_resolution",
    "index_tuples",
    "intersect",
    "j_graded_dim",
    "kodaira_check",
    "leq",
    "member",
    "normalize",
    "power_gens",
    "quotient_graded_dim",
    "quotient_hilbert_table",
    "r_bruteforce",
    "r_closed",
    "radical_index",
    "reg_j",
    "reg_power_details",
    "reg_power_family",
    "reg_quotient",
    "reg_tuples",
    "ring_graded_dim",
    "saturate",
    "schur_dim",
    "sing_codim",
    "subideal",
    "succ_gens",
    "sup",
    "symbolic_gens",
    "yset_gens",
    "zset_general",
    "zset_power",
    "zset_symbolic",
]
