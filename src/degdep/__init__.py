"""Degree-degree dependency measures and configuration-model null models.

The package computes statistically consistent dependency measures (two
Spearman variants, Kendall's tau, and Pearson for comparison) between the
degrees at the two ends of a uniformly sampled edge of a directed
multigraph, and generates directed configuration-model graphs (plain
multigraph, repeated-until-simple, erased) whose rank measures vanish in the
large-graph limit, making them usable null models.
"""

from .config_model import (
    BiDegreeRealization,
    ErasureLedger,
    GenerationError,
    GenerationResult,
    endpoint_degree_laws,
    erase_multigraph,
    generate_cm,
    generate_ecm,
    generate_rcm,
    pair_stubs_cm,
    sample_bidegree,
)
from .correlations import (
    full_report,
    kendall_xy,
    pearson_xy,
    spearman_average_xy,
    spearman_uniform_xy,
)
from .digraph import (
    ALL_PAIRS,
    DegreeTypePair,
    DirectedMultigraph,
    read_edge_list,
    write_edge_list,
)
from .pmf import (
    ConfigError,
    DegenerateLawError,
    JointPmf,
    Pmf,
    kendall_population,
    parse_law,
    read_pmf,
    s_factor,
    size_biased,
    spearman_average_limit,
    spearman_population,
    tv_distance,
    write_pmf,
)
from .seeding import child_seed

__version__ = "0.1.0"
