"""Spectral verification toolkit for the clique-eigenvalue gap inequality."""

from .graphs import (
    MAX_N,
    Graph,
    Graph6Error,
    PartSizes,
    clique_number,
    complete_multipartite,
    from_edge_list,
    independence_number,
    is_k4_free,
    parse_edge_list_text,
    parse_graph6,
    to_graph6,
    triangle_count,
    turan_graph,
    zykov,
)
from .spectra import eigenvalues
from .multipartite import multipartite_spectrum, secular_roots, secular_value
from .conjecture import (
    BnReport,
    OutOfDomainError,
    bn_report,
    bn_report_multipartite,
    hoffman_bound,
    hoffman_ratio_check,
    obstruction_report,
)
from .search import (
    SearchConfig,
    exhaustive_check,
    hill_climb,
    random_k4_free,
    zykov_trajectory,
)
from .stability import (
    EditResult,
    dense_case_check,
    edit_distance_exact,
    edit_distance_local,
    stability_experiment,
)

__version__ = "0.1.0"
