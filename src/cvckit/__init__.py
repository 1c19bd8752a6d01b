"""Exact solvers, bounds, and mixed-integer models for connected vertex cover."""

from .bb import SolveReport, greedy_cvc_2approx, solve
from .errors import (
    ContractError,
    CvcKitError,
    DimacsError,
    InputError,
    SizeCapError,
)
from .graph import (
    Graph,
    articulation_points,
    bipartite_random,
    gnp_random,
    is_connected,
    parse_dimacs,
    spanning_tree_count,
    write_dimacs,
)
from .mip import (
    arborescence_arcs,
    build_parb,
    build_pstp,
    build_qr,
    check_integer_point,
    count_qr_feasible,
    default_roots,
    witness_parb,
    write_lp,
)
from .oracle import (
    brute_force_cvc,
    brute_force_vc,
    check_cvc,
    max_feasible_stable,
)

__version__ = "0.1.0"
