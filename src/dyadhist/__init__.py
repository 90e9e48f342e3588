"""dyadhist: k-piece multidimensional histogram learning by greedy dyadic splitting."""

from .core import (
    Domain,
    DyadicRect,
    EmpiricalDist,
    GridSpec,
    HistHypothesis,
    HistKind,
    Piece,
    Rect,
    flatten,
    gen_truth,
    l1_dist,
    l2_sq_dist,
    mass,
    sample_from,
    volume,
)
from .ddist import DFitResult, SparseDyadicTree, build_tree, compute_d1, fit_d1
from .split import (
    SplitParams,
    SplitTrace,
    adaptive_greedy_split,
    build_adaptive_grid,
    greedy_split,
    greedy_split_l2,
    piece_bound,
    renormalize,
)
from .theory import BudgetFormula, sample_budget, strictly_greater_region, to_hierarchical
from .oracle import (
    brute_d1,
    dk_distance,
    dk_distance_between,
    opt_hier_l2,
    opt_partial_hier_dk,
)

__version__ = "0.1.0"
