"""Polynomial root localization by open-mapping descent and harmonic
level-curve tracing.

Two complete root finders over a shared polynomial core:

* ``descent``: a strict-decrease step (recenter, align the lowest
  Taylor term with the target, step) iterated to a root, plus
  deflation for all roots and preimage counting.
* ``matcher.gauss_root``: trace the level curves Re f = eps1 and
  Im f = eps2 through the disc bounded by the node circle, pair up
  their boundary nodes, pick an interleaving pair of arcs, and pin the
  forced crossing in a box about its Newton point, proven in closed form.

Supporting modules: quantitative radii (``bounds``), boundary nodes on
the large circle (``annulus``), truncated-series contraction solving
(``series``), and a JSON/SVG command line (``cli``).
"""

from . import errors
from .annulus import (
    BoundaryNode,
    NodeSet,
    annulus_radius,
    boundary_nodes,
    interleaving_check,
    locate_boundary_nodes,
)
from .bounds import openness_radius, reich_radius
from .descent import (
    DescentStepReport,
    all_roots,
    descent_step,
    preimage_count,
    solve_root,
)
from .matcher import (
    BoxND,
    SeparatedPair,
    find_separated_pair,
    gauss_root,
    locate_crossing,
    miranda_test_nd,
    run_pipeline,
)
from .polycore import (
    Poly,
    critical_points,
    derivative,
    eval_poly,
    synthetic_div,
    taylor_shift,
)
from .series import (
    BivariateSeries,
    RadiiRecipe,
    TruncatedSeries,
    choose_radii,
    compose,
    implicit_series_solve,
    integrate,
    multiply,
    nodal_cubic_demo,
    norm,
)
from .tracer import (
    Arc,
    Matching,
    PerturbedProblem,
    compute_matchings,
    perturb_regular,
    trace_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BivariateSeries",
    "BoundaryNode",
    "BoxND",
    "DescentStepReport",
    "Matching",
    "NodeSet",
    "PerturbedProblem",
    "Poly",
    "RadiiRecipe",
    "SeparatedPair",
    "TruncatedSeries",
    "all_roots",
    "annulus_radius",
    "boundary_nodes",
    "choose_radii",
    "compose",
    "compute_matchings",
    "critical_points",
    "derivative",
    "descent_step",
    "errors",
    "eval_poly",
    "find_separated_pair",
    "gauss_root",
    "implicit_series_solve",
    "integrate",
    "interleaving_check",
    "locate_boundary_nodes",
    "locate_crossing",
    "miranda_test_nd",
    "multiply",
    "nodal_cubic_demo",
    "norm",
    "openness_radius",
    "perturb_regular",
    "preimage_count",
    "reich_radius",
    "run_pipeline",
    "solve_root",
    "synthetic_div",
    "taylor_shift",
    "trace_curve",
]
