"""Balanced graph separators from clique covers and restriction measures,
with exact and approximate solvers for three geometric packing/covering
problems on unit-height rectangles and unit-diameter discs."""

from .graphs import (Frame, Graph, check_measure_axioms, cover_length,
                     verify_clique_cover)
from .geometry import (SCALE, Disc, PointSite, Rect,
                       candidate_discs, candidate_pierce_points,
                       greedy_cover_and_is_rects, rect_intersection_graph,
                       strip_cover_rects, unit_distance_graph,
                       vertical_strip_cover_points)
from .separator import Cut, check_separator, separate_mask
from .solvers import (CoverSolution, InfeasibleSolution, MisSolution,
                      PierceSolution, SolveConfig, disccover_exact,
                      disccover_ptas, mis_exact, mis_ptas, pierce_exact,
                      pierce_ptas, verify_disc_cover,
                      verify_independent_rects, verify_piercing)
from .instances import Instance, generate, load, parse, save, serialize

__version__ = "0.1.0"

__all__ = [
    "Frame", "Graph", "check_measure_axioms", "cover_length",
    "verify_clique_cover",
    "SCALE", "Disc", "PointSite", "Rect", "candidate_discs",
    "candidate_pierce_points", "greedy_cover_and_is_rects",
    "rect_intersection_graph", "strip_cover_rects", "unit_distance_graph",
    "vertical_strip_cover_points",
    "Cut", "check_separator", "separate_mask",
    "CoverSolution", "InfeasibleSolution", "MisSolution", "PierceSolution",
    "SolveConfig", "disccover_exact", "disccover_ptas", "mis_exact", "mis_ptas",
    "pierce_exact", "pierce_ptas", "verify_disc_cover",
    "verify_independent_rects", "verify_piercing",
    "Instance", "generate", "load", "parse", "save", "serialize",
]
