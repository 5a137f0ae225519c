"""Comparison-counting set-maxima solvers with a convex-polygon specialization."""

from .bench import BenchConfig, BenchRecord, run_bench, verify_instance
from .generators import (
    GenerationError,
    gen_convex_instance,
    gen_keys,
    gen_random_system,
    gen_rect_instance,
)
from .geometry import (
    COORD_BOUND,
    Chain,
    ConvexPolygon,
    GeometryError,
    Point2,
    chains,
    orientation,
    point_in_convex,
)
from .geomlattice import (
    GeometricInstance,
    GeometricLattice,
    build_geometric_lattice,
    circle_embedding,
    geometric_cover,
    induced_system,
    solve_lattice_geometric,
)
from .instance_io import InputError, ProblemInstance, load_instance, save_instance
from .lattice import (
    CoverBudgetExceeded,
    Lattice,
    LatticeError,
    LatticeNode,
    build_lattice,
    compute_parents,
    good_cover_exact,
    good_cover_greedy,
    good_covers,
)
from .order import ComparisonLedger, KeySpace
from .setsystem import SetSystem
from .solvers import (
    MaximaResult,
    solve_bruteforce,
    solve_bucket,
    solve_lattice,
    solve_sort,
)

__version__ = "0.1.0"
