"""Space-time continuous finite elements for the acoustic wave equation.

The wave problem is solved in first-order (velocity) form with trial
functions continuous and piecewise polynomial in time and test functions one
degree lower and discontinuous, marching slab by slab.  The package also
provides the time-antiderivative reconstruction of u, max-in-time error
sampling against manufactured solutions, a constant-free a posteriori error
bound, and a batch experiment driver (the ``wavext`` command).
"""

from .errors import ConfigurationError, SolverFailure
from .estimator import (EstimatorBreakdown, best_approx_constant,
                        compute_estimator, effectivity_index,
                        estimator_constants, gap_constant)
from .fem import (FEFunction, LagrangeSpace, assemble, broken_laplacian,
                  build_space, interior_factorization, interpolate_nodal,
                  load_vector, ritz_project, spatial_norm)
from .linalg import Factorization, compressed, solve_spd
from .mesh import Mesh, build_structured_mesh, mesh_size
from .postprocess import (ErrorReport, compute_error_report, convergence_rates,
                          energy_trace, error_C0, postprocessed_solution)
from .problem import (Discretization, ProblemData, dirichlet_cos,
                      estimator_poly, inline_problem, make_preset,
                      standing_wave)
from .solver import (Lifting, SpaceTimeSolution, build_lifting,
                     discrete_initial_data, solve, solve_slab)
from .timebasis import (TimePartition, endpoint_exact_project, gauss_rule,
                        lagrange_time_interp, slab_temporal_matrices,
                        uniform_time_partition)

__version__ = "0.1.0"
