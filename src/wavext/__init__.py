"""Space-time continuous finite elements for the acoustic wave equation.

The wave problem is solved in first-order (velocity) form with trial
functions continuous and piecewise polynomial in time and test functions one
degree lower and discontinuous, marching slab by slab.  The package also
provides the max-in-time errors of u, of its time-antiderivative
reconstruction u*, of v and of c grad u against manufactured solutions, a
constant-free a posteriori error bound, and a batch experiment driver (the
``wavext`` command).
"""

from .errors import ConfigurationError, SolverFailure
from .estimator import (EstimatorBreakdown, best_approx_constant,
                        compute_estimator, effectivity_index, gap_constant)
from .fem import (LagrangeSpace, assemble, build_space, interior_factorization,
                  interpolate_nodal, load_vector, ritz_project, spatial_norm)
from .linalg import Factorization, compressed
from .mesh import Mesh, build_structured_mesh, mesh_size
from .postprocess import (ErrorReport, compute_error_report, convergence_rates,
                          energy_trace)
from .problem import (Discretization, ProblemData, dirichlet_cos,
                      estimator_poly, inline_problem, make_preset,
                      standing_wave)
from .solver import (Lifting, SpaceTimeSolution, build_lifting,
                     discrete_initial_data, solve, solve_slab)
from .timebasis import (TimePartition, endpoint_exact_project, gauss_rule,
                        lagrange_time_interp, slab_temporal_matrices,
                        uniform_time_partition)

__version__ = "0.1.0"
