"""Constructive well-posedness toolkit for third-order evolution equations
with complex-valued, spatially decaying lower-order coefficients.

The pipeline: verify the structural hypotheses on a model problem, build an
invertible exponential conjugator that makes the lower-order real parts
nonnegative, certify those lower bounds on the grid, integrate the
conjugated problem with an energy monitor, and pull the solution back while
tracking its exponential frequency-decay radius.
"""

from .errors import (ConfigurationError, ConvergenceError, DataError,
                     EvaluationError, GevreyEvolveError, InfeasibleError,
                     InstabilityError, ParameterError, ReleasedError,
                     ShapeError)
from .grid import Grid, bracket_h, make_grid
from .quantize import (SymbolTable, exp_table, multiplier_table,
                       stage_matrices, table_from_function, to_dense,
                       xi_derivative)
from .symbols import (AssumptionReport, ProblemSpec, Symbol, check_assumptions,
                      estimate_seminorm, eval_table, model_problem)
from .weights import (WeightParams, cutoff_psi, k_of_t, sign_weight,
                      smooth_step)
from .conjugate import (ConjugatedSymbols, ConjugationAssembler,
                        ConjugatorBundle, build_conjugator)
from .positivity import (PositivityReport, calibrate_time_weight,
                         discrete_garding, select_parameters_detailed,
                         verify_lower_bounds)
from .evolve import (GevreyNormSpec, Trajectory, gevrey_norm, radius_fit,
                     solve_conjugated, solve_original, step,
                     synthetic_radius_field)
from .harness import RunConfig, oracle_suite, run_pipeline, sweep_pipeline

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
