"""Volatility estimation for nonsynchronously observed diffusions."""

from .errors import (CoverageError, EstimationError, NotPositiveDefiniteError,
                     NsvolError, ParameterOutOfDomainError, SchemeError,
                     SimulationError)
from .estimate import (EstimationOutcome, ObservedInfo, bayes,
                       hayashi_yoshida, observed_info, plugin_covariation,
                       qmle, qmle_detail, run_estimation)
from .harness import (ExperimentConfig, MonteCarloReport, emit_report,
                      run_mc)
from .information import (InformationResult, TraceDensities,
                          identifiability_profile, information_matrix,
                          information_matrix_mc, trace_densities)
from .likelihood import (QuasiLikEngine, StructuredCov, build_S,
                         dense_quasi_loglik)
from .models import MODELS, correlated_bm, get_model, scalar_bm, state_dependent
from .scheme import (ObservationGrid, OverlapMatrix, SchemeDiagnostics,
                     check_a2, diag_power_traces, load_grid_csv,
                     load_grid_json, overlap_matrix, operator_norm,
                     poisson_grid, resolvent_trace, save_grid_json,
                     theta_interval, theta_length_sums, uniform_grid)
from .sde import (DiffusionModel, NonsyncSample, observe, read_sample_csv,
                  simulate_path, write_sample_csv)

__version__ = "0.1.0"
