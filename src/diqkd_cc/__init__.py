"""Upper bounds on device-independent QKD key rates for d-outcome Bell
scenarios via convex-combination attacks: ideal quantum correlations, LP
maximization of the eavesdropper's local weight over the local polytope,
closed-form key-rate bounds, and critical visibilities up to the d->infinity
limit.
"""

import os

# One BLAS thread per process. When numpy loads, OpenBLAS starts one worker
# per extra core, and the workers spin-wait for most of the process's life,
# burning CPU time that no command uses: the largest matrix any command hands
# BLAS is the tuned state's d x d real eigensolve, which at d = 1024 takes
# 0.26 s on one thread against 0.21 s on two. setdefault keeps a value the
# caller has set. The first submodule import below loads numpy, so this line
# must stay above it; if numpy was imported before diqkd_cc, OpenBLAS has
# already read the variable and this line has no effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .scenario import (
    CorrelationTable,
    Scenario,
    ValidationReport,
    mix_with_white_noise,
    uniform_table,
    validate,
)
from .quantum import (
    MeasurementBasis,
    PureState,
    cglmp_born_table,
    cglmp_state,
    fourier_basis,
    maximally_entangled_state,
)
from .cglmp import (
    CATALAN,
    LOCAL_BOUND,
    cglmp_coefficients,
    cglmp_value,
    idmax_asymptotic,
    idmax_closed_form,
    local_visibility_max_entangled,
)
from .polytope import (
    STRATEGY_CAP,
    CcDecomposition,
    DecompositionInfeasible,
    DeterministicStrategy,
    StrategyCapExceeded,
    enumerate_strategies,
    is_local,
    local_residual,
    max_local_weight,
    strategy_from_id,
    strategy_table,
)
from .keyrate import (
    ANALYTIC_MAX_ENTANGLED,
    BRANCHES,
    LP_CGLMP_STATE,
    LP_MAX_ENTANGLED,
    BracketError,
    CriticalVisibility,
    KeyRatePoint,
    critical_visibilities,
    critical_visibility,
    ec_term_general,
    ec_term_isotropic,
    keyrate_curve,
    keyrate_point,
    local_visibility,
    pa_term_cc,
    shannon_base_d,
    vcrit_asymptotic,
)

__version__ = "0.1.0"
