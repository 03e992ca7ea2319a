"""shadowbench: LS, RLS, and classical-shadow estimators over random POVMs."""

__version__ = "0.1.0"

import types

from .core import (
    DensityMatrix,
    LogLikelihoodResult,
    Observable,
    ShadowEstimate,
    born_probabilities,
    eigenvalue_split,
    expectation,
    frobenius_error,
    log_likelihood,
    project_physical,
)
from .ensembles import (
    EnsembleSpec,
    GlobalHaar,
    HaarMixture,
    RngStream,
    sample_unitary,
)
from .estimators import (
    CS,
    LS,
    RLS,
    FrameOperator,
    ShadowSet,
    cs_channel_apply,
    cs_channel_inverse,
    estimate,
    shadow_map,
)
from .experiments import (
    ResultRow,
    Scenario,
    canonical_state_and_observables,
    default_scenario,
    emit_csv,
    run_scenario,
)
from .measurement import (
    MeasurementPlan,
    RecordStack,
    adjoint_map,
    dump_records,
    load_records,
    run_plan,
    sample_counts,
)
from .theory import (
    MseEstimate,
    empirical_mse,
    mse_theorem1,
    multinomial_moments,
    random_observable_pdf,
)

# The public names are the classes and functions imported above.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
