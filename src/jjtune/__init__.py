"""jjtune: digital twin and closed-loop planning for laser-trimmed junctions.

Modules:
- physics: resistance <-> frequency <-> critical current maps
- fitkit: deterministic damped least-squares fitting
- dose: laser dose response and stochastic anneal shots
- aging: storage drift curves and offset preservation
- tls: defect spectroscopy maps, Stark calibration, coherence statistics
- wafer: registration, alignment QC, batch runs
- tuner: closed-loop retuning and target allocation
- cli: the ``jjtune`` command
"""

from .aging import (
    REFERENCE_COHORTS,
    AgingParams,
    AgingSeries,
    aging_shift,
    fit_aging,
    fit_aging_samples,
    offset_preservation,
)
from .dose import (
    DEFAULT_RECIPE,
    BeamGeometry,
    DisplacementParams,
    DoseModel,
    DoseResponseParams,
    HeatingParams,
    JunctionState,
    LasingRecipe,
    StochasticParams,
    absorption_fraction,
    apply_anneal,
    default_dose_model,
    displacement_response,
    exposure_factor,
    heat_transfer_factor,
    junction_temperature,
    mean_shift,
    mean_shift_vs_temperature,
)
from .errors import DomainError, FitError, FitEvaluationError, InfeasibleError, SchemaError
from .fitkit import Dataset, FitOptions, FitResult, ModelSpec, fit_curve
from .physics import (
    DEFAULT_BARRIER,
    DEFAULT_MATERIAL,
    barrier_resistance,
    critical_current,
    linearized_shift,
    max_resistance,
    qubit_frequency,
    resistance_for_frequency,
)
from .streams import child_rng
from .tls import (
    CoherenceSummary,
    DriftingDynamics,
    QubitNoiseModel,
    SpectroMap,
    StarkCalibration,
    StaticDynamics,
    TelegraphicDynamics,
    TlsDefect,
    TlsExtraction,
    amplitude_for_shift,
    excited_population,
    extract_tls,
    fit_stark,
    relaxation_rate,
    significant_change,
    simulate_map,
    stark_shift,
    summarize_coherence,
    time_average,
    total_rate,
)
from .tuner import (
    TuneIteration,
    TunePolicy,
    TuneTrace,
    allocate_targets,
    iterative_tune,
    power_for_shift,
    recipe_for_shift,
    required_shift,
)
from .wafer import (
    SECONDS_PER_JUNCTION,
    AffineTransform,
    AlignmentResult,
    BatchReport,
    BatchRow,
    JunctionRecord,
    StageNoise,
    WaferLayout,
    alignment_score,
    apply_affine,
    default_fiducials,
    estimate_affine,
    qc_gate,
    run_batch,
    simulate_alignment,
    synthesize_wafer,
)

__version__ = "0.1.0"
