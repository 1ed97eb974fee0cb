"""Toolkit for identifying control-input degradation in control-affine systems.

The package reconstructs unknown input-degradation maps from exact
state/velocity/input observations, wraps each degradation mode's affected
input region in certified inner/outer star-set approximations, and solves
for viabilized inputs that reproduce commanded behaviour under the
degradation.
"""

from .degradation import (
    AffineMap,
    BallRegion,
    BoxRegion,
    IntervalRegion,
    NModeCdm,
    apply_affine,
    apply_ncdm,
    heat_depth_response,
    heat_example_cdm,
    mode_separation,
)
from .errors import (
    ConfigError,
    IdentificationError,
    PreconditionError,
    ReportParseError,
    UnviableInputError,
)
from .experiment import (
    ConvergenceRecord,
    DEFAULT_HEAT_CONFIG,
    ExperimentConfig,
    ExperimentResult,
    default_heat_config,
    parse_config,
    parse_config_text,
    render_report,
    run_experiment,
    stream_reconstructions,
)
from .geometry import (
    Containment,
    Side,
    StarSetApprox,
    estimate_mgf_lipschitz,
    hausdorff_distance,
    interval_hausdorff,
    mgf_inner_bound,
    mgf_outer_bound,
    set_distance,
    star_contains,
)
from .identification import (
    CdmReconstruction,
    Cluster,
    EffectivePair,
    IdentificationConfig,
    ModeReconstruction,
    QueryKind,
    QueryResult,
    Reconstructor,
    build_reconstruction,
    build_reconstruction_from_pairs,
    cluster_pairs,
    fit_affine,
    lipschitz_error_bound,
    query,
    recover_effective_input,
    split_pairs,
    viabilize,
)
from .serialization import (
    read_reconstruction,
    read_samples,
    write_reconstruction,
    write_samples,
)
from .simulation import (
    ControlSample,
    HeatSystem,
    SamplingSchedule,
    SystemModel,
    integrate,
    linear_system,
    probe_signal,
)

__version__ = "0.1.0"
