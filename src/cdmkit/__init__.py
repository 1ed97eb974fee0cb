"""Toolkit for identifying control-input degradation in control-affine systems.

The package reconstructs unknown input-degradation maps from exact
state/velocity/input observations, wraps each degradation mode's affected
input region in certified inner/outer star-set approximations, and solves
for viabilized inputs that reproduce commanded behaviour under the
degradation.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  They are looked up
# on first use (PEP 562), so ``import cdmkit`` loads neither NumPy nor any
# submodule, and the console entry can pin BLAS threads before NumPy loads.
_PUBLIC = {
    "degradation": (
        "AffineMap", "BallRegion", "IntervalRegion", "NModeCdm", "heat_depth_response",
        "heat_example_cdm", "mode_separation",
    ),
    "errors": (
        "ConfigError", "IdentificationError", "PreconditionError", "ReportParseError",
        "UnviableInputError",
    ),
    "experiment": (
        "ConvergenceRecord", "DEFAULT_HEAT_CONFIG", "ExperimentConfig",
        "ExperimentResult", "default_heat_config", "parse_config", "parse_config_text",
        "render_report", "run_experiment", "stream_reconstructions",
    ),
    "geometry": (
        "Containment", "Side", "StarSetApprox", "estimate_mgf_lipschitz",
        "interval_hausdorff", "mgf_inner_bound", "mgf_outer_bound", "star_contains",
    ),
    "identification": (
        "CdmReconstruction", "IdentificationConfig", "ModeReconstruction",
        "QueryKind", "QueryResult", "Reconstructor", "build_reconstruction",
        "build_reconstruction_from_pairs", "cluster_pairs", "fit_affine",
        "lipschitz_error_bound", "query", "recover_effective_input", "split_pairs",
        "viabilize",
    ),
    "serialization": (
        "read_reconstruction", "read_samples", "write_reconstruction", "write_samples",
    ),
    "simulation": (
        "ControlSample", "HeatSystem", "SamplingSchedule", "SystemModel", "integrate",
        "linear_system", "probe_signal",
    ),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted({*_PUBLIC, *_SOURCE})


def __getattr__(name: str):
    # Each lookup reads the submodule's current binding and stores nothing
    # here, so a name rebound in its submodule (a tracing wrapper installed
    # and removed) is seen as it is now.
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_PUBLIC, *_SOURCE})
