"""The package's public names, resolved from their submodules on each lookup (PEP 562)."""

import importlib
import runpy
from pathlib import Path

import pytest

import cdmkit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# every public name ``cdmkit`` offers, by the submodule that defines it
PUBLIC = {
    "degradation": [
        "AffineMap", "BallRegion", "BoxRegion", "IntervalRegion", "NModeCdm", "apply_affine",
        "apply_ncdm", "heat_depth_response", "heat_example_cdm", "mode_separation"],
    "errors": [
        "ConfigError", "IdentificationError", "PreconditionError", "ReportParseError",
        "UnviableInputError"],
    "experiment": [
        "ConvergenceRecord", "DEFAULT_HEAT_CONFIG", "ExperimentConfig", "ExperimentResult",
        "default_heat_config", "parse_config", "parse_config_text", "render_report",
        "run_experiment", "stream_reconstructions"],
    "geometry": [
        "Containment", "Side", "StarSetApprox", "estimate_mgf_lipschitz", "hausdorff_distance",
        "interval_hausdorff", "mgf_inner_bound", "mgf_outer_bound", "set_distance",
        "star_contains"],
    "identification": [
        "CdmReconstruction", "Cluster", "EffectivePair", "IdentificationConfig",
        "ModeReconstruction", "QueryKind", "QueryResult", "Reconstructor",
        "build_reconstruction", "build_reconstruction_from_pairs", "cluster_pairs",
        "fit_affine", "lipschitz_error_bound", "query", "recover_effective_input",
        "split_pairs", "viabilize"],
    "serialization": [
        "read_reconstruction", "read_samples", "write_reconstruction", "write_samples"],
    "simulation": [
        "ControlSample", "HeatSystem", "SamplingSchedule", "SystemModel", "integrate",
        "linear_system", "probe_signal"],
}


def test_dir_lists_every_public_name():
    names = set(dir(cdmkit))
    for module, attrs in PUBLIC.items():
        assert module in names
        assert set(attrs) <= names
    assert "__version__" in names


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_submodules_object(module):
    sub = importlib.import_module(f"cdmkit.{module}")
    assert getattr(cdmkit, module) is sub
    for attr in PUBLIC[module]:
        assert getattr(cdmkit, attr) is getattr(sub, attr), attr


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from cdmkit import *", namespace)
    for module, attrs in PUBLIC.items():
        assert namespace[module] is importlib.import_module(f"cdmkit.{module}")
        for attr in attrs:
            assert namespace[attr] is getattr(cdmkit, attr)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'parse_configs'"):
        cdmkit.parse_configs
    assert not hasattr(cdmkit, "cli_main")


def test_names_follow_a_tracer_install_and_uninstall():
    # the tracer rebinds names in every cdmkit module; a name the package
    # stored while the wrapper was installed would keep the wrapper
    original = cdmkit.experiment.parse_config
    tracer = runpy.run_path(str(TRACING))["Tracer"]()
    with tracer.installed():
        assert cdmkit.experiment.parse_config is not original
        assert cdmkit.parse_config is cdmkit.experiment.parse_config
    assert cdmkit.experiment.parse_config is original
    assert cdmkit.parse_config is cdmkit.experiment.parse_config
    assert "parse_config" not in vars(cdmkit)
