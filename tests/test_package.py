"""The package's public names, resolved from their submodules on each lookup (PEP 562)."""

import ast
import importlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import cdmkit

REPO_ROOT = Path(__file__).resolve().parents[1]
TRACING = REPO_ROOT / "perfbench" / "tracing.py"

# every public name ``cdmkit`` offers, by the submodule that defines it
PUBLIC = {
    "degradation": [
        "AffineMap", "BallRegion", "IntervalRegion", "NModeCdm", "heat_depth_response",
        "heat_example_cdm", "mode_separation"],
    "errors": [
        "ConfigError", "IdentificationError", "PreconditionError", "ReportParseError",
        "UnviableInputError"],
    "experiment": [
        "ConvergenceRecord", "DEFAULT_HEAT_CONFIG", "ExperimentConfig", "ExperimentResult",
        "default_heat_config", "parse_config", "parse_config_text", "render_report",
        "run_experiment", "stream_reconstructions"],
    "geometry": [
        "Containment", "Side", "StarSetApprox", "estimate_mgf_lipschitz", "interval_hausdorff",
        "mgf_inner_bound", "mgf_outer_bound", "star_contains"],
    "identification": [
        "CdmReconstruction", "IdentificationConfig", "ModeReconstruction",
        "QueryKind", "QueryResult", "Reconstructor", "build_reconstruction",
        "build_reconstruction_from_pairs", "cluster_pairs", "fit_affine",
        "lipschitz_error_bound", "query", "recover_effective_input", "split_pairs",
        "viabilize"],
    "serialization": [
        "read_reconstruction", "read_samples", "write_reconstruction", "write_samples"],
    "simulation": [
        "ControlSample", "HeatSystem", "SamplingSchedule", "SystemModel", "integrate",
        "linear_system", "probe_signal"],
}


# Exports that no package module, demo or benchmark script needs to name
UNUSED_EXPORTS = {
    # the checked public entry to the containment test; the package itself
    # calls the unchecked core that it wraps
    "star_contains",
}


def test_all_is_the_public_names():
    names = {name for names in PUBLIC.values() for name in names}
    assert sorted(cdmkit.__all__) == sorted({*PUBLIC, *names})


def used_identifiers(paths):
    """Names that the code of ``paths`` reads, imports or looks up as an attribute."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_every_export_is_used_outside_tests():
    # a definition does not count, only a use; strings and comments are not code
    paths = [p for p in (REPO_ROOT / "src" / "cdmkit").glob("*.py") if p.name != "__init__.py"]
    paths += [*(REPO_ROOT / "demos").glob("*.py"), *(REPO_ROOT / "perfbench").glob("*.py")]
    used = used_identifiers(paths)
    unused = {name for name in cdmkit.__all__ if name not in PUBLIC and name not in used}
    assert unused == UNUSED_EXPORTS


# Every private name one package module imports from another, as (importer, module, name):
# a new coupling to another module's internals is added here on purpose.
PRIVATE_IMPORTS = {
    ("cli", "serialization", "_fmt"),
    ("degradation", "geometry", "_frozen"),
    ("degradation", "geometry", "_integer"),
    ("degradation", "geometry", "_positive"),
    ("experiment", "geometry", "_frozen"),
    ("experiment", "geometry", "_positive"),
    ("experiment", "identification", "_recover_each"),  # the one effective-input solve
    ("experiment", "serialization", "_fmt"),
    ("experiment", "serialization", "_fmt_rows"),  # the one float-table formatter, for convergence.csv
    ("identification", "degradation", "_affine_image"),  # the one affine evaluator of served values
    ("identification", "geometry", "_INSIDE_INNER"),
    ("identification", "geometry", "_OUTSIDE_OUTER"),
    ("identification", "geometry", "_classify"),
    ("identification", "geometry", "_frozen"),
    ("identification", "geometry", "_integer"),
    ("identification", "geometry", "_norm"),
    ("identification", "geometry", "_offset"),  # the core's radius, for viabilize's pre-test
    ("identification", "geometry", "_positive"),
    ("identification", "geometry", "_real"),
    ("serialization", "geometry", "_frozen"),
    ("simulation", "geometry", "_frozen"),
    ("simulation", "geometry", "_integer"),
    ("simulation", "geometry", "_positive"),
}


def test_private_imports_across_modules_are_the_listed_ones():
    found = set()
    for path in (REPO_ROOT / "src" / "cdmkit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS


def imported_top_level_modules(paths) -> set:
    """The top-level module of each absolute import in ``paths``, inside functions too."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.partition(".")[0])
    return found


def test_every_module_the_package_imports_is_stdlib_or_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
                for requirement in pyproject["project"]["dependencies"]}
    imported = imported_top_level_modules((REPO_ROOT / "src" / "cdmkit").glob("*.py"))
    third_party = imported - set(sys.stdlib_module_names)
    assert "orjson" in third_party  # imported inside the function that uses it
    assert third_party <= declared


def test_parsing_a_config_loads_neither_orjson_nor_numpy_random():
    # both load on first use: the formatter of the written files, the schedule's draw
    script = ("import sys; from cdmkit.experiment import parse_config; parse_config(sys.argv[1]); "
              "print(sorted({'orjson', 'numpy.random'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(REPO_ROOT / "configs" / "heat_electrosurgery.cfg")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def float_coercions(node, module: str, owner: str = "<module>") -> set:
    """``(module, function)`` of each call under ``node`` that passes ``dtype=float``."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= float_coercions(child, module, child.name)
            continue
        if isinstance(child, ast.Call) and any(
                kw.arg == "dtype" and isinstance(kw.value, ast.Name) and kw.value.id == "float"
                for kw in child.keywords):
            found.add((module, owner))
        found |= float_coercions(child, module, owner)
    return found


def test_only_pairwise_distances_coerces_with_dtype_float():
    # np.asarray(v, dtype=float) parses numeric strings and drops imaginary parts;
    # every other number a caller passes goes through geometry._frozen or _positive,
    # and pairwise_distances sees only rows the package has checked already
    found = set()
    for path in (REPO_ROOT / "src" / "cdmkit").glob("*.py"):
        found |= float_coercions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == {("geometry", "pairwise_distances")}


# The functions whose floats or decisions reach reconstruction.txt when the
# effective inputs are recovered in closed form, with the helpers they call
# for norms; no BLAS routine may round inside them, so the file is the same
# under every BLAS kernel.
KERNEL_FREE = {
    ("identification", "fit_affine"),
    ("identification", "fit_residuals"),
    ("identification", "_is_unaffected"),
    ("identification", "_fold"),
    ("identification", "_Rows.rank"),
    ("identification", "_column_plan"),
    ("identification", "_Linkage.add"),
    ("geometry", "_witnesses"),
    ("geometry", "_dedup_samples"),
    ("geometry", "_generic_axis"),
    ("geometry", "_norm"),
    ("geometry", "pairwise_distances"),
}


def functions(node, module: str, owner: str = "") -> dict:
    """``(module, qualified name)`` of each function under ``node``, to its node."""
    found = {}
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if not isinstance(child, ast.ClassDef):
                found[module, owner + child.name] = child
            found |= functions(child, module, f"{owner}{child.name}.")
    return found


def blas_calls(node) -> list:
    """The source of each ``@``, ``.dot(`` call and ``np.linalg`` call under ``node``."""
    found = []
    for child in ast.walk(node):
        if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
            found.append(ast.unparse(child))
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            owner = child.func.value
            if child.func.attr == "dot" or (isinstance(owner, ast.Attribute) and owner.attr == "linalg"):
                found.append(ast.unparse(child))
    return found


def test_what_reaches_the_reconstruction_file_calls_no_blas():
    found = {}
    for path in (REPO_ROOT / "src" / "cdmkit").glob("*.py"):
        found |= functions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert KERNEL_FREE <= found.keys()
    assert {name: blas_calls(found[name]) for name in KERNEL_FREE} == {name: [] for name in KERNEL_FREE}


# The functions whose floats reach a served value (a query's mapped value, a
# viabilized input, an error bound) or the report's corner images, with the
# tables they evaluate: no BLAS routine may round inside them, so a served
# value is the same under every BLAS kernel.  ModeReconstruction.inverse is
# left out: viabilize still inverts a mode's linear part by LAPACK.
SERVED_KERNEL_FREE = {
    ("identification", "query"),
    ("identification", "viabilize"),
    ("identification", "lipschitz_error_bound"),
    ("identification", "_command"),
    ("identification", "ModeReconstruction._solve_tables"),
    ("identification", "ModeReconstruction._error_table"),
    ("degradation", "_affine_image"),
    ("degradation", "AffineMap.tables"),
    ("degradation", "AffineMap.__call__"),
    ("experiment", "render_report"),
    ("experiment", "_extent_corners"),
    ("geometry", "pairwise_distances"),
}


def test_what_serves_a_command_calls_no_blas():
    found = {}
    for path in (REPO_ROOT / "src" / "cdmkit").glob("*.py"):
        found |= functions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert SERVED_KERNEL_FREE <= found.keys()
    assert ({name: blas_calls(found[name]) for name in SERVED_KERNEL_FREE}
            == {name: [] for name in SERVED_KERNEL_FREE})
    assert blas_calls(found["identification", "ModeReconstruction.inverse"])  # LAPACK, still


def positivity_checks(node, module: str, owner: str = "") -> set:
    """``(module, qualified name)`` of each ``and`` under ``node`` that calls
    ``isfinite(x)`` and compares ``x > 0`` or ``x >= 0``."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= positivity_checks(child, module, f"{owner}{child.name}.")
            continue
        if isinstance(child, ast.BoolOp) and isinstance(child.op, ast.And):
            finite = {ast.dump(value.args[0]) for value in child.values
                      if isinstance(value, ast.Call) and value.args
                      and getattr(value.func, "attr", getattr(value.func, "id", "")) == "isfinite"}
            signed = {ast.dump(value.left) for value in child.values
                      if isinstance(value, ast.Compare) and len(value.ops) == 1
                      and isinstance(value.ops[0], (ast.Gt, ast.GtE))
                      and isinstance(value.comparators[0], ast.Constant)
                      and value.comparators[0].value == 0}
            if finite & signed:
                found.add((module, owner.rstrip(".") or "<module>"))
        found |= positivity_checks(child, module, owner)
    return found


def test_positivity_is_checked_only_by_geometry_positive():
    # a hand-written ``isfinite(x) and x > 0`` takes a complex number with a
    # ComplexWarning and a string with an untyped TypeError; _positive takes neither
    found = set()
    for path in (REPO_ROOT / "src" / "cdmkit").glob("*.py"):
        found |= positivity_checks(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == set()


def test_integers_are_checked_only_by_geometry_integer():
    # a hand-written isinstance(x, (int, np.integer)) check let bools through or
    # compared strings; _integer is the one check for an integer field
    def integer_check(node) -> bool:
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2 and isinstance(node.args[1], ast.Tuple)
                and {getattr(e, "id", getattr(e, "attr", None)) for e in node.args[1].elts}
                >= {"int", "integer"})

    found = set()
    for path in (REPO_ROOT / "src" / "cdmkit").glob("*.py"):
        found |= {(path.stem, name) for name in enclosing_functions(
            ast.parse(path.read_text(encoding="utf-8")), integer_check)}
    assert found == {("geometry", "_integer")}


def enclosing_functions(node, match, owner: str = "<module>") -> set:
    """Names of the innermost functions under ``node`` that hold a node ``match`` accepts."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if match(child):
            found.add(owner)
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        found |= enclosing_functions(child, match, child.name if inner else owner)
    return found


def raises_config_error_for_value_error(node) -> bool:
    """Whether ``node`` is an ``except`` handler of ``ValueError`` that raises ``ConfigError``."""
    return (isinstance(node, ast.ExceptHandler) and node.type is not None
            and "ValueError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            and any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
                    and getattr(n.exc.func, "id", None) == "ConfigError" for n in ast.walk(node)))


def test_each_front_end_types_its_failures_in_one_place():
    # parse_config_text turns a constructor's ValueError into a ConfigError for the
    # whole parse; the other conversions add text.  The CLI's main alone maps a
    # failure to its kind and exit code.
    source = REPO_ROOT / "src" / "cdmkit"
    experiment = ast.parse((source / "experiment.py").read_text(encoding="utf-8"))
    assert enclosing_functions(experiment, raises_config_error_for_value_error) == {
        "parse_config_text", "_read", "_intervals", "_parse"}
    cli = ast.parse((source / "cli.py").read_text(encoding="utf-8"))
    assert enclosing_functions(cli, lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", None) == "_fail") == {"main"}


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
