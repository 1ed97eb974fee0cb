"""The benchmark's tracing hooks name functions that exist in cdmkit.

``perfbench/tracing.py`` wraps cdmkit functions by module and attribute
name and reports a missing one as an absent metric rather than failing, so
a rename would silently drop per-layer timings.  The file is executed from
source (no bytecode is written next to it) and only its tables are read.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    hooks = runpy.run_path(str(TRACING))
    targets = list(hooks["FUNCTIONS"].values()) + [hooks["INTEGRATE"], hooks["STREAM"]]
    assert len(targets) >= 19
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_traced_star_build_is_a_classmethod():
    module, cls_name, attr = runpy.run_path(str(TRACING))["STAR_BUILD"]
    cls = getattr(importlib.import_module(module), cls_name)
    assert isinstance(vars(cls).get(attr), classmethod)
