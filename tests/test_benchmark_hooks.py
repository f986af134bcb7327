"""The traced benchmark run (perfbench/run.py --trace 1) rebinds pir names
listed in perfbench/spans.py; a rename in pir must not leave one dangling."""

import importlib
import sys
from pathlib import Path

from pir import orchestrator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def test_traced_functions_and_methods_exist():
    for module_name, attr, _span, _count in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )
    for module_name, cls_name, attr, _span, _count in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert callable(getattr(cls, attr, None)), f"{module_name}.{cls_name}.{attr}"


def test_traced_stages_are_the_pipeline_stages():
    assert tuple(orchestrator._STAGE_FUNCS) == spans.STAGES
