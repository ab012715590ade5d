"""The public names, and the names the benchmark tracer patches by name.

perfbench/tracer.py wraps library functions and methods by their module
and name; a name it lists that the library no longer has breaks traced
benchmark runs.  The tracer module is loaded from its file and only read.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import greensign

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module,name", [f[:2] for f in tracer.FUNCTIONS])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"greensign.{module}"), name))


@pytest.mark.parametrize("module,cls,method", [m[:3] for m in tracer.METHODS])
def test_traced_method_is_defined_on_its_class(module, cls, method):
    owner = getattr(importlib.import_module(f"greensign.{module}"), cls)
    assert callable(owner.__dict__[method])


@pytest.mark.parametrize("name", greensign.__all__)
def test_public_name_resolves(name):
    assert hasattr(greensign, name)
