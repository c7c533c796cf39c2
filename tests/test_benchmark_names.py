"""The names the benchmark's span tracer binds exist in strucfact.

``perfbench/spantrace.py`` rebinds the functions in its ``TRACED`` table,
and ``strucfact.cli.ThreadPoolExecutor``, by name.  A rename in the package
would break every traced benchmark run; these tests catch it first.
"""
import importlib
import importlib.util
from concurrent.futures import Executor
from pathlib import Path

import pytest

from strucfact import cli

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in TRACED.items() for name in names])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"strucfact.{module}"),
                            name, None))


def test_rate_check_pool_class_exists():
    assert issubclass(cli.ThreadPoolExecutor, Executor)
