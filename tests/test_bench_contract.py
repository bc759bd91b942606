"""The names the benchmark's tracer wraps must exist in the package.

``bench/tracing.py`` installs its spans by replacing module attributes
found by name; a refactor that renames one of them would make traced
benchmark runs fail.  The target table is read from the tracer itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._TARGETS


@pytest.mark.parametrize(
    "module_name, attribute",
    [(module_name, attribute) for module_name, attribute, *_ in _tracer_targets()],
)
def test_traced_name_resolves(module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute))


def test_bundle_construction_hook_exists():
    from mixref.engine import EvidenceBundle

    assert callable(EvidenceBundle.__post_init__)
