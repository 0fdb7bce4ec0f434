"""The benchmark tracer's names still resolve in the package.

bench/tracing.py skips a target it cannot find, which would leave that
per-layer figure at zero without a word; these tests catch a rename.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("qtchains_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


@pytest.mark.parametrize(
    "mod_name,attr,kind", tracing.TARGETS, ids=[f"{m}.{a}" for m, a, _ in tracing.TARGETS]
)
def test_trace_target_resolves(mod_name, attr, kind):
    mod = importlib.import_module(f"qtchains.{mod_name}")
    owner = mod
    for part in attr.split("."):
        assert hasattr(owner, part), f"qtchains.{mod_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("mod_name,attr", tracing.CACHES, ids=[f"{m}.{a}" for m, a in tracing.CACHES])
def test_traced_cache_has_cache_info(mod_name, attr):
    fn = getattr(importlib.import_module(f"qtchains.{mod_name}"), attr, None)
    assert fn is not None, f"qtchains.{mod_name} has no {attr}"
    assert callable(getattr(fn, "cache_info", None))
