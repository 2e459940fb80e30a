"""The benchmark wraps library functions by name; a rename must not
leave it pointing at nothing. This loads perfbench/layers.py from its
path without running any workload."""

import importlib
import importlib.util
from pathlib import Path

import spilloverfree as sf

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_layers().TARGETS
    assert targets
    for span, module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), span


def test_every_exported_name_resolves():
    missing = [name for name in sf.__all__ if not hasattr(sf, name)]
    assert missing == []
