"""perfbench traces rpens through module attributes; each one must exist.

A renamed attribute would leave its traced layer silently empty, so the
names in perfbench/tracing.py are checked here against the package.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        (mod_name, attr) for mod_name, attr, _, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(mod_name), attr)
    ]
    assert missing == []
