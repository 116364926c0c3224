"""The benchmark's tracer finds every function it wraps.

perfstudy/tracing.py replaces functions by name in the modules that call
them (its PATCHES table).  A refactor that moves a call or drops an import
would make a traced run fail, so every (owner, attribute) pair must
resolve; the module is imported without installing its wrappers.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfstudy" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfstudy_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracing = _load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owners, attr, _name, _work in tracing.PATCHES
        for owner in owners
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"tracing hooks without a target: {missing}"
