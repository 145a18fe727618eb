"""The traced benchmark wraps kw1 functions by name: they must all exist.

``perfbench/tracing.py`` is read as text and executed in a fresh module
namespace, so nothing is imported from or written to ``perfbench/``.
"""

import importlib
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("kw1_traced_names")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def traced_entries(tracing):
    entries = tracing.SPANS + tracing.GENERATOR_SPANS + tracing.COUNTERS
    for _label, module, _path in entries:
        importlib.import_module(module)
    return entries


def test_every_traced_name_resolves():
    tracing = load_tracing()
    entries = traced_entries(tracing)
    assert len(entries) == 27
    for _label, module, path in entries:
        assert callable(tracing._lookup(module, path)), (module, path)


def kw1_bindings():
    """Every attribute of every kw1 module, and of every class in one."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "kw1" and not name.startswith("kw1."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cls_attr, member in vars(value).items():
                    out[(name, attr, cls_attr)] = member
    return out


def test_installation_restores_every_original():
    tracing = load_tracing()
    traced_entries(tracing)
    before = kw1_bindings()
    installation = tracing.Installation(tracing.Recorder())
    try:
        during = kw1_bindings()
        assert any(during[key] is not value for key, value in before.items())
    finally:
        installation.remove()
    after = kw1_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
