"""The benchmark tracer's bindings resolve against the library.

``perfbench/layers.py`` rebinds library module attributes by name.  A
refactor that drops or renames one of them would otherwise surface only in
a traced benchmark run.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    bindings = _load_layers()._bindings()
    assert bindings
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in bindings
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
