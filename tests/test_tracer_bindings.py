"""The benchmark tracer's bindings resolve against the library.

``perfbench/layers.py`` rebinds library module attributes by name.  A
refactor that drops or renames one of them would otherwise surface only in
a traced benchmark run.  Names a module imports only for the tracer are
listed, so that such dead imports cannot grow unseen.
"""

import ast
import importlib.util
import inspect
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


def _tracer_only(module, attr) -> bool:
    """True when ``module`` neither defines ``attr`` nor uses it outside an import."""
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == attr:
            return False
        if isinstance(node, ast.Name) and node.id == attr:
            return False
    return True


def test_tracer_only_imports_are_listed():
    # Names a module imports only so that the tracer can wrap them.  Each is
    # dead code kept for the benchmark; adding one should be a decision.
    tracer_only = {
        f"{module.__name__.rpartition('.')[2]}.{attr}"
        for module, attr, *_ in _load_layers()._bindings()
        if _tracer_only(module, attr)
    }
    assert tracer_only == {
        "drivers._project",
        "steps.spectral_norm",
        "steps.upper_triangular_inverse",
    }
