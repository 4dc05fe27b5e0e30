"""Every binding the benchmark's tracer wraps still names a callable of the program.

``perfbench/tracer.py`` replaces each ``(module, class, attribute)`` of its
``BINDINGS`` with a timing wrapper; a renamed or deleted attribute would
only show when a traced benchmark runs.  The tracer file is loaded by path
and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_bindings() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("tracer_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def resolves(module: str, cls: str | None, attr: str) -> bool:
    """The tracer looks a method up in its class's own namespace and a
    function in its module's."""
    try:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
    except (ImportError, AttributeError):
        return False
    return callable(vars(owner).get(attr))


def test_every_tracer_binding_resolves():
    bindings = tracer_bindings()
    assert bindings
    assert [name for module, cls, attr, name in bindings if not resolves(module, cls, attr)] == []
