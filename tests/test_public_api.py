"""Every name a ``repro`` module lists in ``__all__`` resolves (the check
ruff's F822 makes, run without ruff)."""

import importlib
import pkgutil

import repro


def _modules():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + "."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            yield info.name


def test_every_all_entry_resolves():
    unresolved = []
    n = 0
    for name in _modules():
        mod = importlib.import_module(name)
        n += 1
        for entry in getattr(mod, "__all__", ()):
            if not hasattr(mod, entry):
                unresolved.append(f"{name}.{entry}")
    assert n > 1
    assert unresolved == []
