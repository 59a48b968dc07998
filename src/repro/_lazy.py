"""PEP 562 package exports: a public name is imported on first access,
so importing a package costs only what the caller goes on to use."""

import sys
from importlib import import_module


def lazy_exports(package, submodules):
    """``(__getattr__, __dir__, __all__)`` for ``package``; ``submodules``
    maps each relative submodule name to the public names it defines,
    and ``__all__`` lists those names in that order."""
    home = {name: sub for sub, names in submodules.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(home[name], package), name)
        setattr(sys.modules[package], name, value)  # later reads skip this hook
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)
