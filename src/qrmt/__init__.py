"""Numerical laboratory for the q-generalized Gaussian orthogonal ensembles.

One parameter family interpolating between a bounded-trace ensemble (q < 1),
the Gaussian orthogonal ensemble (q = 1), and heavy-tailed ensembles with
power-law element marginals (1 < q < q_max).  The package samples the family
exactly, evaluates its closed-form spectral laws, and cross-checks the two
against each other.  The public names are those each module lists in its
own `__all__`.

`import qrmt` runs no submodule: the first public name, `__all__` or
submodule asked of the package imports all five and binds their names here,
so a process that needs only `qrmt.params` or `qrmt.cli` never runs the rest.
"""
import importlib
import sys

__version__ = "0.1.0"

_MODULES = ("params", "sampler", "analytic", "spectral", "specfun")


class _FirstUse:
    """The creating module's global `name`, standing in for `source` until its first use.

    `source` is a module, absolute or relative to the creator's package, or "module:attribute".
    The first call or attribute access imports it and, unless a patch has replaced this stand-in,
    binds the real object to `name` in the creator's module alone, so later lookups there reach
    the object itself, and a patch on it, such as one on scipy.special, reaches every caller.
    """

    def __init__(self, name: str, source: str) -> None:
        self._name, self._source, self._globals = name, source, sys._getframe(1).f_globals

    def _resolve(self):
        module, _, attr = self._source.partition(":")
        obj = importlib.import_module(module, self._globals["__package__"])
        if attr:
            obj = getattr(obj, attr)
        if self._globals.get(self._name) is self:
            self._globals[self._name] = obj
        return obj

    def __getattr__(self, attr: str):
        return getattr(self._resolve(), attr)

    def __call__(self, *args, **kwargs):
        return self._resolve()(*args, **kwargs)


def _load() -> None:
    """Import the submodules; bind each one, its `__all__` names and the package's `__all__`."""
    if "__all__" in globals():
        return
    names = []
    for name in _MODULES:
        module = importlib.import_module(f"{__name__}.{name}")
        globals()[name] = module
        for attr in module.__all__:
            globals()[attr] = getattr(module, attr)
        names += module.__all__
    globals()["__all__"] = [*names, "__version__"]


def __getattr__(name: str):
    # other dunders (__path__, __wrapped__, ...) are probes, not requests for the API
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list:
    _load()
    return sorted(globals())
