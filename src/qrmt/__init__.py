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

__version__ = "0.1.0"

_MODULES = ("params", "sampler", "analytic", "spectral", "specfun")


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
