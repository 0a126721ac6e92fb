"""Numerical laboratory for the q-generalized Gaussian orthogonal ensembles.

One parameter family interpolating between a bounded-trace ensemble (q < 1),
the Gaussian orthogonal ensemble (q = 1), and heavy-tailed ensembles with
power-law element marginals (1 < q < q_max).  The package samples the family
exactly, evaluates its closed-form spectral laws, and cross-checks the two
against each other.  The public names are those each module lists in its
own `__all__`.
"""
from . import analytic, params, sampler, specfun, spectral
from .analytic import *  # noqa: F401,F403
from .params import *  # noqa: F401,F403
from .sampler import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*params.__all__, *sampler.__all__, *analytic.__all__, *spectral.__all__,
           *specfun.__all__, "__version__"]
