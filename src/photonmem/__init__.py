"""Optimal photon storage and retrieval in Lambda-type atomic media.

Computes how well a light pulse can be mapped onto a collective atomic
spin wave and back, given only the optical depth and detuning of the
medium: the optimal spin-wave shape and maximum efficiency, shaped control
fields storing arbitrary smooth inputs at that maximum, photon-echo style
fast storage, and a full space-time simulator of the underlying equations
used as the ground truth for everything else.  The package exports each
layer's ``__all__``, in layer order.
"""

__version__ = "0.1.0"

from . import core, kernel, adiabatic, fast, simulator, optimizer
from .core import *  # noqa: F403
from .kernel import *  # noqa: F403
from .adiabatic import *  # noqa: F403
from .fast import *  # noqa: F403
from .simulator import *  # noqa: F403
from .optimizer import *  # noqa: F403
# bound so ``import photonmem`` alone reaches ``photonmem.cli.main``
from . import cli

__all__ = ["__version__", *core.__all__, *kernel.__all__, *adiabatic.__all__, *fast.__all__,
           *simulator.__all__, *optimizer.__all__]
