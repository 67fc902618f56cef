"""hkcert: certified lower bounds for Hilbert-Kunz multiplicities.

Exact hypercube-slice volumes, the parametric bound families built on them,
a deterministic float-path search, exact rational certification of strict
inequalities, and the dimension-by-dimension proof pipeline.

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package re-exports every such name, in layer order.
"""

from . import bounds, certify, report, search, targets, volume
from .volume import *  # noqa: F401,F403
from .targets import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .certify import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *volume.__all__,
    *targets.__all__,
    *search.__all__,
    *bounds.__all__,
    *certify.__all__,
    *report.__all__,
]
