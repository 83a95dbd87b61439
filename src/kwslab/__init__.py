"""Continual-learning laboratory for small-footprint keyword spotting.

The package trains a temporal-convolutional keyword model through a sequence
of tasks under interchangeable continual-learning strategies and reports the
accuracy matrix, summary metrics, and footprint accounting for each run.
"""

from . import procs  # first: it sets the BLAS thread count before numpy loads
from .config import RunConfig, load_config
from .errors import KwslabError
from .metrics import RunReport, acc, bwt, la
from .trainer import run

__version__ = "0.1.0"

__all__ = [
    "KwslabError",
    "RunConfig",
    "RunReport",
    "acc",
    "bwt",
    "la",
    "load_config",
    "procs",
    "run",
    "__version__",
]
