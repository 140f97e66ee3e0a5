"""Optimal ad slates and VCG prices under a Markovian cascade user model.

The user scans a slate top-down, clicking and continuing with per-ad
probabilities.  This package ranks ads by adjusted ecpm, solves for the
revenue-optimal slate (exhaustively, by dynamic programming, or by
growing nested slates one best insertion at a time), prices the winners
with VCG, and ships diagnostics plus a small CLI.  Its public names are
those of each module's ``__all__``.
"""

from .analysis import *
from .hull_oracle import *
from .model import *
from .optimizer import *
from .pricing import *

__version__ = "0.1.0"

__all__ = sorted(analysis.__all__ + hull_oracle.__all__ + model.__all__ + optimizer.__all__ + pricing.__all__)
