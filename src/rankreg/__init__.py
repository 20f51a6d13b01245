"""rankreg: rank regressions with asymptotically valid standard errors.

Estimates OLS coefficients for regressions in which the outcome and/or a
regressor has been transformed into a rank (rank-rank, rank-rank by
subpopulation, level-rank, rank-level), and provides standard errors that
account for the estimation noise in the ranks themselves.  The classical
homoskedastic and Eicker-White formulas ignore that noise and can be badly
off in either direction; they are included for comparison, along with a
nonparametric bootstrap and a copula simulation lab that quantifies the
distortion.
"""

__version__ = "0.1.0"

from . import bootstrap, copulas, errors, estimators, inference, ranks
from .bootstrap import *
from .copulas import *
from .errors import *
from .estimators import *
from .inference import *
from .ranks import *

__all__ = ["__version__"] + [name for module in (ranks, estimators, inference, bootstrap,
                                                 copulas, errors) for name in module.__all__]
