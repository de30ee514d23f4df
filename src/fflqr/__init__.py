"""Function-on-function linear quantile regression.

Curves are reduced to principal component scores, the conditional quantile
is fit in score space under the check loss, and coefficient surfaces,
predictions and uncertainty bands are reconstructed back in function space.
"""

__version__ = "0.1.0"

from . import bands, bspline, errors, fdata, fpca, model, qreg, selection, simulate
from .bands import *
from .bspline import *
from .errors import *
from .fdata import *
from .fpca import *
from .model import *
from .qreg import *
from .selection import *
from .simulate import *

__all__ = ["__version__"]
for _module in (bands, bspline, errors, fdata, fpca, model, qreg, selection, simulate):
    __all__ += _module.__all__
del _module
