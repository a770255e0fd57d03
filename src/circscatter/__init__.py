"""Divide-and-conquer inverse scattering from far-field measurements.

A classifier picks the boundary family from the measured far-field
channels, then a per-family regressor recovers the boundary coefficients
and the surface impedance.  The networks are circular-padding 1D
convolutional stacks with hand-written forward and backward passes.
"""

import os
import sys
import warnings

# CIRCSCATTER_THREADS caps BLAS threading; it must land in the
# environment before numpy loads its BLAS, hence this runs first.  If
# numpy is already loaded, a variable not already set to the cap comes
# too late, so a warning names it.
_threads = os.environ.get("CIRCSCATTER_THREADS")
if _threads:
    _blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    _late = [v for v in _blas_vars if os.environ.get(v) != _threads]
    if _late and "numpy" in sys.modules:
        warnings.warn(
            f"CIRCSCATTER_THREADS={_threads} does not reach {', '.join(_late)}: "
            "numpy was imported before circscatter and its BLAS has already read "
            "them; import circscatter first, or set them before Python starts",
            RuntimeWarning)
    for _var in _blas_vars:
        os.environ.setdefault(_var, _threads)

from .errors import (
    CircScatterError,
    DegenerateShapeError,
    FormatError,
    LayoutError,
    NumericError,
    SamplingStuckError,
    ValidationError,
)
from .geometry import (
    BoundaryShape,
    ScatterConfig,
    ShapeClass,
    boundary_discrepancy,
    boundary_grid,
    eval_curve,
    sample_shape,
    validate_shape,
)

__version__ = "0.1.0"
