# circscatter applies CIRCSCATTER_THREADS to the BLAS environment
# variables at import, which numpy's BLAS reads only when numpy first
# loads; importing it here, before any test module imports numpy, lets
# the cap hold for the whole session.
import circscatter  # noqa: F401
