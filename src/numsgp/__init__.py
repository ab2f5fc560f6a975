"""Numerical semigroups with largest minimal generator 2g + 1.

Core invariants (:mod:`numsgp.core`), the max-generated constructions and
inequalities (:mod:`numsgp.maxgen`), the checked properties
(:mod:`numsgp.properties`), genus-tree enumeration (:mod:`numsgp.tree`),
and exhaustive verification campaigns (:mod:`numsgp.campaign`).  The
``numsgp`` console script fronts all of it.
"""

from .core import Semigroup, from_generators
from .errors import SemigroupError

__version__ = "0.1.0"

__all__ = [
    "Semigroup",
    "SemigroupError",
    "from_generators",
    "__version__",
]
