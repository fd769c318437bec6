"""Exact double-entry bookkeeping on the group of differences.

T-accounts are ordered pairs of unsigned integer vectors; with side-by-side
addition and cross-sum equality they form a commutative group, and the
whole double-entry cycle (encode an equation, journal transactions, post,
trial-balance, reduce, decode) is plain group arithmetic in it.  The same
machinery runs unchanged over vectors of physical quantities, values back
to scalars through exact price vectors, and maps onto the equivalent
signed single-sided system.
"""

from . import algebra, fileformat, fractions, ledger, sss, table, valuation
from .algebra import *
from .fractions import *
from .ledger import *
from .sss import *
from .table import *
from .valuation import *
from .fileformat import *

__version__ = "0.1.0"

__all__ = [
    *algebra.__all__,
    *fractions.__all__,
    *ledger.__all__,
    *sss.__all__,
    *table.__all__,
    *valuation.__all__,
    *fileformat.__all__,
    "__version__",
]
