"""Linear complementary dual evaluation codes on Kummer-type curves.

Exact finite-field arithmetic, divisor and Riemann-Roch machinery,
Weierstrass semigroup generating sets, explicit non-special divisors of
degrees g and g-1, and the LCD code constructions built from them, all at
desk scale with brute-force cross checks.
"""

# each module's __all__ declares its public names; the package re-exports them
from .gf import *
from .curves import *
from .functions import *
from .semigroup import *
from .codes import *

__version__ = "0.1.0"
