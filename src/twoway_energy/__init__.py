"""Rate bounds and protocol simulation for a two-way binary noiseless
channel whose nodes share a fixed pool of exchangeable energy units.

Sending "1" costs the sender one unit, which the receiver harvests; a
node without energy can only send "0". The package computes the
achievable rates of independent per-level codebooks, an outer bound
from correlated per-state symbol distributions, and Monte Carlo
validation of the achievable coding scheme, plus the three single-unit
strategies.

Each module lists its public names in its own __all__; the package
re-exports them all.
"""

from .entropy import *
from .chain import *
from .search import *
from .inner import *
from .outer import *
from .protocol import *

__version__ = "0.1.0"

# Each `from .module import *` above also binds the module itself here.
__all__ = ["__version__"]
__all__ += entropy.__all__
__all__ += chain.__all__
__all__ += search.__all__
__all__ += inner.__all__
__all__ += outer.__all__
__all__ += protocol.__all__
