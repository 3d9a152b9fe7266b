"""Block designs over infinite Fort spaces.

Decide whether a design of a given type exists for symbolic subset shapes C
and D, name a multiplicity and a witness block family, and check both
against two executable oracles: a countable concrete model with explicit
point maps, and a finite discrete brute-force counter.
"""

from . import cardinal, concrete, descriptors, designs, finitebrute
from .cardinal import *
from .concrete import *
from .descriptors import *
from .designs import *
from .finitebrute import *

__all__ = []
__all__ += cardinal.__all__
__all__ += concrete.__all__
__all__ += descriptors.__all__
__all__ += designs.__all__
__all__ += finitebrute.__all__
