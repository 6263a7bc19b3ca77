"""Degeneracy-aware point-to-plane registration.

Detects directions of the 6-DoF perturbation space where geometry carries no
usable signal relative to sensor noise, and attenuates ICP updates there.
The package re-exports each module's public names.
"""

from .degeneracy import *
from .errors import *
from .geometry import *
from .normals import *
from .registration import *
from .simulation import *

__version__ = "0.1.0"
