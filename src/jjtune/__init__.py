"""jjtune: digital twin and closed-loop planning for laser-trimmed junctions.

Modules:
- physics: resistance <-> frequency <-> critical current maps
- fitkit: deterministic damped least-squares fitting
- dose: laser dose response and stochastic anneal shots
- aging: storage drift curves and offset preservation
- tls: defect spectroscopy maps, Stark calibration, coherence statistics
- wafer: registration, alignment QC, batch runs
- tuner: closed-loop retuning and target allocation
- cli: the ``jjtune`` command
"""

from .aging import *
from .dose import *
from .errors import *
from .fitkit import *
from .physics import *
from .streams import *
from .tls import *
from .tuner import *
from .wafer import *

__version__ = "0.1.0"
