"""Automata as continuous self-maps of the p-adic integers.

Transducers over {0..p-1} realize continuous (n-unit delay) maps on the
p-adic integers.  This package extracts their Mahler coefficients,
decides the delay / measure-preservation / ergodicity coefficient
conditions, cross-validates every verdict against brute-force oracles on
finite quotients (fiber counts and cycle counts), and probes
geometric image density by exact box counting.
"""

from .errors import BudgetExceededError, FormatError, PrecisionError
from .geometry import family_transitivity
from .mahler import (
    CheckStatus,
    ConditionReport,
    MahlerSeries,
    check_delay_conditions,
    check_ergodicity_conditions,
    check_measure_preserving_conditions,
    coeffs_from_oracle,
    series_oracle,
)
from .oracle import FunctionOracle
from .padics import valuation
from .quotient import cycle_count, is_measure_preserving_upto, unique_cycle_upto
from .transducer import (
    Transducer,
    delay_profile,
    function_of,
    reachable_states,
)

__version__ = "0.1.0"
