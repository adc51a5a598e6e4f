"""Automata as continuous self-maps of the p-adic integers.

Transducers over {0..p-1} realize continuous (n-unit delay) maps on the
p-adic integers.  This package extracts their Mahler coefficients,
decides the delay / measure-preservation / ergodicity coefficient
conditions, cross-validates every verdict against brute-force oracles on
finite quotients (fiber counts and cycle counts), and probes
geometric image density by exact box counting.
"""

__version__ = "0.1.0"
