"""Finite-window combinatorics of paradoxical decompositions.

Layered Hall-preserving matchings, doubling graphs of group actions,
piece-table extraction with deep-interior certificates, and the derived
tree dynamics (matching transfer, cycle surgery, staged free actions),
all at finite or lazily windowed scale.

The package root exports only __version__; import paradecomp.<module>.
"""

__version__ = "0.1.0"
