"""Spectral verification toolkit for the clique-eigenvalue gap inequality.

The package exports ``__version__`` and the names of the README's round
trip; everything else is imported from its submodule.
"""

from .graphs import PartSizes
from .multipartite import multipartite_spectrum
from .conjecture import bn_report_multipartite

__version__ = "0.1.0"
