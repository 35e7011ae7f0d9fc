"""Low-rank cross approximation of kernel interaction matrices between
planar point clouds, with geometry-aided pivot selection, reference
oracles and a statistical benchmark harness."""
from ._version import __version__
