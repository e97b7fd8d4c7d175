"""equivarlab: equivariant harmonic maps, twisted Hodge theory and the
energy functional on representation varieties, at desk scale."""

__version__ = "0.1.0"
