"""Numerical laboratory for blow-up and lifespan scaling of weakly coupled
damped wave systems on the exterior of the unit ball."""

__version__ = "0.1.0"
