"""Indoor signal surveying from pedestrian dead reckoning.

A two-pass particle filter turns a noisy step log into a
floorplan-consistent walk, magnetic loop closures tie revisits
together, and Gaussian-process signal maps are fitted along the
recovered trajectory.
"""

__version__ = "0.1.0"
