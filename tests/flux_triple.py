"""Test-side Cartesian triple of a two-point flux, built on its ``evaluate``."""

import numpy as np


def cartesian_triple(flux, u_left, u_right, gas):
    """F#(u_L, u_R) along each unit vector, shape (3, 5, ...)."""
    left, right = flux.prepare(u_left, gas), flux.prepare(u_right, gas)
    return np.stack([flux.evaluate(left, right, e, gas) for e in np.eye(3)])
