"""Benchmark workloads: seed -> `splitdg run` config, plus output tolerances.

Each workload is a fixed `splitdg run` configuration.  The seed draws three
parameters from narrow ranges: the case amplitude, the advection velocity
(a common scale on the case's velocity vector) and the mesh warp
amplitude.  The solver only ever sees the resulting config JSON.

The ranges are narrow on purpose: the end-to-end metrics are compared
across seeds, so the inputs must not move them by more than run-to-run
noise.  Over the whole box of ranges the initial CFL time step moves by
about 1 %, and each ``final_time`` is set to (steps - 1/2) nominal time
steps, so every seed in the range takes the same number of steps.

Why each workload exists is recorded in NOTES.md next to this file.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    degree: int
    cells: int
    boundary: str
    reynolds: float | None
    amplitude: float          # nominal case amplitude
    velocity: tuple           # nominal case velocity vector
    final_time: float         # (steps - 1/2) nominal time steps
    monitor_interval: int
    l2_rho_tol: float         # density L2 error bound checked on every run
    warp: float = 0.05        # nominal warped_box amplitude

    @property
    def periodic(self):
        return self.boundary == "periodic"

    @property
    def elements(self):
        return self.cells ** 3

    @property
    def dofs(self):
        return self.elements * (self.degree + 1) ** 3


# Relative half-widths of the seed ranges.
AMPLITUDE_SPREAD = 0.005
VELOCITY_SPREAD = 0.01
WARP_SPREAD = 0.005

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="euler_n4", case="density_wave", degree=4, cells=4,
            boundary="periodic", reynolds=None,
            amplitude=0.3, velocity=(1.0, 1.0, 1.0),
            final_time=0.0151,  # 20 steps
            monitor_interval=1,
            l2_rho_tol=3.0e-4),
        Workload(
            name="ns_n3_dirichlet", case="manufactured", degree=3, cells=6,
            boundary="dirichlet", reynolds=100.0,
            amplitude=0.1, velocity=(0.7, 0.4, 0.2),
            final_time=0.00984,  # 10 steps
            monitor_interval=1000,
            l2_rho_tol=1.5e-4),
        Workload(
            name="euler_n7_short", case="density_wave", degree=7, cells=3,
            boundary="periodic", reynolds=None,
            amplitude=0.3, velocity=(1.0, 1.0, 1.0),
            final_time=0.00182,  # 5 steps
            monitor_interval=1,
            l2_rho_tol=2.0e-6),
    )
}


def draw_parameters(workload, seed):
    """The seed-drawn inputs of one run: same (workload, seed), same values."""
    rng = random.Random(f"{workload.name}:{seed}")
    amplitude = workload.amplitude * rng.uniform(1 - AMPLITUDE_SPREAD, 1 + AMPLITUDE_SPREAD)
    scale = rng.uniform(1 - VELOCITY_SPREAD, 1 + VELOCITY_SPREAD)
    warp = workload.warp * rng.uniform(1 - WARP_SPREAD, 1 + WARP_SPREAD)
    return {
        "amplitude": amplitude,
        "velocity": [scale * v for v in workload.velocity],
        "warp": warp,
    }


def make_config(workload, seed):
    """The RunConfig dict handed to `splitdg run` for this workload and seed."""
    drawn = draw_parameters(workload, seed)
    config = {
        "case": workload.case,
        "case_params": {"amplitude": drawn["amplitude"], "velocity": drawn["velocity"]},
        "mesh": {"builtin": "warped_box", "cells": [workload.cells] * 3,
                 "amplitude": drawn["warp"]},
        "degree": workload.degree,
        "volume_flux": "ec",
        "surface_dissipation": "llf",
        "cfl": 0.4,
        "final_time": workload.final_time,
        "monitor_interval": workload.monitor_interval,
        "boundary": workload.boundary,
        "case_name": workload.name,
    }
    if workload.reynolds is not None:
        config["gas"] = {"reynolds": workload.reynolds}
    return config


def computed_counts(elements, degree, interior_faces, boundary_faces):
    """Kernel work per residual evaluation, computed from K and N (not measured).

    The volume kernel evaluates the two-point flux on 3 K (N+1)^4 node pairs
    and, per reference axis, holds a (3, 5, K, (N+1)^4) float64 flux array.
    """
    n1 = degree + 1
    pairs_per_axis = elements * n1 ** 4
    return {
        "volume_pair_evals": 3 * pairs_per_axis,
        "volume_flux_array_bytes": 3 * 5 * pairs_per_axis * 8,
        "interior_face_nodes": interior_faces * n1 ** 2,
        "boundary_face_nodes": boundary_faces * n1 ** 2,
        "dofs": elements * n1 ** 3,
    }
