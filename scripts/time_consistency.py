#!/usr/bin/env python3
"""Time-consistency study: final-state L2 gaps between halved time steps.

    python3 scripts/time_consistency.py

Runs the log/log K=L=1 bubbles case on the 32x8 mesh at tau = 4e-4, 2e-4,
1e-4 to T = 8e-3 and prints the bulk L2 gap between consecutive levels; a
ratio near 2 means first order in time.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bscch import (  # noqa: E402
    CouplingParams,
    InitialDataSpec,
    Potential,
    RunConfig,
    RunParams,
    generate_disk_mesh,
    run,
)


def main():
    log = Potential("log")
    base = RunParams(
        tau=4e-4, t_final=8e-3, eps=0.05,
        coupling=CouplingParams(K=1.0, L=1.0, alpha=1.0, beta=1.0),
        pot_bulk=log, pot_surf=log,
        init=InitialDataSpec(mode="bubbles"),
    )
    taus = [4e-4, 2e-4, 1e-4]
    mesh = generate_disk_mesh(32, 8)
    results = [run(RunConfig(nb=32, nr=8, params=replace(base, tau=tau), keep_states=False),
                   mesh=mesh) for tau in taus]
    M = results[0].forms.M_bulk
    gaps = []
    for a, b in zip(results, results[1:]):
        d = a.final_state.phi - b.final_state.phi
        gaps.append(float(np.sqrt(d @ (M @ d))))
    print("time consistency, final-state L2 gaps between tau levels:")
    for tau, g in zip(taus, gaps):
        print(f"  tau={tau:g} vs tau/2: {g:.4e}")
    print(f"  ratio {gaps[0] / gaps[1]:.2f} (first order ~ 2)")


if __name__ == "__main__":
    main()
