"""Precondition a Kaczmarz solve by walking the rows first.

The row-sampling Kaczmarz iteration contracts the error in expectation by
(1 - sigma_min^2 / m) per step, so anything that lifts sigma_min buys
faster convergence.  Spending a budget of pairwise walk steps before
solving does exactly that while keeping the solution set fixed.  The demo
solves the same system raw and preconditioned and compares the traces.
"""

import numpy as np

from kacwalk import (
    SolveConfig,
    WalkConfig,
    gaussian_system,
    kaczmarz_solve,
    run_walk,
)

N = 80
WALK_STEPS = 16000
SEED = 3


def iters_to(trace, level):
    hit = np.nonzero(trace.error_sq <= level)[0]
    return int(trace.iters[hit[0]]) if hit.size else None


def main():
    system = gaussian_system(N, N, seed=SEED)
    config = SolveConfig(
        seed=SEED, max_iters=400_000, target_residual=1e-8, record_every=500
    )
    walked, _, snaps = run_walk(system, WalkConfig(
        seed=SEED, steps=WALK_STEPS, snapshot_every=WALK_STEPS))
    _, trace_raw = kaczmarz_solve(system, np.zeros(N), config)
    _, trace_pre = kaczmarz_solve(walked, np.zeros(N), config)

    print(f"kaczmarz on {N}x{N}, walk budget {WALK_STEPS}, seed {SEED}")
    print(f"sigma_min before walk: {snaps[0].sigmas[-1]:.5f}")
    print(f"sigma_min after walk:  {snaps[-1].sigmas[-1]:.5f}")

    for level in (1e-2, 1e-6, 1e-10):
        raw = iters_to(trace_raw, level)
        pre = iters_to(trace_pre, level)
        raw_s = "never" if raw is None else f"{raw:>8d}"
        pre_s = "never" if pre is None else f"{pre:>8d}"
        print(f"iters to error^2 <= {level:.0e}:  raw {raw_s}   walked {pre_s}")

    print(f"raw solve converged:    {trace_raw.converged}")
    print(f"walked solve converged: {trace_pre.converged}")


if __name__ == "__main__":
    main()
