"""Watch n x 2 systems collapse onto two perpendicular axes.

Rows with two columns are points on the circle, and the pairwise update
has a clean geometric reading: row j jumps to whichever point a quarter
turn from row i is on its side.  Angles mod pi/2 then evolve as a voter
model, so the fourth-moment order parameter |mean exp(4 i theta)| climbs
from near 0 to 1 as the ensemble reaches consensus.
"""

import numpy as np

from kacwalk import (
    WalkConfig,
    order_parameter_4,
    random_circle_ensemble,
    run_circle_walk,
    run_walk,
)
from kacwalk.walk import LinearSystem

N_POINTS = 150
STEPS = 60000
SEED = 12


def main():
    ens0 = random_circle_ensemble(N_POINTS, seed=SEED)
    final, trace, skipped = run_circle_walk(
        ens0, steps=STEPS, seed=SEED, sample_every=STEPS // 12
    )

    print(f"{N_POINTS} points on the circle, {STEPS} steps, seed {SEED}")
    print(f"{'k':>7} {'order_4':>9}")
    for k, r4 in trace:
        print(f"{k:>7d} {r4:>9.5f}")
    print(f"skipped (already aligned) steps: {skipped}")

    # The same trajectory expressed as a matrix walk on unit rows in R^2.
    A = ens0.to_matrix()
    system = LinearSystem(A, np.zeros(N_POINTS))
    walked, _, _ = run_walk(system, WalkConfig(seed=SEED, steps=2000))
    twin = run_circle_walk(ens0, steps=2000, seed=SEED)[0]
    gap = np.abs(walked.A - twin.to_matrix()).max()
    print(f"\nmatrix walk vs angle walk after 2000 steps: max gap {gap:.2e}")
    print(f"final order_4 = {order_parameter_4(final):.6f}")


if __name__ == "__main__":
    main()
