"""Audit the one-step expansion bounds on small random systems.

For unit-row A and any x, the average of ||phi(A) x||^2 over all
m (m - 1) ordered row pairs, E, can never sit below either of

    ||A x||^2 + 2 (||A x||^2 - ||A^T A x||^2) / (m (m - 1))   (the bound)
    ||A x||^2 + (S + S2) / (m (m - 1))                        (refined)

where S is the pair sum with the 1/(1 - c^2) amplification dropped and
S2 the first correction recovered from 1/(1 - t) >= 1 + t.  The oracle
computes E, S and S2 in closed form (no pair is enumerated or sampled),
the refined column is the gap ``kkw theorem_audit`` reports as
worst_refined_gap, and the demo prints the worst slack of both over a
batch of random instances.
"""

import numpy as np

from kacwalk import expected_gain_exact, normalize_rows

SHAPES = [(4, 4), (6, 6), (5, 4), (8, 3), (10, 7)]
TRIALS = 40


def main():
    rng = np.random.default_rng(11)
    worst = np.inf
    worst_case = None
    print(f"{'shape':>8} {'min gap':>12} {'min refined':>12} {'min sigma2':>12}")
    for m, n in SHAPES:
        gap_min = ref_min = s2_min = np.inf
        for _ in range(TRIALS):
            A = normalize_rows(rng.standard_normal((m, n)))
            x = rng.standard_normal(n)
            rep = expected_gain_exact(A, x)
            pairs = m * (m - 1)
            gap = rep.expected_norm_sq - rep.bound_rhs
            refined = rep.expected_norm_sq - (
                rep.base_norm_sq + (rep.sigma_sum + rep.sigma2_sum) / pairs
            )
            gap_min = min(gap_min, gap)
            ref_min = min(ref_min, refined)
            s2_min = min(s2_min, rep.sigma2_sum)
            if gap < worst:
                worst, worst_case = gap, (m, n)
        print(f"{m:>4}x{n:<3} {gap_min:>12.3e} {ref_min:>12.3e} {s2_min:>12.3e}")
    print(f"\nworst slack {worst:.3e} at shape {worst_case[0]}x{worst_case[1]}")
    print("every gap above is >= 0 up to rounding, as both bounds demand")


if __name__ == "__main__":
    main()
