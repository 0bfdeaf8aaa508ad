"""Integrate the crowd-limit density equation and fit its mode decay.

In the many-point limit the circle dynamics transports mass from two
quarter-turn sources, and small perturbations of the uniform density
decay mode by mode at rate 1 - cos(k pi/2) - 2 sin(k pi/2) / (pi k):
mode 1 relaxes at 1 - 2/pi, mode 2 at 2, mode 3 at 1 + 2/(3 pi), and
mode 4 sits exactly still.  The demo fits each rate from an RK4
trajectory and checks mass conservation.
"""

import math

from kacwalk import (
    cosine_grid,
    fourier_decay_rate,
    meanfield_integrate,
    meanfield_rhs,
    mode_amplitude,
)

N = 256
DT = 0.005
T_END = 8.0


def main():
    print(f"grid N = {N}, dt = {DT}, horizon t = {T_END}")
    print(f"{'mode':>5} {'fitted rate':>12} {'limit rate':>12}")
    for mode in (1, 2, 3):
        fitted = fourier_decay_rate(cosine_grid(N, mode, 1e-3), mode, T_END, DT)
        half = mode * math.pi / 2.0
        exact = 1.0 - math.cos(half) - 2.0 * math.sin(half) / (math.pi * mode)
        print(f"{mode:>5d} {fitted:>12.6f} {exact:>12.6f}")

    g4 = cosine_grid(N, 4, 1e-3)
    drift = abs(meanfield_rhs(g4)).max()
    a0 = mode_amplitude(g4, 4)
    g4_end = meanfield_integrate(g4, T_END, DT)
    print(f"\nmode 4 is a steady state: |rhs| <= {drift:.2e}")
    print(f"mode-4 amplitude {a0:.6e} -> {mode_amplitude(g4_end, 4):.6e}")

    g1 = cosine_grid(N, 1, 1e-3)
    g1_end = meanfield_integrate(g1, T_END, DT)
    print(f"mass after t = {T_END}: {g1_end.mass():.15f}")


if __name__ == "__main__":
    main()
