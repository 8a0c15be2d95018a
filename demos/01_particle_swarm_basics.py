"""Walk through the particle-swarm maximizer on a simple multimodal surface.

Run with: python demos/01_particle_swarm_basics.py
"""

import numpy as np

import swarmbo as sb

# A 2-D box and a rippled bowl: many local bumps, one global maximum where a
# cosine ridge lines up near the bowl center (2, -1).
space = sb.SearchSpace([
    sb.Dimension("x", sb.REAL, -5, 5),
    sb.Dimension("y", sb.REAL, -5, 5),
])


def bumpy(X):
    # run_pso passes the whole swarm as one (n, 2) batch
    r2 = (X[:, 0] - 2) ** 2 + (X[:, 1] + 1) ** 2
    return -r2 + 2.0 * np.cos(3 * X[:, 0]) * np.cos(3 * X[:, 1])


# The stock parameters follow the stability region -1 < omega < 1,
# 0 < c1 + c2 < 4(1 + omega); check_stability rejects anything outside it.
params = sb.PsoParams(omega=0.8, c1=1.85, c2=2.0, population=40, max_iters=200,
                      patience=200)
sb.check_stability(params)

result = sb.run_pso(space, params, bumpy, np.random.default_rng(0))
print(f"best position: {result.best_position}")
print(f"best value:    {result.best_fitness:.6f}")
print(f"iterations:    {len(result.trace) - 1}")

# The incumbent trace never decreases; early iterations do most of the work.
improvements = np.flatnonzero(np.diff(result.trace) > 0)
print(f"iterations that improved the global best: {len(improvements)}")
