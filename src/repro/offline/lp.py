"""LP-based machinery: fractional lower bounds and randomized rounding.

The fractional optimum of the covering LP

    min sum_r x_r   s.t.  sum_{r : e in r} x_r >= 1  for all e,  x >= 0

lower-bounds every integral cover, which makes it a cheap optimality
certificate for instances too large for branch-and-bound.  The rounding
solver gives an O(log n)-approximation with a different constant profile
than greedy, used in the offline-solver ablation (experiment E9).
"""

from __future__ import annotations

import numpy as np

from repro.offline.base import InfeasibleInstanceError, OfflineSolver
from repro.setsystem.set_system import SetSystem
from repro.setsystem.operations import greedy_completion
from repro.utils.mathutil import harmonic
from repro.utils.rng import as_generator

__all__ = ["fractional_optimum", "LPRoundingSolver"]


def _constraint_matrix(system: SetSystem) -> np.ndarray:
    matrix = np.zeros((system.n, system.m))
    for set_id, r in enumerate(system.sets):
        for element in r:
            matrix[element, set_id] = 1.0
    return matrix


def fractional_optimum(system: SetSystem) -> tuple[float, np.ndarray]:
    """Solve the covering LP; return (optimal value, fractional solution).

    Raises :class:`InfeasibleInstanceError` on infeasible instances.
    """
    if system.n == 0:
        return 0.0, np.zeros(system.m)
    if not system.is_feasible():
        raise InfeasibleInstanceError("family does not cover the ground set")
    from scipy.optimize import linprog  # heavy; only the LP paths need it

    matrix = _constraint_matrix(system)
    result = linprog(
        c=np.ones(system.m),
        A_ub=-matrix,
        b_ub=-np.ones(system.n),
        bounds=[(0.0, 1.0)] * system.m,
        method="highs",
    )
    if not result.success:  # pragma: no cover - HiGHS is reliable on these LPs
        raise RuntimeError(f"LP solver failed: {result.message}")
    return float(result.fun), np.asarray(result.x)


class LPRoundingSolver(OfflineSolver):
    """Randomized-rounding set cover (rho = O(log n)).

    Each set is picked independently with probability
    ``min(1, x_r * scale)`` where ``scale = ln(n) + 1``; any leftover
    elements are patched greedily.  Expectation arguments give an
    O(log n)-approximation; the greedy patch keeps the output always
    feasible.
    """

    name = "lp-rounding"

    def __init__(self, seed: "int | np.random.Generator | None" = 0):
        self._rng = as_generator(seed)

    def solve(self, system: SetSystem) -> list[int]:
        if system.n == 0:
            return []
        _, fractional = fractional_optimum(system)
        scale = float(np.log(max(system.n, 2))) + 1.0
        probabilities = np.minimum(1.0, fractional * scale)
        draws = self._rng.random(system.m) < probabilities
        chosen = [set_id for set_id in range(system.m) if draws[set_id]]
        return greedy_completion(system, chosen)

    def rho(self, n: int) -> float:
        return harmonic(max(n, 1))
