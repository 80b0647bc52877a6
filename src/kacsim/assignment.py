"""Optimal index pairing between two velocity configurations.

The coupled dynamics acts on particle slots, so before starting a coupled
run the two initial configurations are aligned by the permutation that
minimizes the summed squared distance between paired velocities.  The
minimization is a linear sum assignment problem.  This module builds and
checks the cost matrix; the search is ``_engine.assign``, the shortest
augmenting path solver of scipy.optimize.linear_sum_assignment in the
engine's C library, with the same duals, arithmetic and tie rule, scanned
in column order (and scipy's loop in numpy as its fallback), so it returns
scipy's permutation without loading scipy.
"""

from __future__ import annotations

import numpy as np

from . import _engine
from .geometry import _weighted_dots

__all__ = ["SizeLimit", "pairing_cost", "solve_assignment", "optimal_pairing",
           "sym_distance"]

MAX_ASSIGNMENT_SIZE = 4096


class SizeLimit(ValueError):
    """Problem too large for the dense assignment solver."""


def _check_size(n):
    """``n`` once the dense solver, which is cubic, takes n rows."""
    if n > MAX_ASSIGNMENT_SIZE:
        raise SizeLimit(f"need n <= {MAX_ASSIGNMENT_SIZE} rows for the dense "
                        f"assignment solver, got {n}")
    return n


def pairing_cost(u, v):
    """Dense cost matrix C[i, j] = |u_i - v_j|^2.

    Expanded as |u_i|^2 + |v_j|^2 - 2 u_i . v_j so the pairwise term is a
    single matrix product.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
        raise ValueError(f"incompatible shapes {u.shape} and {v.shape}")
    uu = np.einsum("id,id->i", u, u)
    vv = np.einsum("jd,jd->j", v, v)
    cost = uu[:, None] + vv[None, :] - 2.0 * (u @ v.T)
    np.maximum(cost, 0.0, out=cost)
    return cost


def solve_assignment(cost):
    """Permutation sigma minimizing sum_i cost[i, sigma[i]].

    Returns (permutation, total_cost).  Raises SizeLimit beyond
    MAX_ASSIGNMENT_SIZE rows (``_check_size``).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got {cost.shape}")
    n = _check_size(cost.shape[0])
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix has non-finite entries")
    perm = _engine.assign(cost)
    return perm, float(cost[np.arange(n), perm].sum())


def optimal_pairing(u, v):
    """Permutation sigma minimizing sum_i |u_i - v_sigma(i)|^2."""
    perm, _ = solve_assignment(pairing_cost(u, v))
    return perm


def sym_distance(u, v):
    """Permutation-symmetrized configuration distance.

    The root mean squared distance under the best pairing::

        d_sym(u, v) = min_sigma ( (1/n) sum_i |u_i - v_sigma(i)|^2 )^(1/2)

    This is a metric on configurations modulo relabeling: it is symmetric,
    vanishes exactly on permuted copies, and inherits the triangle
    inequality from the slotwise L^2 distance.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"incompatible shapes {u.shape} and {v.shape}")
    perm, _ = solve_assignment(pairing_cost(u, v))
    # re-evaluate the matched cost from the raw differences: the Gram
    # expansion used for the solve loses ~1e-15 per entry to cancellation,
    # which would put permuted copies at ~1e-8 instead of 0
    diff = (u - v[perm])[None]
    n = u.shape[0]
    return float(np.sqrt(_weighted_dots(diff, diff, np.full(n, 1.0 / n))[0]))
