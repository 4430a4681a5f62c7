"""The composition expansion, the reference of acceptance criterion 2.

No run composes two symbols, so the expansion lives with the tests that
check it against the dense product op(p) op(q) on the resolved band.
"""

from math import factorial

from gevrey_evolve.errors import ParameterError
from gevrey_evolve.quantize import (band_projector, dx_operators,
                                    operator_norm, xi_derivative)


def compose_expansion(p, q, n_trunc):
    """Truncated composition symbol sum_{a<n_trunc} (1/a!) d_xi^a p * D_x^a q."""
    if n_trunc < 1 or n_trunc > 8:
        raise ParameterError("n_trunc must be in 1..8")
    p._same_grid(q)
    total = p * q
    dxq = dx_operators(q)
    for a in range(1, n_trunc):
        total = total + xi_derivative(p, a) * dxq(a) * (1.0 / factorial(a))
    return total


def band_relative_error(A, B, grid):
    """|| (A - B) P || / || A P || with P the resolved-band projector."""
    P = band_projector(grid)
    denom = operator_norm(A @ P)
    if denom == 0.0:
        return operator_norm((A - B) @ P)
    return operator_norm((A - B) @ P) / denom
