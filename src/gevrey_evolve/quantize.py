"""Quantization of sampled symbols and the dense-matrix oracle.

A symbol table holds p(x_j, xi_k) on the grid's node/frequency lattices.
Quantization is the left (Kohn-Nirenberg) rule

    (p(x, D) u)(x_j) = (1/sqrt N) sum_k e^{i xi_k x_j} p(x_j, xi_k) u_hat_k,

realized either directly (apply) or as a dense matrix on node values
(to_dense).  The dense realization is exact for the discrete problem, so it
anchors every asymptotic claim made by the composition and conjugation
expansions: whatever an expansion predicts must match the dense product or
dense conjugation on the resolved band.

x-derivatives of tables are spectral; xi-derivatives use finite differences
on the uniform frequency lattice (the Nyquist column is excluded).
"""

from dataclasses import dataclass, replace

import numpy as np

from ._stencil import diff_uniform
from .errors import ParameterError, ShapeError
from .grid import Grid

EXP_GUARD = 700.0  # log-scale overflow guard for entrywise exponentials


@dataclass(frozen=True)
class SymbolTable:
    """Samples p(x_j, xi_k) of a symbol at one time; Nyquist column zero."""

    grid: Grid
    values: np.ndarray          # shape (N, N) complex, [x-index, xi-index]
    order: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.N, self.grid.N):
            raise ShapeError(f"table shape {v.shape} does not match grid N={self.grid.N}")
        v = v.copy()
        v[:, self.grid.nyquist] = 0.0
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        if isinstance(other, SymbolTable):
            self._same_grid(other)
            return SymbolTable(self.grid, self.values + other.values,
                               max(self.order, other.order))
        return SymbolTable(self.grid, self.values + other, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, SymbolTable):
            self._same_grid(other)
            return SymbolTable(self.grid, self.values * other.values,
                               self.order + other.order)
        return SymbolTable(self.grid, self.values * other, self.order)

    __rmul__ = __mul__

    def _same_grid(self, other):
        if other.grid != self.grid:
            raise ShapeError("tables live on different grids")

    @property
    def real(self):
        return SymbolTable(self.grid, self.values.real.astype(complex), self.order)

    @property
    def imag(self):
        return SymbolTable(self.grid, self.values.imag.astype(complex), self.order)

    def conj(self):
        return SymbolTable(self.grid, np.conj(self.values), self.order)

    def with_order(self, order):
        return replace(self, order=order)


def table_from_function(grid, fn, order=0.0):
    """Sample fn(x, xi) on the grid lattice (broadcasting evaluator)."""
    vals = np.asarray(fn(grid.x[:, None], grid.xi[None, :]), dtype=complex)
    vals = np.broadcast_to(vals, (grid.N, grid.N))
    return SymbolTable(grid, vals, order)


def multiplier_table(grid, values_xi, order=0.0):
    """Table of an x-independent symbol given its values on the xi lattice."""
    row = np.asarray(values_xi, dtype=complex)
    return SymbolTable(grid, np.tile(row, (grid.N, 1)), order)


def apply(p: SymbolTable, u):
    """Apply the quantized operator to node values; O(N^2)."""
    g = p.grid
    u_hat = g.forward(u)
    E = g.synthesis_matrix()
    return (E * p.values) @ u_hat


def to_dense(p: SymbolTable):
    """Dense matrix M acting on node values with M @ u == apply(p, u)."""
    g = p.grid
    E = g.synthesis_matrix()
    # forward matrix is E^H (unitary pair)
    return (E * p.values) @ E.conj().T


def adjoint(A):
    """L^2 adjoint in the node basis (uniform weights: conjugate transpose)."""
    return np.conj(np.asarray(A)).T


def operator_norm(A):
    """Spectral norm."""
    return float(np.linalg.norm(np.asarray(A), 2))


def band_projector(grid, fraction=0.5):
    """Dense projector onto fields supported in the resolved band."""
    E = grid.synthesis_matrix()
    mask = grid.band_mask(fraction).astype(float)
    return (E * mask[None, :]) @ E.conj().T


def band_relative_error(A, B, grid, fraction=0.5):
    """|| (A - B) P || / || A P || with P the resolved-band projector."""
    P = band_projector(grid, fraction)
    denom = operator_norm(A @ P)
    if denom == 0.0:
        return operator_norm((A - B) @ P)
    return operator_norm((A - B) @ P) / denom


def representable_error(A, B, grid, domain_cap, fraction=0.5,
                        x_window=(0.45, 0.6)):
    """Relative operator distance on representable states: frequency-limited
    to the resolved band and supported away from the periodic seam.

    The phase weights are monotone through the coefficient region, so their
    periodization necessarily jumps at the seam; the jump produces an
    x-localized boundary commutator in dense conjugations that no symbol
    assembly models.  Comparisons therefore sandwich both operators between
    the band projector and a smooth interior window.
    """
    from .weights import plateau
    P = band_projector(grid, fraction)
    lo, hi = x_window
    w = plateau(np.sqrt(1.0 + np.square(grid.x)), lo * domain_cap,
                hi * domain_cap).astype(complex)
    W = np.diag(w)
    denom = operator_norm(W @ A @ P @ W)
    num = operator_norm(W @ (A - B) @ P @ W)
    return num / denom if denom > 0 else num


def xi_derivative(p: SymbolTable, order=1, accuracy=4):
    """d^order/dxi^order of a table by finite differences on the xi lattice.

    Works on the monotone (fftshifted) lattice with the Nyquist sample
    excluded so the zeroed column cannot contaminate its neighbours.
    """
    g = p.grid
    shifted = np.fft.fftshift(p.values, axes=1)  # column 0 is the Nyquist mode
    body = shifted[:, 1:]
    dbody = diff_uniform(body, g.dxi, order, axis=1, accuracy=accuracy)
    out = np.zeros_like(shifted)
    out[:, 1:] = dbody
    return SymbolTable(g, np.fft.ifftshift(out, axes=1), p.order - order)


def x_derivative(p: SymbolTable, order=1):
    """d^order/dx^order of a table by spectral differentiation per column."""
    g = p.grid
    u_hat = g._phase[:, None] * np.fft.fft(p.values, axis=0, norm="ortho")
    mult = (1j * g.xi) ** order
    mult[g.nyquist] = 0.0
    vals = np.fft.ifft(mult[:, None] * u_hat / g._phase[:, None], axis=0, norm="ortho")
    return SymbolTable(g, vals, p.order)


def dx_operator(p: SymbolTable, order=1):
    """D_x^order = (-i d/dx)^order of a table."""
    out = x_derivative(p, order)
    return SymbolTable(out.grid, (-1j) ** order * out.values, out.order)


def exp_table(p: SymbolTable):
    """Entrywise exponential of a real-valued table."""
    vals = p.values.real
    m = float(np.max(vals))
    if m > EXP_GUARD:
        raise ParameterError(
            f"exponent reaches {m:.1f} > {EXP_GUARD}; reduce the phase strength "
            "(smaller k0 or weight constants)")
    return SymbolTable(p.grid, np.exp(vals).astype(complex), 0.0)


def compose_expansion(p: SymbolTable, q: SymbolTable, n_trunc: int):
    """Truncated composition symbol sum_{a<n_trunc} (1/a!) d_xi^a p * D_x^a q."""
    if n_trunc < 1 or n_trunc > 8:
        raise ParameterError("n_trunc must be in 1..8")
    p._same_grid(q)
    from math import factorial
    total = p * q
    for a in range(1, n_trunc):
        term = xi_derivative(p, a) * dx_operator(q, a)
        total = total + term * (1.0 / factorial(a))
    return total.with_order(p.order + q.order)
