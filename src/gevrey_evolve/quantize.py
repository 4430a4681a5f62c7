"""Quantization of sampled symbols and the dense-matrix oracle.

A symbol table holds p(x_j, xi_k) on the grid's node/frequency lattices,
as an (N, N) array, or as one (1, N) row when the symbol is x-independent:
the row stands for every x, arithmetic between tables broadcasts, and the
x-derivative of a row is the exact zero row.  Sampled values keep one row
when every row equals the first (sampled_table), so a Fourier multiplier
is stored and differentiated in O(N) (the rank-one case of a separated
symbol representation; Demanet & Ying, Discrete symbol calculus, SIAM
Rev. 2011).  That shape is the one record of an operator's variant.
A table of real-typed values is float64 and any other complex128, half the
bytes for the real symbols (the phase, its derivatives, the windows and
the damping).  Arithmetic promotes as numpy does, which rounds a real
operand exactly as its complex cast, and the kernels keep those bits: a
real table xi-differentiates to the real part of its complex cast's
derivative, and x-differentiates (through its complex spectrum) to the
complex cast's derivative.

An (N, N) table is stored column-major (x fastest): it is created so
where it is born (the SymbolTable copy, sampled_table, the derivatives,
.real and .imag), and numpy's elementwise arithmetic keeps the layout.
Both table kernels then run over contiguous memory: an x-derivative
transforms contiguous columns, and an xi-derivative gathers and scatters
its xi-major body by row copies of the transpose.  A 1-D FFT rounds alike
at any stride, so the layout changes no bit.  What the solve multiplies
(the coefficient stack, the stage matrices and every GEMM or GEMV operand)
stays row-major, so the BLAS kernels and their rounding do not change.

Quantization is the left (Kohn-Nirenberg) rule

    (p(x, D) u)(x_j) = (1/sqrt N) sum_k e^{i xi_k x_j} p(x_j, xi_k) u_hat_k,

realized on coefficients (coefficient_matrix, below) or as a dense matrix
on node values (to_dense).  The dense realization is exact for the
discrete problem, so it anchors every asymptotic claim made by the
conjugation expansion: whatever it predicts must match the dense
conjugation on the resolved band.

Every operator on Fourier coefficients is a plain array whose shape is
its variant: a Fourier row (N,), applied by product, or an N x N
coefficient matrix, applied by GEMV (one GEMM on a stack of states).
node_matrix(grid, A) is the node-value matrix of either, which only
oracles form.  The coefficient matrix of a table, E_syn^H (E_syn * p), is
one FFT along x (coefficient_matrix), and spectral_stack stacks those of
several tables.
A stage of a solve is a weighted sum over such a fixed stack, of Fourier
rows or of coefficient matrices: stage_matrices forms the stages of many
weight vectors by one real GEMM, and a solve steps on the stage arrays
themselves, a row by product and a matrix by GEMV.  The GEMM runs over
column panels of the stack (STAGE_PANEL), each written straight into its
columns of the stages: one unpanelled product streams (2J + 1) stages of
2N^2 float64 each, far more than L2 holds, and cost 1.5 times as much at
N = 256 and N = 1024.  Each element is the same dot product over the
J + 1 tables in any panel, so no bit depends on the panels.

x-derivatives of tables are spectral: a plain FFT along x, the multiplier
(i xi)^order without the Nyquist mode, and the inverse FFT.  The grid's
e^{i xi L} node offset would multiply the spectrum and divide it back
out, so it is not applied.  x_derivatives(p) and dx_operators(p) serve
every order a caller reads from one spectrum.  xi-derivatives use finite
differences on the uniform frequency lattice (the Nyquist column is
excluded).
"""

from dataclasses import dataclass

import numpy as np

from ._stencil import diff_uniform
from .errors import ParameterError, ShapeError
from .grid import Grid

EXP_GUARD = 700.0  # log-scale overflow guard for entrywise exponentials
# float64 columns per GEMM panel of stage_matrices (64 KiB a row): a batch
# of 2J + 1 = 9 stages over J + 1 = 5 tables then holds 0.9 MiB, inside a
# 2 MiB L2.  One BLAS thread, 2-CPU Xeon, ms per 9-stage batch at N = 256
# and 1024: one unpanelled GEMM 1.28 and 30.4; panels of 2048 columns
# 0.96 and 19.7, 4096 0.88 and 18.8, 8192 0.83 and 20.0, 16384 0.83 and
# 19.6, 32768 1.21 and 30.7.
STAGE_PANEL = 8192


def _table_dtype(values):
    """complex for complex-typed values, float for any other."""
    return complex if np.iscomplexobj(values) else float


@dataclass(frozen=True)
class SymbolTable:
    """Samples p(x_j, xi_k) of a symbol at one time; Nyquist column zero.
    The values are float64 when they are real-typed and complex128
    otherwise; .real and .imag are float tables.  An (N, N) table is
    column-major (order="F"), so that its x-transforms and xi-stencils read
    contiguous columns; see the module docstring."""

    grid: Grid
    values: np.ndarray          # (N, N) or one row (1, N), [x-index, xi-index]

    def __post_init__(self):
        # the caller's array is copied, column-major, and never written to
        self._own(np.array(self.values, dtype=_table_dtype(self.values),
                           order="F"))

    @classmethod
    def fresh(cls, grid, values):
        """A table over a newly computed array that nothing else holds: it
        takes the array over and zeroes its Nyquist column in place."""
        table = object.__new__(cls)
        object.__setattr__(table, "grid", grid)
        table._own(np.asarray(values, dtype=_table_dtype(values)))
        return table

    def _own(self, v):
        N = self.grid.N
        if v.shape not in ((N, N), (1, N)):
            raise ShapeError(f"table shape {v.shape} does not match grid N={N}: "
                             f"expected ({N}, {N}) or one row (1, {N})")
        v[:, self.grid.nyquist] = 0.0
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        if isinstance(other, SymbolTable):
            self._same_grid(other)
            return SymbolTable.fresh(self.grid, self.values + other.values)
        return SymbolTable.fresh(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, SymbolTable):
            self._same_grid(other)
            return SymbolTable.fresh(self.grid, self.values * other.values)
        return SymbolTable.fresh(self.grid, self.values * other)

    __rmul__ = __mul__

    def _same_grid(self, other):
        if other.grid != self.grid:
            raise ShapeError("tables live on different grids")

    @property
    def real(self):
        return SymbolTable.fresh(self.grid, self.values.real.copy(order="K"))

    @property
    def imag(self):
        return SymbolTable.fresh(self.grid, self.values.imag.copy(order="K"))


def node_matrix(grid, A):
    """The node-value matrix E_syn A E_syn^H of a stage array A: a Fourier
    row (N,), a product, or a coefficient matrix (N, N), a matrix product;
    only oracles form it."""
    S = grid.synthesis_matrix()
    return (S * A if np.ndim(A) == 1 else S @ A) @ S.conj().T


def stage_matrices(weights, stack, out=None):
    """The stages sum_i weights[b, i] stack[i], one for each row b of the
    weights (B, J+1), as one array (B, *stack.shape[1:]) written into out
    when given, which must be a C-contiguous complex array of that shape
    (else ShapeError: a reshape of any other would copy, and the copy
    would be written).  The weights are real, so the stages are one real
    GEMM, (B x (J+1)) @ ((J+1) x 2n), on the complex stack seen as float64
    (n entries per table: an N-row or an N x N matrix), which reads the
    stack once however many stages it forms.  It runs as one product per
    panel of STAGE_PANEL float64 columns, each written straight into its
    columns of out, so that a panel's stack and stages stay in L2; a row
    stack fits in one panel.  Every element is the same length-(J+1) dot
    product in any panel, so no stage's bits depend on the panels."""
    shape = (len(weights), *stack.shape[1:])
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif (out.shape != shape or out.dtype != complex
          or not out.flags.c_contiguous):
        raise ShapeError(f"stage output {out.shape} {out.dtype} must be a "
                         f"C-contiguous complex128 array of shape {shape}")
    A = stack.reshape(len(stack), -1).view(float)
    C = out.reshape(len(out), -1).view(float)
    for c in range(0, A.shape[1], STAGE_PANEL):
        np.matmul(weights, A[:, c:c + STAGE_PANEL],
                  out=C[:, c:c + STAGE_PANEL])
    return out


def sampled_table(grid, values):
    """Table of samples on the lattice (anything broadcasting to (N, N)):
    one row, the multiplier it quantizes to, when every row equals the
    first, else (N, N); the one place a table's shape is decided.  The
    table copies the samples once, float64 if they are real."""
    vals = np.broadcast_to(values, (grid.N, grid.N))
    return SymbolTable(grid, vals[:1] if np.all(vals == vals[:1]) else vals)


def table_from_function(grid, fn):
    """Sample fn(x, xi) on the grid lattice (broadcasting evaluator)."""
    return sampled_table(grid, fn(grid.x[:, None], grid.xi[None, :]))


def multiplier_table(grid, values_xi):
    """Table of an x-independent symbol given its values on the xi lattice."""
    return SymbolTable(grid, np.asarray(values_xi)[None, :])


def coefficient_matrix(grid, values, out=None):
    """The coefficient-to-coefficient matrix E_syn^H (E_syn * p) of op(p), p
    given by its table values ((N, N) or a row), written into out when
    given: the forward transform of each column of E_syn * p, one FFT along
    x, in place."""
    out = np.multiply(grid.synthesis_matrix(), values, out=out)
    np.fft.fft(out, axis=0, norm="ortho", out=out)
    out *= grid._phase[:, None]
    return out


def spectral_stack(grid, tables):
    """The coefficient stack A[i] = E_syn^H (E_syn * tables[i]), shape
    (len(tables), N, N), each formed in place (coefficient_matrix): the
    only N x N arrays it allocates are its own."""
    A = np.empty((len(tables), grid.N, grid.N), dtype=complex)
    for A_i, G in zip(A, tables):
        coefficient_matrix(grid, G, out=A_i)
    return A


def to_dense(p: SymbolTable):
    """The node-value matrix (E_syn * p) E_syn^H of op(p)."""
    S = p.grid.synthesis_matrix()
    return (S * p.values) @ S.conj().T


def operator_norm(A):
    """Spectral norm."""
    return float(np.linalg.norm(np.asarray(A), 2))


def band_projector(grid):
    """The node-value projector onto fields supported in the resolved
    band (Grid.band_mask)."""
    return node_matrix(grid, grid.band_mask().astype(float))


def representable_error(A, B, grid, domain_cap):
    """Relative operator distance on representable states: frequency-limited
    to the resolved band and supported away from the periodic seam.

    The phase weights are monotone through the coefficient region, so their
    periodization necessarily jumps at the seam; the jump produces an
    x-localized boundary commutator in dense conjugations that no symbol
    assembly models.  Comparisons therefore sandwich both operators between
    the band projector and a smooth interior window, which rises from 0.45
    to 0.6 domain_cap in <x>.
    """
    from .weights import plateau
    P = band_projector(grid)
    w = plateau(np.sqrt(1.0 + np.square(grid.x)), 0.45 * domain_cap,
                0.6 * domain_cap).astype(complex)
    W = np.diag(w)
    denom = operator_norm(W @ A @ P @ W)
    num = operator_norm(W @ (A - B) @ P @ W)
    return num / denom if denom > 0 else num


def xi_derivative(p: SymbolTable, order=1, accuracy=4):
    """d^order/dxi^order of a table by finite differences on the xi lattice.

    Works on the monotone lattice: the columns past the Nyquist one, then
    those before it, gathered into one contiguous array with xi as its
    first axis (so each stencil term is a contiguous block) and scattered
    back the same way; of a column-major table each column is a row of
    its transpose, so both are row copies.  The Nyquist sample is
    excluded so the zeroed column cannot contaminate its neighbours.  The
    result is column-major: its transpose is what is written.  A one-row
    table is differentiated as four equal rows: BLAS rounds the edge stencils'
    product with a lone column differently from the columns of a wider
    one, and a row must differentiate exactly like its tiled twin.
    """
    g = p.grid
    nyq = g.nyquist
    rows = p.values.shape[0]
    # the xi-major view of the column-major table and of its derivative
    cols = p.values.T
    body = np.empty((g.N - 1, 4 if rows == 1 else rows), dtype=cols.dtype)
    body[:nyq - 1] = cols[nyq + 1:]
    body[nyq - 1:] = cols[:nyq]
    dbody = diff_uniform(body, g.dxi, order, axis=0, accuracy=accuracy)
    out = np.empty((g.N, rows), dtype=cols.dtype)
    out[nyq + 1:] = dbody[:nyq - 1, :rows]
    out[:nyq] = dbody[nyq - 1:, :rows]
    return SymbolTable.fresh(g, out.T)


def x_derivatives(p: SymbolTable):
    """The function order -> d^order/dx^order of a table, by spectral
    differentiation per column: one forward FFT serves every order, each
    order read costs one inverse.  The columns of a column-major table are
    contiguous.  Of a one-row table, the exact zero row."""
    g = p.grid
    if p.values.shape[0] == 1:
        return lambda order: SymbolTable.fresh(g, np.zeros((1, g.N)))
    spectrum = np.fft.fft(p.values, axis=0, norm="ortho")

    def derivative(order):
        mult = (1j * g.xi) ** order
        mult[g.nyquist] = 0.0
        return SymbolTable.fresh(
            g, np.fft.ifft(mult[:, None] * spectrum, axis=0, norm="ortho"))

    return derivative


def x_derivative(p: SymbolTable, order=1):
    """d^order/dx^order of a table (x_derivatives)."""
    return x_derivatives(p)(order)


def dx_operators(p: SymbolTable):
    """The function order -> D_x^order = (-i d/dx)^order of a table, every
    order from the one spectrum of x_derivatives."""
    derivative = x_derivatives(p)
    return lambda order: SymbolTable.fresh(
        p.grid, (-1j) ** order * derivative(order).values)


def exp_table(p: SymbolTable):
    """Entrywise exponential of a real-valued table, a float table."""
    vals = p.values.real
    m = float(np.max(vals))
    if m > EXP_GUARD:
        raise ParameterError(
            f"exponent reaches {m:.1f} > {EXP_GUARD}; reduce the phase strength "
            "(smaller k0 or weight constants)")
    return SymbolTable.fresh(p.grid, np.exp(vals))
