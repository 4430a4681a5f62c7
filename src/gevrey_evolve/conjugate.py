"""Conjugator construction and conjugated-symbol assembly.

Conjugating the spatial generator by op(e^Lam), with phase
Lam = k(t) <xi>_h^{1/theta} + lam2 + lam1, reshapes the lower-order terms:
the order-2 and order-1 coefficients acquire sign-definite real parts, at
the price of remainder terms of order 1 + 1/theta and below, plus an
order-zero lump that is never modeled termwise (it is measured as the
dense-oracle discrepancy instead).

The two stages are kept separate, mirroring how the operator factorizes:

* the spatial stage op(e^lam) is a Fourier row, inverted exactly by the
  reciprocal row, when the phase is x-independent (M2 = M1 = 0); otherwise
  it is a coefficient matrix, on Fourier coefficients as every operator
  is, and its inverse is the adjoint of op(e^-lam) composed with the
  Neumann series in the exact discrete remainder R, summed in product form
  until the power of R it leaves, which is the residual of the inverse,
  falls below series_tol.  A direct dense inverse is the cross-check mode
  for both;
* the time stage e^{k(t)<D>^{1/theta}} is a Fourier multiplier, a row,
  hence diagonal and exactly invertible.
Like G, each is a plain array whose shape is its variant: a row applies
by product and a matrix by GEMV or GEMM (_apply).

All expansion terms are assembled as symbol tables.  Derivative factors of
exponentials are produced by Bell-polynomial recursions with the
exponential factors cancelled, so nothing large is ever exponentiated.
BLOCKS declares the generator's three blocks (orders 2, 1 and 1/theta) by
their named parts, and MARGINS the positivity certificate's three lower
bounds by their tables.  The time stage enters only through k(t): every
table is, per coefficient time, a k-polynomial {j: U_j} in fixed tables,
U_0 from the spatial stage and U_j (j >= 1) from the k stage; kprime =
-k'(t) <xi>_h^{1/theta} is (C2 + C1 k(t)) <xi>_h^{1/theta}, since k solves
k' + C1 k + C2 = 0.  So the generator is G_0 + sum_j k(t)^j G_j, G_j
summing the parts' U_j.  Each asymptotic series behind the tables stops
where its first read stopped it, at t = 0 on every pipeline path
(_truncated), so the tables of every coefficient time are cut at the same
orders.  Per coefficient time the assembler keeps G_0 and the G_j as one
array G of Fourier rows or of coefficient matrices, one variant per
assembler, read off the tables' shape; a stage is the weights k(tau)^j
over G, one GEMM for many stages (quantize.stage_matrices).  Once a run
has its Garding floors, the assembler of time-independent coefficients
keeps only G and the default step's sup (release_tables).
"""

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
import numpy as np

from ._stencil import exp_derivative_factors
from .errors import ConvergenceError, ParameterError, ReleasedError
from .grid import Grid, bracket_h
from .quantize import (SymbolTable, coefficient_matrix, dx_operators,
                       exp_table, multiplier_table, operator_norm,
                       sampled_table, spectral_stack, stage_matrices,
                       x_derivative, xi_derivative)
from .symbols import N_T_SAMPLES, ProblemSpec, eval_table
from .weights import (WeightParams, Windows, k_of_t, spatial_weights,
                      weight_x_derivative)

# coefficient times an assembler of time-dependent coefficients keeps tables
# for: selection measures at the sample times in every calibration round,
# and a solve meets each stage time once
MEMO_TIMES = N_T_SAMPLES
# the largest grid.N at which O(N^3) dense work runs: the dense inverse
# below, the setup's Garding floors and the oracle suite
DENSE_N_MAX = 256

# ----------------------------------------------------------------------
# derivatives of <xi>_h^p on the frequency lattice (exact)
# ----------------------------------------------------------------------

def bracket_power_derivatives(xi, h, p, n):
    """[f', ..., f^(n)] for f(xi) = (h^2 + xi^2)^{p/2}, as arrays over xi."""
    xi = np.asarray(xi, dtype=float)
    s = h * h + xi * xi
    # term list [(coef, xi-power, s-power)]
    terms = [(1.0, 0, p / 2.0)]
    out = []
    for _ in range(n):
        new = {}
        for c, m, q in terms:
            if m:
                key = (m - 1, q)
                new[key] = new.get(key, 0.0) + c * m
            key = (m + 1, q - 1.0)
            new[key] = new.get(key, 0.0) + 2.0 * c * q
        terms = [(c, m, q) for (m, q), c in new.items() if c != 0.0]
        out.append(sum(c * xi ** m * s ** q for c, m, q in terms))
    return out


def partial_bell(n_max, xs):
    """Incomplete Bell polynomials B[n][j] built from x_1..x_{n_max}.

    B[n][j] collects the ways of splitting n derivatives into j factors;
    entries are arrays (or scalars) matching the x_i.
    """
    B = [[None] * (n_max + 1) for _ in range(n_max + 1)]
    B[0][0] = 1.0
    for n in range(1, n_max + 1):
        B[n][0] = 0.0
        for j in range(1, n + 1):
            acc = 0.0
            for i in range(1, n - j + 2):
                prev = B[n - i][j - 1]
                if prev is None or (np.isscalar(prev) and prev == 0.0):
                    continue
                acc = acc + math.comb(n - 1, i - 1) * xs[i - 1] * prev
            B[n][j] = acc
    return B


# ----------------------------------------------------------------------
# the spatial phase and its derivative tables
# ----------------------------------------------------------------------

# the highest order of the factors P_b and Q_a an expansion reads
FACTOR_ORDER = 4


class PhaseTables:
    """What the assembly reads of lam2 + lam1 sampled on the lattice: the
    phase, its first x-derivatives, the window and the exponential
    derivative factors.  Everything here is independent of time.

    Each member is formed on first read from one Windows, so a selection
    trial pays only for what its verdict reads; the windows are released
    once every table that reads them exists.  Neither they nor lam2's
    tables read M1, C1 or C2, which may be installed on params after
    them.  The factors
    P_b = e^{-lam} d_xi^b e^{lam} and Q_a = e^{lam} D_x^a e^{-lam}
    (exp_factors) are formed up to the highest order read so far; the
    derivatives of lam they extend from are kept until the factors reach
    the orders the order-2 coefficient's expansion reads, the most any
    expansion reads.  lam, its derivative tables, psi_window, P_b and the
    Bell values that stand for Q_a are real, float64 tables;
    conjugation_expansion applies Q_a's phase (-i)^a where it reads Q_a.
    release() drops every table; a read after it raises ReleasedError."""

    def __init__(self, grid: Grid, params: WeightParams, win: Windows):
        self.grid, self.params = grid, params
        self._win = win
        # the orders of P_b, Q_a the order-2 coefficient's expansion reads
        self._top = truncation_order(2.0, params.theta) - 1
        # the tables that read the windows and are not formed yet; d_x^o of
        # lam2 and lam1 for o <= 3 feed Q_o
        self._unread = {"lam", "psi_window", "abs_w",
                        *((which, o) for which in (2, 1)
                          for o in range(1, min(self._top, 3) + 1))}
        self._P, self._Q = [], []
        # d_xi^o lam, -d_x^o lam and the Bell values of P and Q, o = 1, 2, ...
        self._derivs = {"xi": [], "x": [], "P": [], "Q": []}

    def _windows(self, table):
        """The windows, read for ``table``; the last such read releases
        them.  A table read after release() raises ReleasedError."""
        win = self._win
        if win is None:
            raise ReleasedError(f"phase table {table!r} read after the "
                                "phase tables were released")
        self._unread.discard(table)
        if not self._unread:
            self._win = None
        return win

    @cached_property
    def lam(self) -> SymbolTable:
        """lam2 + lam1."""
        win = self._windows("lam")
        l2, l1 = (sampled_table(self.grid, v.T)
                  for v in spatial_weights(win, self.params))
        return l2 + l1

    def _weight_x(self, which, order) -> SymbolTable:
        """d_x^order of lam2 (which=2) or lam1 (which=1), from the windows."""
        return sampled_table(self.grid, weight_x_derivative(
            self._windows((which, order)), self.params, which, order).T)

    lam2_x = cached_property(lambda self: self._weight_x(2, 1))
    lam2_xx = cached_property(lambda self: self._weight_x(2, 2))
    lam1_x = cached_property(lambda self: self._weight_x(1, 1))

    @cached_property
    def dxdxi_lam2(self) -> SymbolTable:
        """d_xi d_x lam2."""
        return xi_derivative(self.lam2_x, 1)

    @cached_property
    def psi_window(self) -> SymbolTable:
        """psi(<x>/<xi>_h^2)."""
        win = self._windows("psi_window")
        return SymbolTable(self.grid, win.psi(0).T)

    @cached_property
    def abs_w(self) -> np.ndarray:
        """|w(xi/h)| on the frequency lattice."""
        return np.abs(self._windows("abs_w").w[:, 0])

    def _lam_x(self, o) -> SymbolTable:
        """d_x^o lam: lam2's plus lam1's for o <= 3, spectral for o = 4."""
        if o == 4:
            return x_derivative(self._derivs["lam_x3"], 1)
        named = {(2, 1): "lam2_x", (2, 2): "lam2_xx", (1, 1): "lam1_x"}
        l2, l1 = (getattr(self, named[w, o]) if (w, o) in named
                  else self._weight_x(w, o) for w in (2, 1))
        return l2 + l1

    def exp_factors(self, n):
        """([P_1..P_n], [B_1..B_n]): P_b = Bell_b(d_xi lam, ...) and the
        Bell values B_a = Bell_a(-d_x lam, ...) of Q_a = (-i)^a B_a, each
        order formed once, on first read, up to the orders the order-2
        expansion reads.  Both are real where the derivatives of lam are;
        the reader applies Q_a's phase (-i)^a."""
        if self._P is None or n > self._top:
            raise ParameterError(
                f"factors P_b, Q_a of order {n} are released or past the "
                f"{self._top} orders an expansion reads")
        d = self._derivs
        for o in range(len(self._P) + 1, n + 1):
            lam_x = self._lam_x(o)
            if o == 3:
                d["lam_x3"] = lam_x
            d["xi"].append(xi_derivative(self.lam, o).values)
            d["x"].append(-lam_x.values)
            d["P"] = exp_derivative_factors(d["xi"], d["P"])
            d["Q"] = exp_derivative_factors(d["x"], d["Q"])
            # the Bell values stay in d; zeroing their Nyquist column does
            # not reach the other columns of the elementwise recursion
            self._P.append(SymbolTable.fresh(self.grid, d["P"][-1]))
            self._Q.append(SymbolTable.fresh(self.grid, d["Q"][-1]))
        if len(self._P) == self._top:
            self._derivs = None
        return self._P[:n], self._Q[:n]

    def release_factors(self):
        """Drop P_b, Q_a and what they extend from, once the last table
        that reads them exists."""
        self._P = self._Q = self._derivs = None

    def release(self):
        """Drop every table and the windows; params stay."""
        self.release_factors()
        self._win = None
        for name in ("lam", "lam2_x", "lam2_xx", "lam1_x", "dxdxi_lam2",
                     "psi_window", "abs_w"):
            self.__dict__.pop(name, None)


def build_phase_tables(p: ProblemSpec, params: WeightParams,
                       grid: Grid) -> PhaseTables:
    """The phase tables of one grid/params, each formed on first read.
    One Windows on the lattice serves every table, so each window is
    evaluated once.  It is laid out xi by x, so that the transpose of each
    window value is a column-major table that sampled_table copies
    without transposing."""
    return PhaseTables(grid, params,
                       Windows(grid.x[None, :], grid.xi[:, None], p, params))


def _truncated(terms, size, stops, key):
    """Optimal truncation of an asymptotic series, decided once per key:
    the first read keeps the terms up to the first whose size(term)
    exceeds the size of the term before it, and records in stops[key] how
    many it kept; every later read keeps as many and forms no term past
    them."""
    if key in stops:
        yield from islice(terms, stops[key])
        return
    prev, kept = None, 0
    for term in terms:
        now = size(term)
        if prev is not None and now > prev:
            break
        yield term
        prev, kept = now, kept + 1
    stops[key] = kept


def _sup(table: SymbolTable) -> float:
    return float(np.max(np.abs(table.values)))


def conjugation_expansion(q: SymbolTable, phase: PhaseTables, n_trunc: int,
                          stops: dict, key):
    """sum over 1 <= a+b < N of (1/a!b!) d_xi^a { P_b D_x^b q Q_a }.

    This is the correction produced by sandwiching op(q) between op(e^lam)
    and the adjoint of op(e^-lam); the exponentials cancel pointwise inside
    the braces.  The series is asymptotic: the cutoff factors are Gevrey
    of order two, so at finite grid frequencies the terms eventually grow
    factorially.  Orders are therefore accumulated only while they do not
    grow, up to the stop stops[key] (_truncated) and capped by the
    requested n_trunc; the factors P_b, Q_a are read up to order
    n_trunc - 1.  The phase holds Q_a as its real Bell values B_a, and a
    product takes Q_a's phase (-i)^a after B_a: (core B_a) (-i)^a rounds as
    core ((-i)^a B_a), since multiplying by +-1 or +-i is exact.  D_x^b q is
    formed from q's one spectrum where it is read, so no order holds more
    than one of them.
    """
    g = q.grid
    P, Q = phase.exp_factors(n_trunc - 1)
    dx_q = dx_operators(q)

    def orders():
        for s in range(1, n_trunc):
            group = SymbolTable(g, np.zeros((1, g.N)))
            for a in range(0, s + 1):
                b = s - a
                core = q
                if b >= 1:
                    core = P[b - 1] * dx_q(b)
                if a >= 1:
                    core = (core * Q[a - 1]) * (-1j) ** a
                    core = xi_derivative(core, a)
                group = group + core * (1.0 / (math.factorial(a) * math.factorial(b)))
            yield group

    return sum(_truncated(orders(), _sup, stops, key),
               SymbolTable(g, np.zeros((1, g.N))))


def truncation_order(m, theta):
    """Smallest N with m - (1 - 1/theta) N <= 0, capped at FACTOR_ORDER + 1,
    the most orders the factors P_b, Q_a serve."""
    step = 1.0 - 1.0 / theta
    if step <= 0:
        raise ParameterError("theta must exceed 1")
    return max(1, min(FACTOR_ORDER + 1, math.ceil(m / step)))


# ----------------------------------------------------------------------
# the conjugator bundle: op(e^lam), its inverse, the time stage
# ----------------------------------------------------------------------

def _apply(A, w_hat):
    """A row (N,) by product, or an (N, N) matrix by GEMV on one state
    w_hat and by GEMM on a stack (B, N), padded to two rows when B = 1:
    numpy's GEMV for one row rounds it unlike a wider stack's GEMM."""
    if A.ndim == 1:
        return A * w_hat
    if np.ndim(w_hat) == 2 and len(w_hat) == 1:
        return (A @ np.concatenate([w_hat, w_hat]).T).T[:1]
    return (A @ w_hat.T).T


@dataclass
class ConjugatorBundle:
    """The spatial conjugator op(e^lam) and its inverse, both Fourier rows
    (N,) or both coefficient matrices (N, N), as G is, their diagnostics,
    and the assembler of the conjugated symbols, which keeps the grid,
    params, problem and phase tables both were built from.

    E and E_inv read neither C1 nor C2; the time stage and the assembler's
    generator read both, so the assembler is calibrated before the bundle
    is built from it."""

    E: np.ndarray                  # op(e^lam)
    E_inv: np.ndarray              # 1 / row, E_star sum_j (-R)^j, or inv(E)
    spectral_radius: float         # of R = E E_star - I, E_star = op(e^-lam)*
    residual: float                # ||E E_inv - I||_F
    series_terms: int              # 2^K summands of the series; 0 for rows
    assembler: "ConjugationAssembler"

    grid = property(lambda self: self.assembler.grid)
    params = property(lambda self: self.assembler.params)
    problem = property(lambda self: self.assembler.problem)

    def time_stage(self, t, sign=+1):
        """op(e^{sign k(t) <xi>_h^{1/theta}}), a Fourier multiplier: its
        row (N,), or for an array of times (B,) their rows (B, N), which
        multiply a stack of coefficients row by row."""
        expo = (sign * k_of_t(t, self.params))[..., None] * self.assembler.xi_pow
        if np.max(expo) > 690.0:
            raise ParameterError("time-weight multiplier overflows; reduce k0")
        return np.exp(expo)

    def apply_full(self, u_hat, t):
        """Coefficients of op(e^Lam(t)) u from those of u: the spatial
        stage E, then the time stage's row.  A stack u_hat (B, N) with
        times t (B,) maps row i at t[i]."""
        return self.time_stage(t) * _apply(self.E, u_hat)

    def apply_full_inverse(self, v_hat, t):
        """Coefficients of {op(e^Lam(t))}^{-1} v from those of v: the
        inverse time stage's row, then E_inv; row by row on a stack, as
        apply_full."""
        return _apply(self.E_inv, self.time_stage(t, -1) * v_hat)


def build_conjugator(assembler: "ConjugationAssembler",
                     series_tol: float = 1e-10,
                     inverse_tol: float = 1e-8,
                     mode: str = "neumann") -> ConjugatorBundle:
    """Build op(e^lam) and its inverse from the assembler's phase tables;
    the bundle keeps the assembler.

    When the phase table lam is one row (x-independent) E and E_inv are
    the Fourier rows (N,) e^lam and 1 / e^lam, and every diagnostic is
    measured on the rows.  Otherwise both are (N, N) coefficient matrices:
    E = E_syn^H (E_syn * e^lam) (coefficient_matrix, one FFT along x), and
    E_inv = E_star S, with E_star the adjoint of op(e^-lam) and S the
    Neumann series of (I + R)^{-1} in the exact discrete remainder
    R = E E_star - I, summed in product form:
    S = (I - R)(I + R^2)(I + R^4)... = sum_{j < 2^K} (-R)^j, two N x N
    products per factor.  Then E E_inv - I = -R^{2^K}, so the series stops
    at the first K with ||R^{2^K}||_F < series_tol, a bound on the residual
    it leaves; once ||P||_F^2 < series_tol for P = R^{2^(K-1)}, the last
    square is not formed, since ||P^2||_F <= ||P||_F^2.  It needs spectral
    radius rho(R) < 1, checked before the series starts (on the spectral
    norm); the exact residual ||E E_inv - I||_F, which bounds the spectral
    norm from above, is checked once at the end.  The change of basis from
    node values is unitary: rho(R) and every norm are those of the
    node-value matrices.
    ``mode="dense"`` replaces either with the matrix E and its direct
    dense inverse (cross-check oracle); above DENSE_N_MAX it is refused
    before anything is formed.
    """
    grid = assembler.grid
    N, nyq = grid.N, grid.nyquist
    if mode == "dense" and N > DENSE_N_MAX:
        raise ParameterError(
            f"dense inverse mode is limited to N <= {DENSE_N_MAX}")
    phase = assembler.phase
    # tables zero the unmatched Nyquist mode; let the conjugator act as the
    # identity on it so the operator stays invertible
    exp_lam, exp_neg = exp_table(phase.lam), exp_table(phase.lam * -1.0)
    if mode != "dense" and len(phase.lam.values) == 1:
        e, e_neg = exp_lam.values[0].copy(), exp_neg.values[0].copy()
        e[nyq] = e_neg[nyq] = 1.0
        R = e * np.conj(e_neg) - 1.0
        E, E_inv = e, 1.0 / e
        rho = float(np.max(np.abs(R)))
        residual, terms = float(np.linalg.norm(e * E_inv - 1.0)), 0
    else:
        I = np.eye(N, dtype=complex)
        E, E_star = (coefficient_matrix(grid, tab.values)
                     for tab in (exp_lam, exp_neg))
        E[nyq, nyq] = E_star[nyq, nyq] = 1.0
        E_star = E_star.conj().T
        R = E @ E_star - I
        nrm = operator_norm(R)
        rho = nrm if nrm < 1.0 else float(np.max(np.abs(np.linalg.eigvals(R))))
        terms = 0
        if mode == "dense":
            E_inv = np.linalg.inv(E)
        else:
            if rho >= 1.0:
                raise ConvergenceError(
                    f"Neumann remainder has spectral radius {rho:.3f} >= 1; "
                    "increase h")
            S, P, terms = I - R, R @ R, 2      # P = R^terms
            while (size := np.linalg.norm(P)) >= series_tol:
                S = S + S @ P
                terms *= 2
                if size * size < series_tol:
                    # ||P^2||_F <= ||P||_F^2: the next power ends the series
                    break
                P = P @ P
            E_inv = E_star @ S
        residual = float(np.linalg.norm(E @ E_inv - I))
    if residual > inverse_tol:
        raise ConvergenceError(
            f"conjugator inverse residual {residual:.3e} exceeds "
            f"{inverse_tol}; increase h or loosen inverse_tol")
    return ConjugatorBundle(E=E, E_inv=E_inv, spectral_radius=rho,
                            residual=residual, series_terms=terms,
                            assembler=assembler)


# ----------------------------------------------------------------------
# conjugated symbols and the assembler that builds them
# ----------------------------------------------------------------------

# The parts of the conjugated generator, by block: order 2, order 1 and
# order 1/theta, each a k-polynomial (ConjugationAssembler.part).
BLOCKS = {"order2": ("ia2", "damp2", "b2k", "ia2_k"),
          "order1": ("ia1", "damp1", "id1", "a2cross"),
          "theta": ("kprime", "b1k", "ia1_k")}
# the generator's parts, in the order of BLOCKS
POLY_PARTS = tuple(n for names in BLOCKS.values() for n in names)
# The positivity certificate: each lower bound sums its tables' real parts
# in this order.  The damping counts at full strength (m2_main, m1_main),
# its window tails (m2_tail, m1_tail) in the 1/theta bound; c and e are the
# Hermitian halves of i Im a2t, of i a2 and of the k stage's b2k + ia2_k.
MARGINS = {"order2": ("ia2", "m2_main", "b2k", "ia2_k"),
           "order1": ("ia1", "m1_main", "a2cross", "c", "e"),
           "theta": ("kprime", "b1k", "ia1_k", "m2_tail", "m1_tail")}


@dataclass
class ConjugatedSymbols:
    """The generator's parts (BLOCKS) at one time: the view the Garding
    floors, the automatic dt and the oracles read."""

    grid: Grid
    a3_row: np.ndarray
    parts: dict

    def block(self, name):
        """The sum of the parts of BLOCKS[name], in their order."""
        return reduce(SymbolTable.__add__, (self.parts[n] for n in BLOCKS[name]))

    def generator_table(self):
        """Everything except the exactly-diagonalized ia3 multiplier: the
        blocks summed in the order of BLOCKS."""
        return reduce(SymbolTable.__add__, map(self.block, BLOCKS))

    def spatial_table(self):
        """Conjugation of the spatial generator only (no d/dt artifacts):
        drops the -k' <xi>^{1/theta} term produced by the time stage."""
        ia3 = multiplier_table(self.grid, 1j * self.a3_row)
        return ia3 + self.generator_table() - self.parts["kprime"]


def _hermitian_half(im_table: SymbolTable, stops: dict, key):
    """sum_{a>=1} (i / (2 a!)) d_xi^a D_x^a of a real table, up to order 3
    and the stop stops[key] (_truncated: the iterated mixed derivatives
    are asymptotic on the grid)."""
    g = im_table.grid
    dx_im = dx_operators(im_table)
    terms = (xi_derivative(dx_im(a), a)
             * (1j / (2.0 * math.factorial(a))) for a in (1, 2, 3))
    return sum(_truncated(terms, _sup, stops, key),
               SymbolTable(g, np.zeros((1, g.N))))


def _memo(cache, key, make):
    """cache[key], made by make() on first read; past MEMO_TIMES keys the
    oldest is evicted."""
    if key not in cache:
        cache[key] = make()
        if len(cache) > MEMO_TIMES:
            cache.pop(next(iter(cache)))
    return cache[key]


def checked_region(grid, params):
    """The frequencies |xi| > R_a3 h the lower bounds are checked on,
    without the unmatched Nyquist mode."""
    region = np.abs(grid.xi) > params.R_a3 * params.h
    region[grid.nyquist] = False
    return region


class CoefficientTables:
    """The tables of one problem on one grid that read neither h nor any
    weight: i a2, i a1 and c, the Hermitian half of i a2, kept per
    coefficient time (at most MEMO_TIMES, the oldest evicted first) and
    each formed on first read, c cut where its first read stopped (stops).
    Selection makes one for all its trials; an assembler built without one
    makes its own.  The samples of a2 and a1 are not kept: -i times i a2
    is a2 but for the sign of its zeros."""

    def __init__(self, p: ProblemSpec, grid: Grid):
        self.problem, self.grid = p, grid
        self._cache, self.stops = {}, {}

    def table(self, name, t):
        """The named table at coefficient time t."""
        store = _memo(self._cache, float(t), dict)
        if name not in store:
            if name == "c":
                # i a2 holds Re a2 as its imaginary part, bit for bit
                store[name] = _hermitian_half(self.table("ia2", t).imag,
                                              self.stops, "c")
            else:
                coefficient = {"ia2": self.problem.a2, "ia1": self.problem.a1}
                store[name] = eval_table(coefficient[name], self.grid, t) * 1j
        return store[name]


class ConjugationAssembler:
    """Builds ConjugatedSymbols at arbitrary times, caching everything that
    does not change with t.

    Each named table is built when something first reads it, from its own
    recipe, and kept once per coefficient time as its k-polynomial (but e,
    whose one reader is kept by the certificate), so a reader of a few
    parts (the time-weight calibration) forms only those and what they
    read.  i a2, i a1 and c read neither h nor a weight: they come from
    ``tables``, a CoefficientTables that selection shares among its
    trials.  Time-independent coefficients have one coefficient time;
    time-dependent ones one per t (memoized for MEMO_TIMES times).
    ``stops``, beside ``params``, records how many orders each series
    keeps: the expansions of ia2_k and ia1_k and the Hermitian half e by
    the part's name, each k stage by "k:" and its part's name.
    ``part(name, t)`` evaluates one named table, U_0 + sum_j k(t)^j U_j;
    ``block_polynomial(names, t)`` is the real k-polynomial of the sum of
    named tables on the checked region's columns, which the certificate
    and the calibration keep per coefficient time
    (``ProblemSpec.coefficient_times``)
    and evaluate by Horner (positivity.block_sum); ``at(t)`` gives the
    parts of BLOCKS.  ``polynomial(t)`` is the generator's k-polynomial
    (powers, G), and ``stages(taus)`` the generator at each time of taus
    as the time stepper applies it, weights k(tau)^j over G.  ``params``
    is the phase tables' WeightParams, so the constants that selection
    (M1) and calibration (C1, C2) install reach both.  ``release_tables()``,
    called once a run has its Garding floors, keeps for time-independent
    coefficients only the generator's G, which is all the solve reads,
    and generator_sup(), the default step's one read of the tables; a
    later read of a table raises ReleasedError.
    """

    def __init__(self, p: ProblemSpec, params: WeightParams, grid: Grid,
                 tables: CoefficientTables = None):
        self.problem, self.grid = p, grid
        self.tables = tables or CoefficientTables(p, grid)
        self.phase = build_phase_tables(p, params, grid)
        self.xi_pow = bracket_h(grid.xi, params.h) ** (1.0 / params.theta)
        # derivatives of <xi>_h^{1/theta}: incomplete Bell table over beta<=4
        derivs = bracket_power_derivatives(grid.xi, params.h, 1.0 / params.theta, 4)
        self._bell_xi = partial_bell(4, derivs)
        self._cache, self.stops = {}, {}
        self._rows = None   # whether G holds rows, set by the first polynomial
        self._sup0 = None   # generator_sup, kept by release_tables

    @property
    def params(self) -> WeightParams:
        return self.phase.params

    @params.setter
    def params(self, params: WeightParams):
        """Install params; a generator formed under the old ones is
        dropped, since its kprime part reads C1 and C2."""
        self.phase.params = params
        for entry in self._cache.values():
            entry.pop("generator", None)

    # -- the tables of one coefficient time, each formed on first read ---

    def _entry(self, t):
        """The tables formed so far at the coefficient time of t: one entry
        for time-independent coefficients, one per time (memoized, at most
        MEMO_TIMES) for time-dependent ones.  An entry holds its coefficient
        time ("t"), a3's rows, the k-polynomials ("poly": {name: {j: U_j}}),
        each formed on first read, and, once asked for, the generator's
        rows or spectral stack."""
        t0 = float(self.problem.coefficient_times(t)[0])
        xi, a3 = self.grid.xi, self.problem.a3
        return _memo(self._cache, round(t0, 12), lambda: {
            "t": t0, "poly": {},
            "a3_row": np.asarray(a3(t0, 0.0, xi), dtype=float),
            "da3_row": np.asarray(a3.dxi(t0, 0.0, xi), dtype=float)})

    def _spatial_recipe(self, e, name):
        """The U_0 of the tables of the spatial-stage conjugation at the
        coefficient time of entry e that are formed together with
        ``name``: one or two named tables."""
        params, g, ph = self.params, self.grid, self.phase
        t = e["t"]
        stage = lambda n: self._poly(e, n)[0]
        if name in ("ia2", "a2cross"):
            ia2 = self.tables.table("ia2", t)
            return {"ia2": ia2, "a2cross": ia2 * ph.dxdxi_lam2 * -1j}
        if name in ("ia1", "c"):
            return {name: self.tables.table(name, t)}
        if name in ("damp2", "damp1"):
            lam_x = ph.lam2_x if name == "damp2" else ph.lam1_x
            return {name: multiplier_table(g, e["da3_row"]) * lam_x * -1.0}
        if name == "id1":
            # real order-1 symbol produced by the spatial stage (depends only
            # on lam2): (1/2) d_xi^2 { a3 (lam2_xx - lam2_x^2) }
            #        - d_xi a3 * d_xi lam2_xx + d_xi(a3 lam2_x) * d_xi lam2_x
            #        - (1/2) a3 { d_xi^2 (lam2_xx + lam2_x^2) + 2 (d_xi lam2_x)^2 }
            a3, da3 = (multiplier_table(g, e[r]) for r in ("a3_row", "da3_row"))
            l2x, l2xx = ph.lam2_x, ph.lam2_xx
            termA = xi_derivative(a3 * (l2xx - l2x * l2x), 2) * 0.5
            termB = da3 * xi_derivative(l2xx, 1) * -1.0
            termC = xi_derivative(a3 * l2x, 1) * ph.dxdxi_lam2
            termD = (a3 * (xi_derivative(l2xx + l2x * l2x, 2)
                           + ph.dxdxi_lam2 * ph.dxdxi_lam2 * 2.0)) * -0.5
            return {"id1": (termA + termB + termC + termD) * 1j}
        if name in ("ia2_k", "ia1_k"):
            n = truncation_order(2.0 if name == "ia2_k" else 1.0, params.theta)
            q = conjugation_expansion(stage(name[:3]), ph, n, self.stops, name)
            if name == "ia2_k":
                q = q + (q * ph.dxdxi_lam2) * -1j
            return {name: q}
        # the certificate's split of damp2 (m2) or damp1 (m1): full strength
        # + window tail, both carried on the support of the sign selector
        # (the identity damp = main + tail holds where |w| saturates, which
        # is the region the lower bounds are checked on, and the domain
        # window is 1: main leaves that window out)
        which = name[:2]
        if (params.M2 if which == "m2" else params.M1) == 0.0:
            # strength 0: exact zero rows, with no window evaluated
            main = SymbolTable(g, np.zeros((1, g.N)))
            tail = -main.values
        else:
            absda3_w = np.abs(e["da3_row"]) * ph.abs_w
            bx = np.sqrt(1.0 + np.square(g.x))[:, None]
            if which == "m2":
                main = sampled_table(g, absda3_w[None, :] * params.M2
                                     * bx ** (-params.sigma))
            else:
                bh = bracket_h(g.xi, params.h)
                main = sampled_table(g, absda3_w[None, :] / bh[None, :]
                                     * params.M1 * bx ** (-params.sigma / 2.0))
            tail = -(main.values * (1.0 - ph.psi_window.values))
        return {which + "_main": main, which + "_tail": sampled_table(g, tail)}

    def _k_stage(self, base, order, key):
        """The k-stage tables {j: U_j}, j >= 1, of conjugating op(base), a
        symbol of the given order, by the time multiplier.  Orders b are
        kept while the gauge size of their contribution (at k = k0) does not
        grow, up to stops[key] (_truncated: the series is asymptotic on the
        grid).  An order's addends coeff_j D_x^b base / b! are formed for
        its gauge one at a time, and again for U_j once the order is kept,
        so no order holds more than its D_x^b base and the gauge."""
        params = self.params
        dx_base = dx_operators(base)
        bell = self._bell_xi

        def terms(b):
            return [j for j in range(1, b + 1)
                    if not (np.isscalar(bell[b][j]) and bell[b][j] == 0.0)]

        def gauge(order_b):
            b, dxb = order_b
            total = np.zeros_like(dxb)
            for j in terms(b):
                total += (params.k0 ** j) * (bell[b][j][None, :] * dxb)
            return float(np.max(np.abs(total)))

        U = {}
        nk = truncation_order(order, params.theta)
        orders = ((b, dx_base(b).values / math.factorial(b))
                  for b in range(1, nk))
        for b, dxb in _truncated(orders, gauge, self.stops, key):
            for j in terms(b):
                add = bell[b][j][None, :] * dxb
                if j in U:
                    U[j] += add
                else:
                    U[j] = 0.0 + add
        return {j: SymbolTable.fresh(self.grid, v) for j, v in U.items()}

    def _poly(self, e, name):
        """The k-polynomial {j: U_j} of a named table at the coefficient
        time of entry e, built on first read from its own recipe: U_0 from
        the spatial stage (b2k and b1k have none), stored with the others
        of its recipe (_spatial_recipe), and for the parts the time
        multiplier conjugates, the k-stage tables U_j, j >= 1, of their
        U_0s' sum.  kprime is {0: C2 X, 1: C1 X}, X = <xi>_h^{1/theta}, and
        e_j, the Hermitian half of Im U_j(b2k) + Im U_j(ia2_k), stops where
        that of their sum at k(t) stopped at the first coefficient time
        read; neither is kept, and kprime reads the current C1 and C2."""
        store = e["poly"]
        if store is None:
            raise ReleasedError(f"table {name!r} read after the assembler's "
                                "tables were released")
        if name == "kprime":
            X = multiplier_table(self.grid, self.xi_pow)
            return {0: X * self.params.C2, 1: X * self.params.C1}
        if name == "e":
            polys = [self._poly(e, n) for n in ("b2k", "ia2_k")]
            if "e" not in self.stops:
                _hermitian_half(self.part("b2k", e["t"]).imag
                                + self.part("ia2_k", e["t"]).imag,
                                self.stops, "e")
            return {j: _hermitian_half(reduce(SymbolTable.__add__, (
                p[j].imag for p in polys if j in p)), self.stops, "e")
                for j in sorted({*polys[0], *polys[1]})}
        if name not in store:
            sigma = self.params.sigma
            conjugated = {"b2k": (("ia2", "damp2"), 2.0),
                          "b1k": (("ia1", "damp1", "id1", "a2cross"), 1.0),
                          "ia2_k": (("ia2_k",), 2.0 - (2.0 * sigma - 1.0)),
                          "ia1_k": (("ia1_k",), 2.0 * (1.0 - sigma))}
            if name not in ("b2k", "b1k"):
                for n, U0 in self._spatial_recipe(e, name).items():
                    store.setdefault(n, {0: U0})
            if name in conjugated:
                names, order = conjugated[name]
                base = reduce(SymbolTable.__add__,
                              (self._poly(e, n)[0] for n in names))
                store.setdefault(name, {}).update(
                    self._k_stage(base, order, "k:" + name))
            # the expansions are the factors' only readers, and coefficients
            # that do not depend on time have one of each
            if (not self.problem.time_dependent
                    and {"ia2_k", "ia1_k"} <= store.keys()):
                self.phase.release_factors()
        return store[name]

    # -- public assembly ----------------------------------------------

    def polynomial(self, t, polys=None):
        """(powers, G) at the coefficient time of t, built on first use from
        the G_j, each the sum of the parts' U_j in the order of BLOCKS: G
        holds G_0 and the G_j, j in powers, as Fourier rows (J + 1, N) or
        as their coefficient stack (J + 1, N, N), kept in place of the
        tables.  The tables' shape at the first coefficient time formed
        (t = 0 on every pipeline path) decides which, rows when every G_j
        is one row: a later time of a stack is a stack, x-independent or
        not, and an x-dependent later time of rows raises ParameterError.
        polys, when given, yields the k-polynomials of POLY_PARTS in their
        order, in place of the entry's."""
        entry = self._entry(t)
        if "generator" not in entry:
            if polys is None:
                polys = (self._poly(entry, name) for name in POLY_PARTS)
            G = {}
            for poly in polys:
                for j, U in poly.items():
                    G[j] = G.get(j, 0.0) + U.values
            powers = sorted(G)[1:]
            tables = [G[j] for j in (0, *powers)]
            rows = all(len(T) == 1 for T in tables)
            if self._rows is None:
                self._rows = rows
            if self._rows and not rows:
                raise ParameterError(
                    f"the generator depends on x at t={entry['t']:.6g} but not"
                    " at the first time formed: its stages cannot be rows")
            entry["generator"] = (tuple(powers),
                                  np.concatenate(tables, dtype=complex)
                                  if self._rows else
                                  spectral_stack(self.grid, tables))
        return entry["generator"]

    def stages(self, taus, out=None):
        """The generator G_0 + sum_j k(tau)^j G_j at each time of taus, in
        their order, one array written into out when given: (B, N) rows or
        (B, N, N) matrices, as polynomial holds G.  The stages of one
        coefficient time are one stage_matrices GEMM over its G, each the
        same bits in any call: time-independent coefficients share one
        coefficient time, time-dependent ones have one per tau."""
        taus = np.asarray(taus, dtype=float)
        ks = k_of_t(taus, self.params).tolist()
        times = self.problem.coefficient_times(taus)
        for i, t in enumerate(times):
            sl = slice(i, i + 1) if len(times) > 1 else slice(None)
            powers, G = self.polynomial(t)
            if out is None:
                out = np.empty((taus.size, *G.shape[1:]), dtype=complex)
            # k(tau)^j as scalar powers: numpy's array power can round them
            # differently, and a stage must not depend on its block
            K = np.array([[k ** j for j in (0, *powers)] for k in ks[sl]])
            if len(K) < 2 and not self.problem.time_dependent:
                # numpy takes a GEMV for one row, which rounds it unlike the
                # same row in a wider GEMM: a lone stage is the first of two
                out[sl] = stage_matrices(np.tile(K, (2, 1)), G)[:1]
            else:
                stage_matrices(K, G, out[sl])
        return out

    def part(self, name, t) -> SymbolTable:
        """The named table at time t, its k-polynomial
        U_0 + sum_{j >= 1} k(t)^j U_j, without U_0 for b2k and b1k."""
        poly = self._poly(self._entry(t), name)
        k = float(k_of_t(t, self.params))
        terms = [(k ** j) * U.values for j, U in poly.items() if j]
        if 0 not in poly:
            return SymbolTable.fresh(self.grid, sum(terms))
        return poly[0] + sum(terms, 0.0) if terms else poly[0]

    def block_polynomial(self, names, t):
        """The real k-polynomial of the named tables at the coefficient time
        of t, as one array R of shape (J + 1, rows, columns): R[j] sums
        Re U_j over the names, in their order, on the columns of
        checked_region (zero where no name has a k^j table); kprime's U_j
        read the current C1 and C2.  A sum of rows stays a row (rows = 1).
        Formed at each call and not kept: a caller that reads it again
        keeps it."""
        entry = self._entry(t)
        region = checked_region(self.grid, self.params)
        polys = [self._poly(entry, name) for name in names]
        R = np.zeros((max(j for poly in polys for j in poly) + 1,
                      max(U.values.shape[0] for poly in polys
                          for U in poly.values()),
                      np.count_nonzero(region)))
        for poly in polys:
            for j, U in poly.items():
                R[j] += U.values.real[:, region]
        return R

    def generator_sup(self):
        """max |generator table at t = 0|, the size the default step reads
        (evolve.default_dt); once release_tables has dropped the tables,
        the value it kept."""
        if self._sup0 is None:
            return _sup(self.at(0.0).generator_table())
        return self._sup0

    def release_tables(self):
        """Drop what a solve does not read, once the run has its Garding
        floors: the k-polynomials, the coefficient tables and the phase
        tables; the generator's rows or coefficient stack, formed here if
        not yet, generator_sup, a3's rows and params stay.  Time-dependent
        coefficients keep every table, since each stage time is a new
        coefficient time.  A later read of a table raises ReleasedError."""
        if self.problem.time_dependent or self._sup0 is not None:
            return
        self._sup0 = self.generator_sup()
        entry = self._entry(0.0)
        # every part first, while the phase can still form them; then the
        # generator sums the parts, each dropped once summed
        parts = {name: self._poly(entry, name) for name in POLY_PARTS}
        entry["poly"] = None
        self.tables = None
        self.phase.release()
        self.polynomial(0.0, (parts.pop(name) for name in POLY_PARTS))

    def at(self, t: float) -> ConjugatedSymbols:
        """The generator's parts (BLOCKS) at time t (part)."""
        parts = {name: self.part(name, t)
                 for names in BLOCKS.values() for name in names}
        return ConjugatedSymbols(grid=self.grid, parts=parts,
                                 a3_row=self._entry(t)["a3_row"])
