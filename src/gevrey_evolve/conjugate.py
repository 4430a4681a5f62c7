"""Conjugator construction and conjugated-symbol assembly.

Conjugating the spatial generator by op(e^Lam), with phase
Lam = k(t) <xi>_h^{1/theta} + lam2 + lam1, reshapes the lower-order terms:
the order-2 and order-1 coefficients acquire sign-definite real parts, at
the price of remainder terms of order 1 + 1/theta and below, plus an
order-zero lump that is never modeled termwise (it is measured as the
dense-oracle discrepancy instead).

The two stages are kept separate, mirroring how the operator factorizes:

* the spatial stage op(e^lam) is a Multiplier, inverted exactly by the
  reciprocal row, when the phase is x-independent (M2 = M1 = 0); otherwise
  it is dense and its inverse is the adjoint of op(e^-lam) composed with a
  Neumann series in the exact discrete remainder (an entirely computable
  object).  A direct dense inverse is the cross-check mode for both;
* the time stage e^{k(t)<D>^{1/theta}} is a Fourier multiplier, hence
  diagonal and exactly invertible.

All expansion terms are assembled as symbol tables.  Derivative factors of
exponentials are produced by Bell-polynomial recursions with the
exponential factors cancelled, so nothing large is ever exponentiated.
The time stage enters only through k(t) and k'(t): for each coefficient
time the conjugated generator is the polynomial
G_0 + sum_j k(t)^j G_j - k'(t) <xi>_h^{1/theta} in fixed tables, which
the assembler caches, so the time stepper evaluates it with a few AXPYs.
"""

import copy
import math
from dataclasses import dataclass, field, replace
import numpy as np

from ._stencil import exp_derivative_factors
from .errors import ConvergenceError, ParameterError
from .grid import Grid, bracket_h
from .quantize import (Dense, Multiplier, SymbolTable, adjoint, dx_operator,
                       exp_table, multiplier_table, operator_norm, quantized,
                       to_dense, x_derivative, xi_derivative)
from .symbols import ProblemSpec, eval_table
from .weights import (WeightParams, cutoff_psi, k_of_t, k_prime,
                      lambda_x_derivative, lambda1, lambda2, sign_weight)

NEUMANN_MAX_TERMS = 30


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

@dataclass
class PhaseTables:
    """What the assembly reads of lam2 + lam1 sampled on the lattice: the
    phase, its first x-derivatives, the window and the exponential
    derivative factors.  Everything here is independent of time."""

    lam: SymbolTable          # lam2 + lam1
    lam2_x: SymbolTable       # d_x lam2
    lam2_xx: SymbolTable      # d_x^2 lam2
    lam1_x: SymbolTable       # d_x lam1
    dxdxi_lam2: SymbolTable   # d_xi d_x lam2
    psi_window: SymbolTable   # psi(<x>/<xi>_h^2)
    abs_w: np.ndarray         # |w(xi/h)| on the frequency lattice
    exp_xi_factors: list      # P_b = e^{-lam} d_xi^b e^{lam}, b = 1..4
    dx_exp_factors: list      # Q_a = e^{lam} D_x^a e^{-lam}, a = 1..4


def _lambda_x_table(p, params, grid, which, order):
    X, XI = grid.x[:, None], grid.xi[None, :]
    return SymbolTable(grid, lambda_x_derivative(
        X, XI, 0.0, p, params, which=which, order=order).astype(complex))


def dxdxi_lambda2(p: ProblemSpec, params: WeightParams,
                  grid: Grid) -> SymbolTable:
    """d_xi d_x lam2 on the lattice.  It reads M2 but not M1, and it needs
    no weight integral (d_x lam2 is in closed form)."""
    return xi_derivative(_lambda_x_table(p, params, grid, 2, 1), 1)


def build_phase_tables(p: ProblemSpec, params: WeightParams,
                       grid: Grid) -> PhaseTables:
    """Sample the spatial phase and its derivatives once per grid/params.
    The higher derivatives are needed only to form P_b and Q_a."""
    X, XI = grid.x[:, None], grid.xi[None, :]
    l2 = SymbolTable(grid, lambda2(X, XI, 0.0, p, params).astype(complex))
    l1 = SymbolTable(grid, lambda1(X, XI, 0.0, p, params).astype(complex))
    lam = l2 + l1

    lam2_x, lam1_x = {}, {}
    for order in (1, 2, 3):
        lam2_x[order] = _lambda_x_table(p, params, grid, 2, order)
        lam1_x[order] = _lambda_x_table(p, params, grid, 1, order)
    lam_x = {o: lam2_x[o] + lam1_x[o] for o in (1, 2, 3)}
    lam_x[4] = x_derivative(lam_x[3], 1)
    lam_xi = {o: xi_derivative(lam, o) for o in (1, 2, 3, 4)}

    cap = np.square(bracket_h(grid.xi, params.h))
    window = cutoff_psi(np.sqrt(1.0 + np.square(grid.x))[:, None] / cap[None, :])
    abs_w = np.abs(np.asarray(sign_weight(grid.xi, 0.0, p, params),
                              dtype=float))

    # P_b = Bell_b(lam_xi...), Q_a = (-i)^a Bell_a(-lam_x...)
    P = exp_derivative_factors([lam_xi[o].values for o in (1, 2, 3, 4)])
    Q = exp_derivative_factors([-lam_x[o].values for o in (1, 2, 3, 4)])
    return PhaseTables(
        lam=lam, lam2_x=lam2_x[1], lam2_xx=lam2_x[2], lam1_x=lam1_x[1],
        dxdxi_lam2=xi_derivative(lam2_x[1], 1),
        psi_window=SymbolTable(grid, window.astype(complex)), abs_w=abs_w,
        exp_xi_factors=[SymbolTable(grid, v) for v in P],
        dx_exp_factors=[SymbolTable(grid, (-1j) ** (a + 1) * v)
                        for a, v in enumerate(Q)])


def conjugation_expansion(q: SymbolTable, phase: PhaseTables, n_trunc: int):
    """sum over 1 <= a+b < N of (1/a!b!) d_xi^a { P_b D_x^b q Q_a }.

    This is the correction produced by sandwiching op(q) between op(e^lam)
    and the adjoint of op(e^-lam); the exponentials cancel pointwise inside
    the braces.  The series is asymptotic: the cutoff factors are Gevrey
    of order two, so at finite grid frequencies the terms eventually grow
    factorially.  Orders are therefore accumulated only while they keep
    shrinking (optimal truncation), capped by the requested n_trunc.
    """
    n_trunc = min(n_trunc, 5)
    g = q.grid
    dxq = {0: q}
    for b in range(1, n_trunc):
        dxq[b] = dx_operator(q, b)
    total = SymbolTable(g, np.zeros((g.N, g.N), dtype=complex))
    prev_size = None
    for s in range(1, n_trunc):
        group = SymbolTable(g, np.zeros((g.N, g.N), dtype=complex))
        for a in range(0, s + 1):
            b = s - a
            core = dxq[b]
            if b >= 1:
                core = phase.exp_xi_factors[b - 1] * core
            if a >= 1:
                core = core * phase.dx_exp_factors[a - 1]
                core = xi_derivative(core, a)
            group = group + core * (1.0 / (math.factorial(a) * math.factorial(b)))
        size = float(np.max(np.abs(group.values)))
        if prev_size is not None and size > prev_size:
            break
        total = total + group
        prev_size = size
    return total


def truncation_order(m, theta, cap=8):
    """Smallest N with m - (1 - 1/theta) N <= 0, capped for stability."""
    step = 1.0 - 1.0 / theta
    if step <= 0:
        raise ParameterError("theta must exceed 1")
    return max(1, min(cap, math.ceil(m / step)))


# ----------------------------------------------------------------------
# the conjugator bundle: op(e^lam), its inverse, the time stage
# ----------------------------------------------------------------------

def fourier_rows(*tables):
    """The tables' first rows if every row of each equals its first, else
    None: the one rule for an operator's variant, since a table with equal
    rows is x-independent and quantizes to the multiplier of its row."""
    if all(np.all(T == T[:1]) for T in tables):
        return [T[0] for T in tables]


@dataclass
class ConjugatorBundle:
    """The spatial conjugator op(e^lam) and its inverse as operators, their
    diagnostics, and the assembler of the conjugated symbols, which keeps
    the grid, params, problem and phase tables both were built from.

    E and E_inv read neither C1 nor C2; the time stage and the assembler's
    generator read both, so the assembler's params must carry the calibrated
    constants before the bundle is applied (``with_params``)."""

    E: "Multiplier | Dense"        # op(e^lam)
    E_inv: "Multiplier | Dense"    # 1 / row, E_star sum_j (-R)^j, or inv(E)
    spectral_radius: float         # of R = E E_star - I, E_star = op(e^-lam)*
    residual: float                # ||E E_inv - I||_2
    series_terms: int
    symbol_gap: float              # ||op(truncated remainder symbol) - R||_2
    assembler: "ConjugationAssembler"

    grid = property(lambda self: self.assembler.grid)
    params = property(lambda self: self.assembler.params)
    problem = property(lambda self: self.assembler.problem)

    def with_params(self, params: WeightParams):
        """This bundle with other k(t) constants C1, C2.  The copy shares the
        operators and the assembler's tables, which read neither."""
        return replace(self, assembler=self.assembler.with_params(params))

    def time_stage(self, t, sign=+1):
        """op(e^{sign k(t) <xi>_h^{1/theta}}), a Fourier multiplier."""
        expo = sign * float(k_of_t(t, self.params)) * self.assembler.xi_pow
        if np.max(expo) > 690.0:
            raise ParameterError("time-weight multiplier overflows; reduce k0")
        return Multiplier(self.grid, np.exp(expo))

    def apply_full(self, u, t):
        """op(e^Lam(t)) u: the spatial stage E, then the time stage."""
        return self.time_stage(t).matvec(self.E.matvec(u))

    def apply_full_inverse(self, v, t):
        """{op(e^Lam(t))}^{-1} v: the inverse time stage, then E_inv."""
        return self.E_inv.matvec(self.time_stage(t, -1).matvec(v))


def build_conjugator(p: ProblemSpec, params: WeightParams, grid: Grid,
                     series_tol: float = 1e-10,
                     inverse_tol: float = 1e-8,
                     mode: str = "neumann") -> ConjugatorBundle:
    """Build op(e^lam), its inverse and the assembler of the conjugated
    symbols, all from one set of phase tables.

    When the phase and the remainder symbol are x-independent (fourier_rows)
    E and E_inv are the Multipliers of the row e^lam and its reciprocal, and
    every diagnostic is measured on the rows.  Otherwise the inverse follows
    the adjoint-times-Neumann-series structure; the series runs on the exact
    discrete remainder E (op e^-lam)* - I, so with a convergent series the
    composite residual lands at series_tol level.  The series stops once
    the Frobenius norm of a term, an upper bound of its spectral norm, falls
    below series_tol; the exact residual is checked once at the end.
    ``mode="dense"`` replaces either with a dense E and a direct dense
    inverse (cross-check oracle, N <= 256).
    """
    phase = build_phase_tables(p, params, grid)
    N = grid.N
    # truncated symbol expansion of the remainder (diagnostic + convergence
    # certificate): sum_{g=1..3} (1/g!) d_xi^g (e^lam D_x^g e^-lam)
    sym = SymbolTable(grid, np.zeros((N, N), dtype=complex))
    for gma in (1, 2, 3):
        w = phase.dx_exp_factors[gma - 1]
        sym = sym + xi_derivative(w, gma) * (1.0 / math.factorial(gma))
    # tables zero the unmatched Nyquist mode; let the conjugator act as the
    # identity on it so the operator stays invertible
    nyq = np.zeros(N)
    nyq[grid.nyquist] = 1.0
    exp_lam, exp_neg = exp_table(phase.lam), exp_table(phase.lam * -1.0)
    rows = None if mode == "dense" else fourier_rows(phase.lam.values,
                                                     sym.values)
    if rows is not None:
        e = exp_lam.values[0] + nyq
        R = e * np.conj(exp_neg.values[0] + nyq) - 1.0
        E, E_inv = Multiplier(grid, e), Multiplier(grid, 1.0 / e)
        rho, gap = float(np.max(np.abs(R))), float(np.max(np.abs(rows[1] - R)))
        residual, terms = float(np.max(np.abs(e * E_inv.row - 1.0))), 0
    else:
        I = np.eye(N, dtype=complex)
        P_nyq = Multiplier(grid, nyq).dense()
        E = to_dense(exp_lam) + P_nyq
        E_star = adjoint(to_dense(exp_neg) + P_nyq)
        R = E @ E_star - I
        nrm = operator_norm(R)
        rho = nrm if nrm < 1.0 else float(np.max(np.abs(np.linalg.eigvals(R))))
        gap = operator_norm(to_dense(sym) - R)
        terms = 0
        if mode == "dense":
            if N > 256:
                raise ParameterError("dense inverse mode is limited to N <= 256")
            E_inv = np.linalg.inv(E)
        else:
            if rho >= 1.0:
                raise ConvergenceError(
                    f"Neumann remainder has spectral radius {rho:.3f} >= 1; "
                    "increase h")
            S, term = I.copy(), I
            for j in range(1, NEUMANN_MAX_TERMS + 1):
                term = term @ (-R)
                S = S + term
                terms = j
                if np.linalg.norm(term) < series_tol:
                    break
            E_inv = E_star @ S
        residual = operator_norm(E @ E_inv - I)
        E, E_inv = Dense(grid, E), Dense(grid, E_inv)
    if residual > inverse_tol:
        raise ConvergenceError(
            f"conjugator inverse residual {residual:.3e} exceeds "
            f"{inverse_tol}; increase h or loosen inverse_tol")
    return ConjugatorBundle(E=E, E_inv=E_inv, spectral_radius=rho,
                            residual=residual, series_terms=terms, symbol_gap=gap,
                            assembler=ConjugationAssembler(p, params, grid, phase))


# ----------------------------------------------------------------------
# conjugated symbols and the assembler that builds them
# ----------------------------------------------------------------------

@dataclass
class ConjugatedSymbols:
    """Named term tables of the conjugated generator at one time.

    Grouping: order-2 block a2t = ia2 + damp2 + b2k + ia2_k, order-1 block
    a1t = ia1 + damp1 + i d1 + a2cross, and the 1/theta block
    atheta = kprime + b1k + ia1_k.  The report decomposition splits the
    damping terms into their full-strength parts plus window tails (which
    belong with the 1/theta block for the lower bounds).
    """

    grid: Grid
    a3_row: np.ndarray
    parts: dict
    _herm: dict = field(default_factory=dict, repr=False)

    def group_order2(self):
        p = self.parts
        return p["ia2"] + p["damp2"] + p["b2k"] + p["ia2_k"]

    def group_order1(self):
        p = self.parts
        return p["ia1"] + p["damp1"] + p["id1"] + p["a2cross"]

    def group_theta(self):
        p = self.parts
        return p["kprime"] + p["b1k"] + p["ia1_k"]

    def generator_table(self):
        """Everything except the exactly-diagonalized ia3 multiplier (the
        reference definition of ConjugationAssembler.generator)."""
        return self.group_order2() + self.group_order1() + self.group_theta()

    def spatial_table(self):
        """Conjugation of the spatial generator only (no d/dt artifacts):
        drops the -k' <xi>^{1/theta} term produced by the time stage."""
        ia3 = multiplier_table(self.grid, 1j * self.a3_row)
        return ia3 + self.generator_table() - self.parts["kprime"]

    def hermitian_corrections(self):
        """Symbols c (from Re a2) and e (from the k-stage imaginary parts):
        the Hermitian halves of i Im a2t that feed the order-1 lower bound."""
        if not self._herm:
            self._herm["c"] = _hermitian_half(self.parts["re_a2_raw"])
            im_tab = self.parts["b2k"].imag + self.parts["ia2_k"].imag
            self._herm["e"] = _hermitian_half(im_tab)
        return self._herm

    def margin_tables(self):
        """Re parts of the three groups in report form (window tails moved
        into the 1/theta group, damping at full strength in its own group)."""
        p = self.parts
        herm = self.hermitian_corrections()
        re2 = (p["ia2"].real + p["m2_main"] + p["b2k"].real + p["ia2_k"].real)
        re1 = (p["ia1"].real + p["m1_main"] + p["a2cross"].real
               + herm["c"].real + herm["e"].real)
        ret = (p["kprime"].real + p["b1k"].real + p["ia1_k"].real
               + p["m2_tail"] + p["m1_tail"])
        return {"order2": re2, "order1": re1, "theta": ret}


def _hermitian_half(im_table: SymbolTable):
    """sum_{a>=1} (i / (2 a!)) d_xi^a D_x^a of a real table, up to order 3
    with optimal truncation (the iterated mixed derivatives are asymptotic
    on the grid)."""
    g = im_table.grid
    total = SymbolTable(g, np.zeros((g.N, g.N), dtype=complex))
    prev_size = None
    for a in (1, 2, 3):
        term = xi_derivative(dx_operator(im_table, a), a) \
            * (1j / (2.0 * math.factorial(a)))
        size = float(np.max(np.abs(term.values)))
        if prev_size is not None and size > prev_size:
            break
        total = total + term
        prev_size = size
    return total


class ConjugationAssembler:
    """Builds ConjugatedSymbols at arbitrary times, caching everything that
    does not change with t.

    For problems whose lower-order coefficients are time-independent the
    per-time work is a few table AXPYs in powers of k(t); time-modulated
    problems rebuild the coefficient-dependent tables per coefficient time
    (memoized).  ``generator(t)`` is the summed table, evaluated as the
    polynomial G_0 + sum_j k(t)^j G_j - k'(t) <xi>_h^{1/theta}; G_0 and the
    G_j are summed once per coefficient time, on first use.
    ``stage_operator(t)`` is the operator the time stepper applies.
    """

    def __init__(self, p: ProblemSpec, params: WeightParams, grid: Grid,
                 phase: PhaseTables = None):
        self.problem = p
        self.params = params
        self.grid = grid
        self.phase = phase or build_phase_tables(p, params, grid)
        self.xi_pow = bracket_h(grid.xi, params.h) ** (1.0 / params.theta)
        # derivatives of <xi>_h^{1/theta}: incomplete Bell table over beta<=4
        derivs = bracket_power_derivatives(grid.xi, params.h, 1.0 / params.theta, 4)
        self._bell_xi = partial_bell(4, derivs)
        self._cache = {}

    def with_params(self, params: WeightParams):
        """This assembler with other k(t) constants C1, C2.  No cached table
        reads them, so the copy shares the cache."""
        if replace(params, C1=self.params.C1, C2=self.params.C2) != self.params:
            raise ParameterError("an assembler's params may differ only in C1, C2")
        other = copy.copy(self)
        other.params = params
        return other

    # -- time-independent machinery -----------------------------------

    def _lambda_stage(self, t):
        """Tables from the spatial-stage conjugation at coefficient time t."""
        p, params, g, ph = self.problem, self.params, self.grid, self.phase
        a3_row = np.asarray(p.a3(t, 0.0, g.xi), dtype=float)
        da3_row = np.asarray(p.a3.dxi(t, 0.0, g.xi), dtype=float)
        a3 = multiplier_table(g, a3_row)
        da3 = multiplier_table(g, da3_row)

        ia2 = eval_table(p.a2, g, t) * 1j
        ia1 = eval_table(p.a1, g, t) * 1j
        a2 = eval_table(p.a2, g, t)

        damp2 = da3 * ph.lam2_x * -1.0
        damp1 = da3 * ph.lam1_x * -1.0

        # real order-1 symbol produced by the spatial stage (depends only on
        # lam2): (1/2) d_xi^2 { a3 (lam2_xx - lam2_x^2) }
        #        - d_xi a3 * d_xi lam2_xx + d_xi(a3 lam2_x) * d_xi lam2_x
        #        - (1/2) a3 { d_xi^2 (lam2_xx + lam2_x^2) + 2 (d_xi lam2_x)^2 }
        l2x, l2xx = ph.lam2_x, ph.lam2_xx
        termA = xi_derivative(a3 * (l2xx - l2x * l2x), 2) * 0.5
        termB = da3 * xi_derivative(l2xx, 1) * -1.0
        termC = xi_derivative(a3 * l2x, 1) * ph.dxdxi_lam2
        termD = (a3 * (xi_derivative(l2xx + l2x * l2x, 2)
                       + ph.dxdxi_lam2 * ph.dxdxi_lam2 * 2.0)) * -0.5
        d1 = termA + termB + termC + termD

        n2 = truncation_order(2.0, params.theta)
        ia2_n = conjugation_expansion(ia2, ph, n2)
        ia2_lt = ia2_n + (ia2_n * ph.dxdxi_lam2) * -1j
        n1 = truncation_order(1.0, params.theta)
        ia1_lt = conjugation_expansion(ia1, ph, n1)

        a2cross = a2 * ph.dxdxi_lam2

        # report split of the damping: full strength + window tail, both
        # carried on the support of the sign selector (the identity
        # damp = main + tail holds where |w| saturates, which is exactly the
        # region the lower bounds are checked on)
        absda3_w = np.abs(da3_row) * ph.abs_w
        bx = np.sqrt(1.0 + np.square(g.x))[:, None]
        m2_main = SymbolTable(g, (absda3_w[None, :] * params.M2
                                  * bx ** (-params.sigma)).astype(complex))
        m2_tail = SymbolTable(g, -(m2_main.values
                                   * (1.0 - ph.psi_window.values.real)))
        bh = bracket_h(g.xi, params.h)
        m1_main = SymbolTable(g, (absda3_w[None, :] / bh[None, :] * params.M1
                                  * bx ** (-params.sigma / 2.0)).astype(complex))
        m1_tail = SymbolTable(g, -(m1_main.values
                                   * (1.0 - ph.psi_window.values.real)))

        return dict(a3_row=a3_row, da3_row=da3_row, ia2=ia2, ia1=ia1,
                    re_a2_raw=a2.real, damp2=damp2, damp1=damp1,
                    id1=d1 * 1j, d1=d1, ia2_lt=ia2_lt, ia1_lt=ia1_lt,
                    a2cross=a2cross, m2_main=m2_main.real, m2_tail=m2_tail,
                    m1_main=m1_main.real, m1_tail=m1_tail)

    def _k_stage_cache(self, stage):
        """For each group conjugated by the time multiplier, the tables
        U_j with  correction(t) = sum_j k(t)^j U_j.

        Orders b are kept while the gauge size of their contribution (at
        k = k0) keeps shrinking; the series is asymptotic on the grid."""
        params = self.params
        groups = {
            "b2k": (stage["ia2"] + stage["damp2"], 2.0),
            "b1k": (stage["ia1"] + stage["damp1"] + stage["id1"]
                    + stage["a2cross"], 1.0),
            "a2k": (stage["ia2_lt"], 2.0 - (2.0 * params.sigma - 1.0)),
            "a1k": (stage["ia1_lt"], 2.0 * (1.0 - params.sigma)),
        }
        out = {}
        for name, (base, order) in groups.items():
            nk = truncation_order(order, params.theta, cap=5)
            U = {}
            prev_size = None
            for b in range(1, nk):
                dxb = dx_operator(base, b).values / math.factorial(b)
                adds = {}
                gauge = np.zeros_like(dxb)
                for j in range(1, b + 1):
                    coeff = self._bell_xi[b][j]
                    if np.isscalar(coeff) and coeff == 0.0:
                        continue
                    adds[j] = coeff[None, :] * dxb
                    gauge = gauge + (params.k0 ** j) * adds[j]
                size = float(np.max(np.abs(gauge)))
                if prev_size is not None and size > prev_size:
                    break
                prev_size = size
                for j, add in adds.items():
                    U[j] = U.get(j, 0.0) + add
            out[name] = {j: SymbolTable(self.grid, v) for j, v in U.items()}
        return out

    def _static_tables(self, t):
        """One entry for time-independent coefficients; one per time
        (memoized, at most 12) for time-dependent ones.  An entry holds the
        spatial-stage tables, the k-stage tables and, once generator() has
        asked for them, the generator's polynomial coefficients."""
        key = round(float(t), 12) if self.problem.time_dependent else None
        if key not in self._cache:
            stage = self._lambda_stage(0.0 if key is None else t)
            self._cache[key] = {"stage": stage, "k": self._k_stage_cache(stage)}
            if len(self._cache) > 12:
                self._cache.pop(next(iter(self._cache)))
        return self._cache[key]

    # -- public assembly ----------------------------------------------

    def _polynomial(self, t):
        """(G_0, {j: G_j}, rows) at the coefficient time of t, summed on
        first use.  rows holds the same tables' first rows when every row of
        each is equal, and is None otherwise."""
        entry = self._static_tables(t)
        if "poly" not in entry:
            stage = entry["stage"]
            G0 = sum(stage[name].values for name in (
                "ia2", "damp2", "ia2_lt", "ia1", "damp1", "id1", "a2cross",
                "ia1_lt"))
            Gj = {}
            for tabs in entry["k"].values():
                for j, tab in tabs.items():
                    Gj[j] = Gj.get(j, 0.0) + tab.values
            rows = fourier_rows(G0, *Gj.values())
            if rows is not None:
                rows = (rows[0], dict(zip(Gj, rows[1:])))
            entry["poly"] = (G0, Gj, rows)
        return entry["poly"]

    def _kprime_row(self, t):
        """-k'(t) <xi>_h^{1/theta}, zero in the Nyquist slot tables lack."""
        row = -float(k_prime(t, self.params)) * self.xi_pow
        row[self.grid.nyquist] = 0.0
        return row

    def _evaluate(self, t, G0, Gj):
        """G0 + sum_j k(t)^j Gj - k'(t) <xi>_h^{1/theta}, on tables or rows."""
        k = float(k_of_t(t, self.params))
        out = G0 + self._kprime_row(t)
        for j, G in Gj.items():
            out += (k ** j) * G
        return out

    def generator(self, t: float) -> np.ndarray:
        """Values of at(t).generator_table(), evaluated as the polynomial
        G_0 + sum_j k(t)^j G_j - k'(t) <xi>_h^{1/theta}."""
        G0, Gj, _ = self._polynomial(t)
        return self._evaluate(t, G0, Gj)

    def stage_operator(self, t: float):
        """The generator at time t as the time stepper applies it.

        The variant is read off the tables of t's coefficient time by
        fourier_rows: when G_0 and every G_j are x-independent, the
        generator is a Fourier multiplier (the k' term is a row already)
        and applies with one FFT pair; otherwise it is
        quantized(generator(t))."""
        G0, Gj, rows = self._polynomial(t)
        if rows is not None:
            return Multiplier(self.grid, self._evaluate(t, *rows))
        return quantized(self.grid, self._evaluate(t, G0, Gj))

    def at(self, t: float) -> ConjugatedSymbols:
        entry = self._static_tables(t)
        stage, kcache = entry["stage"], entry["k"]
        g, params = self.grid, self.params
        k = float(k_of_t(t, params))

        def k_sum(name):
            tabs = kcache[name]
            if not tabs:
                return SymbolTable(g, np.zeros((g.N, g.N), dtype=complex))
            acc = 0.0
            for j, tab in tabs.items():
                acc = acc + (k ** j) * tab.values
            return SymbolTable(g, acc)

        b2k = k_sum("b2k")
        b1k = k_sum("b1k")
        ia2_k = stage["ia2_lt"] + k_sum("a2k")
        ia1_k = stage["ia1_lt"] + k_sum("a1k")
        kprime = multiplier_table(g, self._kprime_row(t) + 0j)

        parts = dict(
            ia2=stage["ia2"], damp2=stage["damp2"], b2k=b2k, ia2_k=ia2_k,
            ia1=stage["ia1"], damp1=stage["damp1"], id1=stage["id1"],
            a2cross=stage["a2cross"], kprime=kprime, b1k=b1k, ia1_k=ia1_k,
            m2_main=stage["m2_main"], m2_tail=stage["m2_tail"],
            m1_main=stage["m1_main"], m1_tail=stage["m1_tail"],
            d1=stage["d1"], re_a2_raw=stage["re_a2_raw"],
        )
        return ConjugatedSymbols(grid=g, a3_row=stage["a3_row"], parts=parts)

