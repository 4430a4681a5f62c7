"""Symbols, the model problem library, and numerical class-membership checks.

A Symbol wraps a vectorized evaluator (t, x, xi) -> complex together with its
declared order.  The leading library symbol also carries its closed-form
xi-derivative, which the sign selector and the assembly read exactly.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._stencil import fd_weights
from .errors import ConfigurationError, EvaluationError, ParameterError
from .grid import Grid
from .quantize import SymbolTable, sampled_table


@dataclass(frozen=True)
class Symbol:
    """Evaluator plus declared order."""

    fn: Callable                      # (t, x, xi) -> complex array
    order: float
    dxi: Optional[Callable] = None    # analytic d/dxi, if available
    name: str = ""

    def __call__(self, t, x, xi):
        return self.fn(t, x, xi)


def zero_symbol():
    return Symbol(fn=lambda t, x, xi: np.zeros(np.broadcast(x, xi).shape),
                  order=0.0, name="0")


def eval_table(sym: Symbol, grid: Grid, t: float) -> SymbolTable:
    """Sample a symbol on the grid lattice at time t; Nyquist column zeroed,
    one row when the samples do not depend on x (quantize.sampled_table).
    It samples xi by x: the transposed samples are column-major, and the
    table's copy of them is a plain copy."""
    vals = np.asarray(sym(t, grid.x[None, :], grid.xi[:, None]), dtype=complex)
    vals = np.broadcast_to(vals, (grid.N, grid.N)).T
    bad = ~np.isfinite(vals)
    if bad.any():
        j, k = np.argwhere(bad)[0]
        raise EvaluationError(
            f"symbol {sym.name or '<anon>'} is non-finite at "
            f"(x={grid.x[j]:.6g}, xi={grid.xi[k]:.6g}, t={t})")
    return sampled_table(grid, vals)


def theta_sup(sigma):
    """The open upper end 1/(2(1-sigma)) of the admissible Gevrey range."""
    return 1.0 / (2.0 * (1.0 - sigma))


def range_error(sigma, s0=None, theta=None, keys=("sigma", "s0", "theta")):
    """The first of the theorem's ranges, sigma in (1/2, 1), 1 < s0 <
    theta_sup and s0 <= theta < theta_sup, that is left (nan leaves each),
    as a message naming its key; else None.  An s0 or theta of None is not
    checked, and without s0 theta has no lower end."""
    sigma_key, s0_key, theta_key = keys
    if not 0.5 < sigma < 1.0:
        return f"{sigma_key} must lie in (1/2, 1), got {sigma}"
    sup = theta_sup(sigma)
    if s0 is not None and not 1.0 < s0 < sup:
        return f"{s0_key} must lie in (1, {sup:.6g}), got {s0}"
    low = -np.inf if s0 is None else s0
    if theta is not None and not low <= theta < sup:
        return (f"{theta_key} must lie in the admissible range "
                f"[{low}, {sup:.6g}) (half-open at the top), got {theta}")


@dataclass(frozen=True)
class ProblemSpec:
    """A third-order model problem with its structural constants."""

    name: str
    a3: Symbol
    a2: Symbol
    a1: Symbol
    a0: Symbol
    sigma: float
    s0: float
    T: float = 1.0
    R_a3: float = 2.0   # sign of a3' is pinned beyond this; must exceed 1
    time_dependent: bool = False

    def __post_init__(self):
        if bad := range_error(self.sigma, self.s0):
            raise ConfigurationError(bad)

    def coefficient_times(self, ts):
        """Coefficient times of ts: ts when time-dependent, else t = 0 once."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return ts if self.time_dependent else np.zeros(1)


def _x_bracket(x):
    return np.sqrt(1.0 + np.square(x))


def _cubic_a3(time_factor=None):
    tf = time_factor if time_factor is not None else (lambda t: 1.0)
    return Symbol(
        fn=lambda t, x, xi: tf(t) * xi ** 3 * np.ones(np.broadcast(x, xi).shape),
        dxi=lambda t, x, xi: 3.0 * tf(t) * xi ** 2 * np.ones(np.broadcast(x, xi).shape),
        order=3.0, name="cubic-dispersion")


MODEL_PROBLEM_IDS = ("kdv-baseline", "complex-damped", "time-modulated")


def model_problem(problem_id: str, sigma: float, strengths=(), s0: float = 1.5,
                  T: float = 1.0, domain: float = None) -> ProblemSpec:
    """Built-in model problems satisfying the structural hypotheses.

    strengths = (c2, c1, c0) scales the lower-order coefficients; missing
    entries default to (0.08, 0.04, 0.04).  When ``domain`` (the half-width
    of the periodic box) is given, the lower-order coefficients are rolled
    off smoothly before the seam so their periodic extensions stay smooth;
    the roll-off only strengthens the required spatial decay.
    """
    if problem_id not in MODEL_PROBLEM_IDS:
        raise ConfigurationError(
            f"unknown problem id {problem_id!r}; known ids: "
            + ", ".join(MODEL_PROBLEM_IDS))
    c = list(strengths) + [0.08, 0.04, 0.04][len(strengths):]
    c2, c1, c0 = c[:3]

    from .weights import plateau
    if domain is None:
        chi = lambda u: 1.0
    else:
        D = float(np.sqrt(1.0 + domain * domain))
        chi = lambda u: plateau(u, 0.5 * D, 0.68 * D)

    # R_a3 = 2 leaves a genuine annulus 1 < |xi/h| <= R_a3 for the smooth
    # sign-weight transition.
    common = dict(sigma=sigma, s0=s0, T=T, R_a3=2.0)

    if problem_id == "kdv-baseline":
        return ProblemSpec(name=problem_id, a3=_cubic_a3(),
                           a2=zero_symbol(), a1=zero_symbol(), a0=zero_symbol(),
                           **common)

    def decayed(s):
        """<x>^-s chi(<x>), as a closure."""
        def val(x):
            bx = _x_bracket(x)
            return bx ** (-s) * chi(bx)
        return val

    dec2 = decayed(sigma)
    dec1 = decayed(sigma / 2.0)

    def a2_fn_factory(tf):
        def a2_fn(t, x, xi):
            return c2 * (1.0 + 1j) * tf(t) * dec2(x) * xi ** 2
        return a2_fn

    def a1_fn(t, x, xi):
        return 1j * c1 * dec1(x) * xi

    def a0_fn(t, x, xi):
        return c0 * dec2(x) * np.ones(np.broadcast(x, xi).shape)

    if problem_id == "complex-damped":
        a2f = a2_fn_factory(lambda t: 1.0)
        return ProblemSpec(
            name=problem_id, a3=_cubic_a3(),
            a2=Symbol(a2f, order=2.0, name="damped-a2"),
            a1=Symbol(a1_fn, order=1.0, name="damped-a1"),
            a0=Symbol(a0_fn, order=0.0, name="damped-a0"),
            **common)

    # time-modulated: growing cubic coefficient, smooth modulation on a2
    tf2 = lambda t: 1.0 + (t / T) * (1.0 - t / T)
    a2f = a2_fn_factory(tf2)
    return ProblemSpec(
        name=problem_id, a3=_cubic_a3(time_factor=lambda t: 1.0 + t / T),
        a2=Symbol(a2f, order=2.0, name="modulated-a2"),
        a1=Symbol(a1_fn, order=1.0, name="damped-a1"),
        a0=Symbol(a0_fn, order=0.0, name="damped-a0"),
        time_dependent=True, **common)


# ----------------------------------------------------------------------
# numerical symbol-class membership
# ----------------------------------------------------------------------

def _stencil(order, steps):
    """Central offsets for a d^order stencil and its weights per step size
    (shape (len(steps), width)); order 0 is the single point."""
    half = (order + 5) // 2 if order else 0
    offs = np.arange(-half, half + 1, dtype=float)
    if not order:
        return offs, np.ones((steps.size, 1))
    return offs, fd_weights(offs, 0.0, order)[None, :] / steps[:, None] ** order


def estimate_seminorm(sym: Symbol, m: float, mu: float, nu: float, A: float,
                      alpha_max: int, beta_max: int, grid: Grid,
                      t: float = 0.0) -> float:
    """Estimate the normalized-derivative supremum of a symbol.

    Samples sup over (alpha, beta, x, xi) of
    A^{-a-b} a!^{-mu} b!^{-nu} <xi>^{-m+a} |d_xi^a d_x^b sym| using
    4th-order central differences with steps scaled to the local bracket.
    The symbol is evaluated once, on the widest stencils: the stencils are
    centred and widen with the order, so each (alpha, beta) reads a centred
    slice of that evaluation.  A NaN sample makes the estimate NaN, so no
    check passes on it.
    """
    if alpha_max > 6 or beta_max > 6:
        raise ParameterError("finite differencing is unstable beyond order 6")
    xs = grid.x[:: max(1, grid.N // 16)]
    band = grid.xi[grid.band_mask()]
    xis = np.sort(band)[:: max(1, band.size // 16)]
    sxi = np.sqrt(1.0 + xis * xis)
    hxi = np.maximum(0.02 * sxi, 1e-3)
    hx = np.maximum(0.02 * np.sqrt(1.0 + xs * xs), 1e-3)
    offs_xi, offs_x = _stencil(alpha_max, hxi)[0], _stencil(beta_max, hx)[0]
    # vals[i, j, k, l] = sym at (xs[i] + offs_x[k] hx[i],
    #                            xis[j] + offs_xi[l] hxi[j])
    nodes_x = (xs[:, None] + offs_x * hx[:, None])[:, None, :, None]
    nodes_xi = (xis[:, None] + offs_xi * hxi[:, None])[None, :, None, :]
    vals = np.asarray(sym.fn(t, nodes_x, nodes_xi), dtype=complex)
    vals = np.broadcast_to(vals, np.broadcast(nodes_x, nodes_xi).shape)
    cx, cxi = offs_x.size // 2, offs_xi.size // 2
    best = 0.0
    for a in range(alpha_max + 1):
        wxi = _stencil(a, hxi)[1]
        rxi = wxi.shape[1] // 2
        for b in range(beta_max + 1):
            wx = _stencil(b, hx)[1]
            rx = wx.shape[1] // 2
            # a contiguous copy keeps the summation order of an evaluation
            # on this (alpha, beta)'s stencils alone
            part = np.ascontiguousarray(
                vals[:, :, cx - rx:cx + rx + 1, cxi - rxi:cxi + rxi + 1])
            d = np.einsum("ik,ijkl,jl->ij", wx, part, wxi)
            norm = A ** (-(a + b)) / (math.factorial(a) ** mu * math.factorial(b) ** nu)
            q = norm * sxi[None, :] ** (-m + a) * np.abs(d)
            top = float(np.max(q, initial=0.0))
            if np.isnan(top):
                return top
            best = max(best, top)
    return best


# ----------------------------------------------------------------------
# hypothesis verification
# ----------------------------------------------------------------------

@dataclass
class HypothesisResult:
    name: str
    passed: bool
    constant: float = float("nan")
    witness: tuple = ()
    detail: str = ""


@dataclass
class AssumptionReport:
    problem: str
    theta: float
    results: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def require(self):
        """Raise ConfigurationError naming each failed hypothesis with its
        detail; nothing downstream is meaningful past one."""
        bad = "; ".join(f"{r.name} ({r.detail})"
                        for r in self.results if not r.passed)
        if bad:
            raise ConfigurationError(f"structural hypotheses fail: {bad}")

    def constant(self, name):
        for r in self.results:
            if r.name == name:
                return r.constant
        raise KeyError(name)

    def lines(self):
        out = [f"assumption report: problem={self.problem} theta={self.theta}"]
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            out.append(f"  [{status}] {r.name}: constant={r.constant:.6g} {r.detail}"
                       + (f" witness={r.witness}" if r.witness and not r.passed else ""))
        return out


N_T_SAMPLES = 5  # times in [0, T] where hypotheses and constants are measured


def sample_times(T):
    """The N_T_SAMPLES equispaced coefficient times of [0, T]."""
    return np.linspace(0.0, T, N_T_SAMPLES)


def _leading_row(p: ProblemSpec, grid: Grid, ts) -> HypothesisResult:
    """(i) leading coefficient: real-valued, x-independent, |d_xi a3| >= C xi^2
    on the resolved band beyond R_a3."""
    band = (np.abs(grid.xi) > p.R_a3) & grid.band_mask()
    xi_b = grid.xi[band]
    if xi_b.size == 0:
        top = float(np.max(np.abs(grid.xi[grid.band_mask()])))
        return HypothesisResult(
            "hyp-i-leading", False,
            detail=f"no resolved frequency exceeds R_a3 = {p.R_a3} (the band "
                   f"ends at |xi| = {top:.3g}); raise grid.N or shrink grid.L")
    c_a3 = np.inf
    real_ok = True
    sign_ok = True
    for t in ts:
        tab = np.asarray(p.a3(t, np.array([[0.0]]), grid.xi[None, :]),
                         dtype=complex).ravel()
        real_ok &= bool(np.max(np.abs(tab.imag)) < 1e-12)
        d = np.asarray(p.a3.dxi(t, 0.0, xi_b), dtype=float).ravel()
        c_a3 = min(c_a3, float(np.min(np.abs(d) / xi_b ** 2)))
        for side in (xi_b > 0, xi_b < 0):
            s = np.sign(d[side])
            sign_ok &= bool(s.size == 0 or np.all(s == s[0]))
    return HypothesisResult(
        "hyp-i-leading", bool(real_ok and sign_ok and c_a3 > 0), constant=c_a3,
        detail=f"measured inf |a3'|/xi^2 over {p.R_a3} < |xi| <= xi_max/2")


def check_assumptions(p: ProblemSpec, grid: Grid, theta: float) -> AssumptionReport:
    """Verify the structural hypotheses on the grid; failures are report rows.
    Rows (ii)-(iv) measure time-dependent coefficients at every sample time,
    time-independent ones at t = 0; (ii) keeps the largest, NaN if any is."""
    rep = AssumptionReport(problem=p.name, theta=theta)
    ts = sample_times(p.T)
    coefficient_times = p.coefficient_times(ts)

    rep.results.append(HypothesisResult(
        "theta-range", range_error(p.sigma, p.s0, theta) is None,
        constant=theta,
        detail=f"admissible [{p.s0}, {theta_sup(p.sigma):.6g})"))

    rep.results.append(_leading_row(p, grid, ts))

    # (ii) Gevrey regularity of lower-order symbols (sampled orders)
    for j, sym in (("a2", p.a2), ("a1", p.a1), ("a0", p.a0)):
        est = float(np.max([estimate_seminorm(
            sym, sym.order, 1.0, p.s0, A=4.0, alpha_max=2, beta_max=2,
            grid=grid, t=t) for t in coefficient_times]))
        rep.results.append(HypothesisResult(
            f"hyp-ii-regularity-{j}", bool(np.isfinite(est)),
            constant=est, detail="normalized derivative sup, orders <= 2"))

    X, XI = grid.x[:, None], grid.xi[None, :]
    bx = _x_bracket(grid.x)[:, None]
    bxi1 = np.sqrt(1.0 + XI ** 2)

    def decay_check(name, sym, xi_weight, x_weight, take_imag):
        """Normalized sup plus a growth probe: on a bounded grid the sup is
        always finite, so failure is detected as persistent growth of the
        per-|x| maxima (positive log-log slope means no constant works)."""
        c_best, wit = 0.0, ()
        qmax_x = np.zeros(grid.N)
        for t in coefficient_times:
            vals = np.asarray(sym(t, X, XI), dtype=complex)
            part = np.abs(vals.imag) if take_imag else np.abs(vals)
            q = part / (xi_weight * x_weight)
            k = np.unravel_index(np.argmax(q), q.shape)
            if q[k] > c_best:
                c_best, wit = float(q[k]), (t, grid.x[k[0]], grid.xi[k[1]])
            qmax_x = np.maximum(qmax_x, q.max(axis=1))
        outer = np.abs(grid.x) >= grid.L / 8
        slope = 0.0
        if c_best > 1e-30 and np.count_nonzero(outer) >= 8:
            lx = np.log(_x_bracket(grid.x[outer]))
            ly = np.log(np.maximum(qmax_x[outer], 1e-300))
            slope = float(np.polyfit(lx, ly, 1)[0])
        passed = slope <= 0.1
        rep.results.append(HypothesisResult(
            name, passed, constant=c_best, witness=wit,
            detail=f"growth slope in <x>: {slope:.3f}"))

    # (iii) order-2 coefficient: |Im a2| <= C <xi>^2 <x>^-sigma
    decay_check("hyp-iii-order2-decay", p.a2, bxi1 ** 2, bx ** (-p.sigma),
                take_imag=True)
    # (iv) order-1 coefficient: |Im a1| <= C <xi> <x>^{-sigma/2}
    decay_check("hyp-iv-order1-decay", p.a1, bxi1, bx ** (-p.sigma / 2.0),
                take_imag=True)
    return rep
