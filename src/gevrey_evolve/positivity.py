"""Lower-bound verification and automatic weight selection.

The conjugated generator is acceptable when, outside |xi| <= R_a3 h, the
real parts of its three blocks are nonnegative after normalization:

    Re a2t  / ( <xi>_h^2        <x>^-sigma   )   order-2 block,
    Re (a1t + c + e) / ( <xi>_h <x>^-sigma/2 )   order-1 block,
    Re atheta / <xi>_h^{1/theta}                 residual block.

Selection works constant-first: measure what must be dominated, choose the
weight strengths with a margin, then grow h until the h-suppressed
remainder terms fit inside the margin and the time weight stays positive.
The constants entering the k(t) equation are measured here and fed back
into the weight parameters.
"""

from dataclasses import dataclass, field

import numpy as np

from .conjugate import (ConjugationAssembler, ConjugatorBundle,
                        _hermitian_half, build_conjugator, dxdxi_lambda2)
from .errors import ConvergenceError, InfeasibleError, ParameterError
from .grid import Grid, bracket_h
from .quantize import SymbolTable, to_dense
from .symbols import ProblemSpec, check_assumptions, eval_table
from .weights import WeightParams, k_of_t

ZERO_THRESHOLD = 1e-13
N_T_SAMPLES = 5     # coefficient times on [0, T] where constants are measured
FP_ROUNDS = 5       # fixed-point rounds of the C1, C2 calibration
GARDING_BAND = 0.5  # Garding floors read the band |xi| <= GARDING_BAND xi_max


@dataclass
class BoundRow:
    bound: str
    t: float
    margin: float
    witness_x: float
    witness_xi: float

    def csv(self):
        return (f"{self.bound},{self.t!r},{self.margin!r},"
                f"{self.witness_x!r},{self.witness_xi!r}")


@dataclass
class PositivityReport:
    params: WeightParams
    rows: list = field(default_factory=list)
    garding_floors: dict = field(default_factory=dict)
    region_size: int = 0
    tolerance: float = 1e-8
    passed: bool = False
    detail: str = ""

    def min_margin(self, bound=None):
        vals = [r.margin for r in self.rows if bound is None or r.bound == bound]
        return min(vals) if vals else float("nan")

    def csv_lines(self):
        out = ["# schema=1", "bound,t,margin,witness_x,witness_xi"]
        out += [r.csv() for r in self.rows]
        return out

    def lines(self):
        out = [f"positivity report: passed={self.passed} "
               f"(region nodes per time: {self.region_size}, tol={self.tolerance})"]
        if self.detail:
            out.append(f"  {self.detail}")
        for name in ("order2", "order1", "theta"):
            rows = [r for r in self.rows if r.bound == name]
            if rows:
                worst = min(rows, key=lambda r: r.margin)
                out.append(f"  {name}: min margin {worst.margin:.3e} at "
                           f"t={worst.t:.3g}, x={worst.witness_x:.3g}, "
                           f"xi={worst.witness_xi:.3g}")
        for k, v in self.garding_floors.items():
            out.append(f"  garding floor {k}: {v:.6g}")
        return out


def discrete_garding(sym: SymbolTable, grid: Grid) -> float:
    """Smallest eigenvalue of the Hermitian part of the quantized symbol,
    restricted to the resolved band.

    The top octave of the lattice carries aliasing from pointwise symbol
    products, which drives the unrestricted floor down like xi_max^order;
    restricted to band-limited states the floor is N-stable and matches the
    continuum lower-bound picture.
    """
    A = to_dense(sym)
    H = 0.5 * (A + A.conj().T)
    basis = grid.synthesis_matrix()[:, grid.band_mask(GARDING_BAND)]
    H_band = basis.conj().T @ H @ basis
    return float(np.linalg.eigvalsh(H_band)[0])


def _margin_normalizers(grid, params):
    bh = bracket_h(grid.xi, params.h)[None, :]
    bx = np.sqrt(1.0 + np.square(grid.x))[:, None]
    return {
        "order2": bh ** 2 * bx ** (-params.sigma),
        "order1": bh * bx ** (-params.sigma / 2.0),
        "theta": bh ** (1.0 / params.theta) * np.ones_like(bx),
    }


def verify_lower_bounds(assembler: ConjugationAssembler, t_samples,
                        tol: float = 1e-8,
                        with_garding: bool = False) -> PositivityReport:
    """Normalized minima of the three real-part blocks of the assembler's
    symbols over the grid region |xi| > R_a3 h, at each sample time.
    Failures are rows, not errors."""
    params, grid = assembler.params, assembler.grid
    region = np.abs(grid.xi) > params.R_a3 * params.h
    region[grid.nyquist] = False
    report = PositivityReport(params=params, tolerance=tol,
                              region_size=int(np.count_nonzero(region)))
    if report.region_size == 0:
        report.passed = False
        report.detail = (f"no grid frequencies beyond R_a3*h = "
                         f"{params.R_a3 * params.h:.3g}; xi_max = {grid.xi_max:.3g}")
        return report
    norms = _margin_normalizers(grid, params)
    ok = True
    for t in np.atleast_1d(t_samples):
        cs = assembler.at(float(t))
        tables = cs.margin_tables()
        for name, tab in tables.items():
            vals = tab.values.real / norms[name]
            sub = vals[:, region]
            j, kk = np.unravel_index(np.argmin(sub), sub.shape)
            margin = float(sub[j, kk])
            xi_region = grid.xi[region]
            report.rows.append(BoundRow(name, float(t), margin,
                                        float(grid.x[j]), float(xi_region[kk])))
            scale = max(1.0, float(np.max(np.abs(sub))))
            if margin < -tol * scale:
                ok = False
        if with_garding and t == np.atleast_1d(t_samples)[0]:
            report.garding_floors = {
                "order2": discrete_garding(cs.group_order2().real, grid),
                "order1": discrete_garding(cs.group_order1().real, grid),
                "theta": discrete_garding(cs.group_theta().real, grid),
            }
    report.passed = ok
    return report


# ----------------------------------------------------------------------
# parameter selection
# ----------------------------------------------------------------------

def _sup_normalized(values, normalizer, region=None):
    q = np.abs(values) / normalizer
    if region is not None:
        q = q[:, region]
    return float(np.max(q)) if q.size else 0.0


def calibrate_time_weight(assembler: ConjugationAssembler) -> WeightParams:
    """Fixed-point measurement of the constants C1, C2 in k' + C1 k + C2 = 0,
    at N_T_SAMPLES times in [0, T].

    C1 bounds the negative part of the k-stage order-1/theta remainder
    relative to k(t); C2 bounds the k-independent negative contributions
    (conjugated order-1 tail and the window tails).  Returns the assembler's
    params with the measured constants installed; raises if k(T) dies
    inside the horizon.  The assembler's tables read neither C1 nor C2, so
    it serves every round.
    """
    p, params, grid = assembler.problem, assembler.params, assembler.grid
    ts = np.linspace(0.0, p.T, N_T_SAMPLES)
    bx = np.ones((grid.N, 1))
    norm_t = bracket_h(grid.xi, params.h)[None, :] ** (1.0 / params.theta) * bx
    region = np.abs(grid.xi) > params.R_a3 * params.h
    region[grid.nyquist] = False
    C1, C2 = 0.0, 0.0
    for _ in range(FP_ROUNDS):
        params = params.with_ode_constants(C1, C2)
        k_of_t(p.T, params)  # raises ParameterError if k dies on [0, T]
        asm = assembler.with_params(params)
        C1_new, C2_new = 0.0, 0.0
        for t in ts:
            cs = asm.at(float(t))
            kt = float(k_of_t(t, params))
            neg_b1 = np.maximum(0.0, -cs.parts["b1k"].values.real)
            C1_new = max(C1_new, _sup_normalized(neg_b1, norm_t, region) / kt)
            rest = (cs.parts["ia1_k"].values.real
                    + cs.parts["m2_tail"].values.real
                    + cs.parts["m1_tail"].values.real)
            C2_new = max(C2_new, _sup_normalized(np.maximum(0.0, -rest),
                                                 norm_t, region))
        moved = (abs(C1_new - C1) > 0.01 * max(C1, 1e-12)
                 or abs(C2_new - C2) > 0.01 * max(C2, 1e-12))
        C1, C2 = C1_new, C2_new
        if not moved:
            break
    params = params.with_ode_constants(C1, C2)
    k_of_t(p.T, params)
    return params


def build_calibrated_conjugator(p: ProblemSpec, params: WeightParams,
                                grid: Grid, series_tol: float = 1e-10,
                                inverse_tol: float = 1e-8) -> ConjugatorBundle:
    """The conjugator for ``params``, with C1 and C2 calibrated on its
    assembler and installed in both."""
    bundle = build_conjugator(p, params, grid, series_tol=series_tol,
                              inverse_tol=inverse_tol)
    return bundle.with_params(calibrate_time_weight(bundle.assembler))


def select_parameters_detailed(p: ProblemSpec, theta: float, grid: Grid,
                               k0: float = 0.35, margin: float = 0.08,
                               h_start: float = 1.0, h_max: float = 2.0 ** 14,
                               series_tol: float = 1e-10,
                               inverse_tol: float = 1e-8,
                               M2_pin=None, M1_pin=None, assumptions=None):
    """Measure-dominate-verify loop; returns (WeightParams, details dict).

    M2_pin / M1_pin freeze a strength instead of deriving it from the
    measured constants (used by parameter sweeps).  ``assumptions`` is a
    report from check_assumptions(p, grid, theta), computed here if absent.
    The returned params come with their calibrated conjugator in
    details["bundle"], on the trivial branch too."""
    rep = (check_assumptions(p, grid, theta) if assumptions is None
           else assumptions)
    rep.require()
    C_a3 = rep.constant("hyp-i-leading")
    C_a2 = rep.constant("hyp-iii-order2-decay")
    C_a1 = rep.constant("hyp-iv-order1-decay")
    ts = np.linspace(0.0, p.T, N_T_SAMPLES)
    details = {"C_a3": C_a3, "C_a2": C_a2, "C_a1": C_a1,
               "assumptions": rep, "history": []}

    # overflow surrogate for the smallness threshold on k(0)
    k0_cap = 300.0 / float(np.max(bracket_h(grid.xi, 1.0) ** (1.0 / theta)))
    k0 = min(k0, 0.5 * k0_cap)

    D = float(np.sqrt(1.0 + grid.L ** 2))
    if (C_a2 < ZERO_THRESHOLD and C_a1 < ZERO_THRESHOLD
            and M2_pin is None and M1_pin is None):
        # nothing to dominate: the identity conjugator keeps the solver exact
        params = WeightParams(M2=0.0, M1=0.0, h=h_start, k0=k0,
                              sigma=p.sigma, theta=theta, R_a3=p.R_a3,
                              domain_cap=D)
        details["trivial"] = True
        details["bundle"] = build_calibrated_conjugator(
            p, params, grid, series_tol, inverse_tol)
        return details["bundle"].params, details

    M2 = 2.0 * (C_a2 + margin) / C_a3 if M2_pin is None else float(M2_pin)
    bx = np.sqrt(1.0 + np.square(grid.x))[:, None]
    failure = "h search did not start"
    h = h_start
    while h <= h_max:
        trial = {"h": h, "M2": M2}
        try:
            params = WeightParams(M2=M2, M1=0.0, h=h, k0=k0, sigma=p.sigma,
                                  theta=theta, R_a3=p.R_a3, domain_cap=D)
            region = np.abs(grid.xi) > params.R_a3 * h
            region[grid.nyquist] = False
            if not np.any(region):
                failure = (f"no frequencies beyond R_a3*h={params.R_a3 * h:.3g} "
                           f"on this grid (xi_max={grid.xi_max:.3g}); "
                           "refine the grid or shrink L")
                break
            # constants entering the order-1 inequality, measured with lam2
            dxdxi_lam2 = dxdxi_lambda2(p, params, grid)
            norm1 = bracket_h(grid.xi, h)[None, :] * bx ** (-p.sigma / 2.0)
            C_a2l2, C_c = 0.0, 0.0
            for t in ts:
                a2 = eval_table(p.a2, grid, float(t))
                cross = (a2.values * dxdxi_lam2.values).real
                C_a2l2 = max(C_a2l2, _sup_normalized(cross, norm1))
                c_tab = _hermitian_half(a2.real)
                C_c = max(C_c, _sup_normalized(c_tab.values.real, norm1))
            M1 = (2.0 * (C_a1 + C_a2l2 + C_c + margin) / C_a3
                  if M1_pin is None else float(M1_pin))
            trial.update(M1=M1, C_a2l2=C_a2l2, C_c=C_c)
            params = WeightParams(M2=M2, M1=M1, h=h, k0=k0, sigma=p.sigma,
                                  theta=theta, R_a3=p.R_a3, domain_cap=D)
            bundle = build_calibrated_conjugator(p, params, grid, series_tol,
                                                 inverse_tol)
            params = bundle.params
            trial.update(spectral_radius=bundle.spectral_radius,
                         inverse_residual=bundle.residual,
                         C1=params.C1, C2=params.C2,
                         kT=float(k_of_t(p.T, params)))
            report = verify_lower_bounds(bundle.assembler, ts)
            trial.update(margins={b: report.min_margin(b)
                                  for b in ("order2", "order1", "theta")},
                         passed=report.passed)
            details["history"].append(trial)
            if report.passed:
                details["report"] = report
                details["bundle"] = bundle
                return params, details
            worst = min(report.rows, key=lambda r: r.margin)
            failure = (f"{worst.bound} margin {worst.margin:.3e} at h={h} "
                       f"(witness x={worst.witness_x:.3g}, xi={worst.witness_xi:.3g})")
        except (ConvergenceError, ParameterError) as exc:
            failure = f"h={h}: {exc}"
            details["history"].append({**trial, "error": str(exc)})
        h *= 2.0
    raise InfeasibleError(
        f"no admissible h in [{h_start}, {h_max}]: last failure: {failure}")


def select_parameters(p: ProblemSpec, theta: float, grid: Grid,
                      **kw) -> WeightParams:
    """Automatically chosen weight strengths, shift h, and k(t) constants."""
    params, _ = select_parameters_detailed(p, theta, grid, **kw)
    return params
