"""Lower-bound verification and automatic weight selection.

The conjugated generator is acceptable when, outside |xi| <= R_a3 h, the
real parts of its three blocks are nonnegative after normalization:

    Re a2t  / ( <xi>_h^2        <x>^-sigma   )   order-2 block,
    Re (a1t + c + e) / ( <xi>_h <x>^-sigma/2 )   order-1 block,
    Re atheta / <xi>_h^{1/theta}                 residual block.

Each margin sums the real parts of the tables conjugate.MARGINS names for
it (block_sum): they form one real polynomial in k per coefficient time,
ConjugationAssembler.block_polynomial on the checked region's columns,
evaluated by Horner at k(t).  kprime, (C2 + C1 k(t)) <xi>_h^{1/theta},
is one of those tables, so a polynomial that names it reads C1 and C2.
The polynomials live in a dict of the caller's: the certificate keeps one
per margin, formed after the calibration, and the calibration of C1 and
C2 one across its rounds, in which C1 and C2 move, so each round
evaluates the polynomials the first one formed: the sums it reads
(C1_PARTS, C2_PARTS) name no kprime.  real_sum, the sum of the parts
read one by one, is the reference they are checked against.

Selection works constant-first: measure what must be dominated, choose the
weight strengths with a margin, then grow h until the h-suppressed
remainder terms fit inside the margin and the time weight stays positive.
The constants entering the k(t) equation are measured here and fed back
into the weight parameters.
"""

from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .conjugate import (BLOCKS, MARGINS, CoefficientTables,
                        ConjugationAssembler, build_conjugator, checked_region)
from .errors import ConvergenceError, InfeasibleError, ParameterError
from .grid import Grid, bracket_h
from .quantize import SymbolTable, to_dense
from .symbols import ProblemSpec, check_assumptions, sample_times
from .weights import WeightParams, k_of_t

ZERO_THRESHOLD = 1e-13
FP_ROUNDS = 5       # fixed-point rounds of the C1, C2 calibration
H_SEARCH = (1.0, 2.0 ** 14)  # an unpinned selection doubles h across this range
# the parts of the order-1 margin that M1 dominates, C_a2l2 and C_c in turn
M1_PARTS = ("a2cross", "c")
# the parts of the 1/theta margin that C1 and C2 bound: all but kprime,
# which reads them
C1_PARTS = ("b1k",)
C2_PARTS = ("ia1_k", "m2_tail", "m1_tail")


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
        for name in MARGINS:
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
    """Smallest eigenvalue of the Hermitian part of op(sym), restricted to
    the resolved band.

    The top octave of the lattice carries aliasing from pointwise symbol
    products, which drives the unrestricted floor down like xi_max^order;
    restricted to band-limited states the floor is N-stable and matches the
    continuum lower-bound picture.

    A one-row table quantizes to a multiplier, whose Hermitian part is
    diagonal in xi: its floor is the smallest real part of the row on the
    band, in O(N).  An N x N table takes the dense eigenproblem.
    """
    band = grid.band_mask()
    if sym.values.shape[0] == 1:
        return float(np.min(sym.values[0, band].real))
    A = to_dense(sym)
    H = 0.5 * (A + A.conj().T)
    basis = grid.synthesis_matrix()[:, band]
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


def real_sum(assembler: ConjugationAssembler, names, t) -> np.ndarray:
    """The sum of the real parts of the named tables at time t, in the
    order of names: the reference block_sum is checked against."""
    return reduce(np.add, (assembler.part(name, float(t)).values.real
                           for name in names))


def block_sum(assembler: ConjugationAssembler, names, t,
              polys) -> np.ndarray:
    """The sum of the real parts of the named tables at time t on the
    columns of checked_region: their block polynomial by Horner at k(t).
    The polynomial is read from the caller's dict polys, keyed by
    coefficient time and names, and formed into it on first read; one that
    names kprime holds the C1 and C2 of that read."""
    key = (assembler.problem.coefficient_times(t)[0], tuple(names))
    if key not in polys:
        polys[key] = assembler.block_polynomial(names, t)
    R = polys[key]
    k = float(k_of_t(t, assembler.params))
    value = 0.0
    for R_j in R[::-1]:
        value = value * k + R_j
    return value


def verify_lower_bounds(assembler: ConjugationAssembler, t_samples,
                        tol: float = 1e-8) -> PositivityReport:
    """Normalized minima of the three margins of MARGINS over the grid
    region |xi| > R_a3 h, at each sample time, each margin summed by
    block_sum and divided by its normalizer.  The margins are evaluated
    one after the other, at every sample time each, and each margin's
    block polynomials are kept in a dict of its own, dropped before the
    next margin's are formed; the rows are listed by time, then margin.
    Failures are rows, not errors."""
    params, grid = assembler.params, assembler.grid
    region = checked_region(grid, params)
    report = PositivityReport(tolerance=tol,
                              region_size=int(np.count_nonzero(region)))
    if report.region_size == 0:
        report.detail = (f"no grid frequencies beyond R_a3*h = "
                         f"{params.R_a3 * params.h:.3g}; xi_max = {grid.xi_max:.3g}")
        return report
    norms = _margin_normalizers(grid, params)
    xi_region = grid.xi[region]
    ts = np.atleast_1d(t_samples)
    rows, ok = {}, True
    for name, parts in MARGINS.items():
        norm = norms[name][:, region]
        polys = {}
        for i, t in enumerate(ts):
            sub = block_sum(assembler, parts, t, polys) / norm
            j, kk = np.unravel_index(np.argmin(sub), sub.shape)
            margin = float(sub[j, kk])
            rows[i, name] = BoundRow(name, float(t), margin,
                                     float(grid.x[j]), float(xi_region[kk]))
            scale = max(1.0, float(np.max(np.abs(sub))))
            if margin < -tol * scale:
                ok = False
    report.rows = [rows[i, name] for i in range(ts.size) for name in MARGINS]
    report.passed = ok
    return report


def garding_floors(assembler: ConjugationAssembler) -> dict:
    """Band-restricted Garding floors of the three blocks at t = 0
    (discrete_garding: the row minimum of a multiplier block, a dense
    eigenproblem of an N x N one)."""
    cs, grid = assembler.at(0.0), assembler.grid
    return {name: discrete_garding(cs.block(name).real, grid)
            for name in BLOCKS}


# ----------------------------------------------------------------------
# parameter selection
# ----------------------------------------------------------------------

def _sup_normalized(values, normalizer):
    q = np.abs(values) / normalizer
    return float(np.max(q)) if q.size else 0.0


def calibrate_time_weight(assembler: ConjugationAssembler) -> WeightParams:
    """Fixed-point measurement of the constants C1, C2 in k' + C1 k + C2 = 0,
    at the sample times of [0, T], from the parts of the 1/theta margin
    they bound (C1_PARTS, C2_PARTS).

    C1 bounds the negative part of the k-stage order-1/theta remainder
    relative to k(t); C2 bounds the k-independent negative contributions
    (conjugated order-1 tail and the window tails).  Each round installs
    its constants on the assembler it measures, whose tables read neither
    C1 nor C2, so one assembler serves every round and leaves calibrated:
    its params are the returned ones.  Raises if k(T) dies inside the
    horizon.  C2 is measured first: while k is positive it does not grow
    with C1 (comparison principle), so when C2 alone with C1 = 0 drives
    k(T) to zero the round raises at once, and a rejected trial never
    builds b1k.  The block polynomials of the rounds' sums (block_sum) are
    formed in the first round into a dict that the calibration keeps until
    it returns: C1_PARTS and C2_PARTS name no kprime, the one table that
    reads C1 and C2, so the polynomials hold across rounds in which they
    move.
    """
    p, params, grid = assembler.problem, assembler.params, assembler.grid
    ts = sample_times(p.T)
    norm_t = _margin_normalizers(grid, params)["theta"][
        :, checked_region(grid, params)]

    C1, C2, polys = 0.0, 0.0, {}
    for _ in range(FP_ROUNDS):
        params = params.with_ode_constants(C1, C2)
        k_of_t(p.T, params)  # raises ParameterError if k dies on [0, T]
        assembler.params = params
        C1_new, C2_new = 0.0, 0.0
        for t in ts:
            rest = block_sum(assembler, C2_PARTS, t, polys)
            C2_new = max(C2_new, _sup_normalized(np.maximum(0.0, -rest),
                                                 norm_t))
        # raises now if C2 alone kills k by T, before b1k is read
        k_of_t(p.T, params.with_ode_constants(0.0, C2_new))
        for t in ts:
            neg = np.maximum(0.0, -block_sum(assembler, C1_PARTS, t, polys))
            kt = float(k_of_t(t, params))
            C1_new = max(C1_new, _sup_normalized(neg, norm_t) / kt)
        moved = (abs(C1_new - C1) > 0.01 * max(C1, 1e-12)
                 or abs(C2_new - C2) > 0.01 * max(C2, 1e-12))
        C1, C2 = C1_new, C2_new
        if not moved:
            break
    params = params.with_ode_constants(C1, C2)
    k_of_t(p.T, params)
    assembler.params = params
    return params


def select_parameters_detailed(p: ProblemSpec, theta: float, grid: Grid,
                               k0: float = 0.35, margin: float = 0.08,
                               h_pin=None, series_tol: float = 1e-10,
                               inverse_tol: float = 1e-8, tol: float = 1e-8,
                               M2_pin=None, M1_pin=None, assumptions=None):
    """Measure-dominate-verify loop; returns (WeightParams, details dict).

    Each trial h, doubling across H_SEARCH, builds the assembler, whose
    phase and conjugation tables are formed on first read, at M1 = 0 or
    the pinned M1; the tables that read no h (i a2, i a1, c) are formed
    once, before the first trial, at the coefficient times, in one
    CoefficientTables every trial's assembler reads.  An unpinned M1 is
    set from the sups C_a2l2 and C_c of the parts M1_PARTS over the
    coefficient times, which read none of M1, C1 and C2, and installed
    on that assembler; calibrate_time_weight
    installs C1 and C2 there too.  The trial checks the lower bounds to
    margin tolerance ``tol``; only a trial that passes builds the
    conjugator's inverse from that assembler.  A trial whose time weight
    C2 alone kills forms only the tables M1 and C2 read.  The first h
    where both succeed is accepted; a failed trial's tables are released
    before the next trial builds its own.

    M2_pin / M1_pin / h_pin freeze a strength or h instead of deriving it:
    parameter sweeps pin one of them, explicit weights pin all three, a
    single trial.  A pinned M1 skips the measurement of C_a2l2 and C_c, so
    those trials' history rows lack the two keys.  With nothing to
    dominate and nothing pinned, the one trial is the identity conjugator
    (M2 = M1 = 0 at the first h).  ``assumptions`` is a report from
    check_assumptions(p, grid, theta), computed here if absent.  The
    accepted trial's conjugator is details["bundle"]: it holds the problem,
    the grid and the returned params, the ones its assembler was
    calibrated to.  Its positivity certificate is details["report"].  Each
    trial is one row of details["history"], a failed one with its reason;
    if no trial is accepted, raises InfeasibleError with those rows, its
    message naming every trial's h and reason."""
    rep = (check_assumptions(p, grid, theta) if assumptions is None
           else assumptions)
    rep.require()
    C_a3 = rep.constant("hyp-i-leading")
    C_a2 = rep.constant("hyp-iii-order2-decay")
    C_a1 = rep.constant("hyp-iv-order1-decay")
    ts = sample_times(p.T)
    details = {"C_a3": C_a3, "C_a2": C_a2, "C_a1": C_a1, "history": []}
    h_start, h_max = H_SEARCH if h_pin is None else (h_pin, h_pin)

    # overflow surrogate for the smallness threshold on k(0)
    k0_cap = 300.0 / float(np.max(bracket_h(grid.xi, 1.0) ** (1.0 / theta)))
    k0 = min(k0, 0.5 * k0_cap)

    D = float(np.sqrt(1.0 + grid.L ** 2))
    if (C_a2 < ZERO_THRESHOLD and C_a1 < ZERO_THRESHOLD
            and M2_pin is None and M1_pin is None):
        # nothing to dominate: the identity conjugator keeps the solver exact
        M2_pin = M1_pin = 0.0
        h_max = h_start

    M2 = 2.0 * (C_a2 + margin) / C_a3 if M2_pin is None else float(M2_pin)
    # the coefficient times the trials read alike: an unpinned M1's
    # constants are measured at them
    t_coef = p.coefficient_times(ts)
    history = details["history"]
    # formed before any trial's own tables: held through the whole
    # selection, they then lie together in memory, not between the tables
    # of the trial that formed them
    tables = CoefficientTables(p, grid)
    for t in t_coef:
        for name in ("ia2", "ia1", "c"):
            tables.table(name, float(t))
    h = h_start
    while h <= h_max:
        trial = {"h": h, "M2": M2}
        try:
            params = WeightParams(M2=M2, M1=float(M1_pin or 0.0),
                                  h=h, k0=k0, sigma=p.sigma, theta=theta,
                                  R_a3=p.R_a3, domain_cap=D)
            if not np.any(checked_region(grid, params)):
                history.append({**trial, "passed": False, "reason": (
                    f"no frequencies beyond R_a3*h={params.R_a3 * h:.3g} "
                    f"on this grid (xi_max={grid.xi_max:.3g}); "
                    "refine the grid or shrink L")})
                break
            assembler = ConjugationAssembler(p, params, grid, tables)
            if M1_pin is None:
                # constants entering the order-1 inequality, read before M1
                # is installed: the tables of M1_PARTS do not read it
                norm1 = _margin_normalizers(grid, params)["order1"]
                C_a2l2, C_c = (max(_sup_normalized(
                    assembler.part(name, float(t)).values.real, norm1)
                    for t in t_coef) for name in M1_PARTS)
                M1 = 2.0 * (C_a1 + C_a2l2 + C_c + margin) / C_a3
                trial.update(M1=M1, C_a2l2=C_a2l2, C_c=C_c)
                assembler.params = replace(params, M1=M1)
            else:
                trial["M1"] = params.M1
            params = calibrate_time_weight(assembler)
            trial.update(C1=params.C1, C2=params.C2,
                         kT=float(k_of_t(p.T, params)))
            report = verify_lower_bounds(assembler, ts, tol)
            trial["margins"] = {b: report.min_margin(b) for b in MARGINS}
            if report.passed:
                bundle = build_conjugator(assembler, series_tol, inverse_tol)
                trial.update(spectral_radius=bundle.spectral_radius,
                             inverse_residual=bundle.residual, passed=True)
                history.append(trial)
                details["report"] = report
                details["bundle"] = bundle
                return params, details
            worst = min(report.rows, key=lambda r: r.margin)
            history.append({**trial, "passed": False, "reason": (
                f"{worst.bound} margin {worst.margin:.3e} (witness "
                f"x={worst.witness_x:.3g}, xi={worst.witness_xi:.3g})")})
        except (ConvergenceError, ParameterError) as exc:
            history.append({**trial, "passed": False, "reason": str(exc)})
        assembler = None   # release the failed trial's tables before the next
        h *= 2.0
    failures = [f"h={row['h']:g}: {row['reason']}" for row in history]
    tried = "".join(f"{f}; " for f in failures[:-1])
    last = failures[-1] if failures else "h search did not start"
    raise InfeasibleError(
        f"no admissible h in [{h_start}, {h_max}]: {tried}last failure: {last}",
        history)

