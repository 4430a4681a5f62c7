"""Exponentially weighted norms, radius fitting, and the time integrator.

The solver integrates the conjugated problem

    d v/dt = -i a3(t, D) v - op(a2t + a1t + atheta)(t) v + f_conj(t)

with the leading multiplier handled by an exact integrating factor (the
phase integral uses two-point Gauss quadrature per interval, exact for the
library's polynomial time dependence) and a classical four-stage
Runge-Kutta update for the remaining lower-order part.  Every operator
applied is a Multiplier (one FFT pair) or a Dense, the variant read off its
tables (conjugate.fourier_rows): both the lower-order generator and the
conjugator op(e^Lam), through whose inverse the original unknown is
recovered, are Multipliers on the KdV branch M2 = M1 = 0.  Every run
carries an energy log against which the growth inequality is re-checked.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .conjugate import ConjugationAssembler, ConjugatorBundle
from .errors import DataError, InstabilityError, ParameterError
from .grid import Grid
from .quantize import Multiplier
from .weights import k_of_t

BLOWUP_FACTOR = 1e12
DT_SAFETY = 1.0         # default dt <= DT_SAFETY / max |generator(0)|
MAX_STEPS = 200000
STORED_FIELDS = 256     # a solve logs every (steps // STORED_FIELDS)-th field
RADIUS_TOL = 0.05       # tolerated shortfall of the data's fitted radius
REPORT_DELTA = 0.01     # output norm radius rho' = k(T) - REPORT_DELTA
RADIUS_BAND = 0.5       # radius fits read the band |xi| <= RADIUS_BAND xi_max
RADIUS_FLOOR = 1e-14    # ... at modes above RADIUS_FLOOR times the largest
RADIUS_MIN_MODES = 16   # ... and need at least this many of them


# ----------------------------------------------------------------------
# norms and radius estimation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GevreyNormSpec:
    """Sobolev order m, exponential radius rho, Gevrey index theta."""
    m: float
    rho: float
    theta: float

    def __post_init__(self):
        if self.theta <= 1.0:
            raise ParameterError("theta must exceed 1")


def gevrey_norm(u, spec: GevreyNormSpec, grid: Grid) -> float:
    """|| <xi>^m e^{rho <xi>^{1/theta}} u_hat ||_2, evaluated in log space."""
    u_hat = grid.forward(u)
    b = np.sqrt(1.0 + np.square(grid.xi))
    logw = spec.m * np.log(b) + spec.rho * b ** (1.0 / spec.theta)
    mag = np.abs(u_hat)
    with np.errstate(divide="ignore"):
        la = np.where(mag > 0.0, np.log(mag) + logw, -np.inf)
    top = np.max(la)
    if top == -np.inf:
        return 0.0
    if top > 350.0:
        raise ParameterError("weighted norm overflows; reduce rho or m")
    return float(np.exp(top) * np.sqrt(grid.dx * np.sum(np.exp(2.0 * (la - top)))))


@dataclass
class RadiusFit:
    rho: float
    intercept: float
    residual: float      # RMS deviation of the linear fit
    n_modes: int
    nonlinear: bool      # large residual relative to the fitted drop


def radius_fit_report(u, theta, grid: Grid) -> RadiusFit:
    """Least squares slope of -log|u_hat| against <xi>^{1/theta}."""
    u_hat = grid.forward(u)
    mag = np.abs(u_hat)
    top = float(np.max(mag))
    if top == 0.0:
        raise DataError("field is identically zero; no radius to fit")
    mask = grid.band_mask(RADIUS_BAND) & (mag > RADIUS_FLOOR * top)
    n = int(np.count_nonzero(mask))
    if n < RADIUS_MIN_MODES:
        raise DataError(
            f"only {n} modes above the noise floor (need {RADIUS_MIN_MODES})")
    X = np.sqrt(1.0 + np.square(grid.xi[mask])) ** (1.0 / theta)
    Y = -np.log(mag[mask])
    A = np.stack([X, np.ones_like(X)], axis=1)
    sol, *_ = np.linalg.lstsq(A, Y, rcond=None)
    rho, c0 = float(sol[0]), float(sol[1])
    resid = float(np.sqrt(np.mean((A @ sol - Y) ** 2)))
    drop = float(np.max(Y) - np.min(Y))
    nonlinear = resid > 0.05 * max(drop, 1.0)
    return RadiusFit(rho=rho, intercept=c0, residual=resid, n_modes=n,
                     nonlinear=nonlinear)


def radius_fit(u, theta, grid: Grid) -> float:
    """Fitted exponential-decay radius of the spectrum."""
    return radius_fit_report(u, theta, grid).rho


def synthetic_radius_field(grid: Grid, rho, theta, m: float = 0.0,
                           seed=None) -> np.ndarray:
    """Real field with spectrum |u_hat| = <xi>^m e^{-rho <xi>^{1/theta}}."""
    b = np.sqrt(1.0 + np.square(grid.xi))
    mag = b ** m * np.exp(-rho * b ** (1.0 / theta))
    mag[grid.nyquist] = 0.0
    if seed is None:
        phase = np.ones_like(mag)
    else:
        rng = np.random.default_rng(seed)
        ang = rng.uniform(0.0, 2.0 * np.pi, size=mag.shape)
        phase = np.exp(1j * ang)
    u_hat = mag * phase
    # hermitian symmetry -> real field
    u = grid.inverse(u_hat)
    return (u + np.conj(u)) / 2.0 + 0j


# ----------------------------------------------------------------------
# trajectory container
# ----------------------------------------------------------------------

@dataclass
class Trajectory:
    """Fields and energy log of one solve.  v is the conjugated unknown,
    u = op(e^Lam)^{-1} v the original one; E = ||v||^2, F = ||f_conj||^2."""

    times: np.ndarray                 # every step boundary
    logged_times: np.ndarray          # subset where fields are stored
    v_fields: list                    # v at the logged times
    u_fields: list = field(default_factory=list)  # u at the logged times
    l2: np.ndarray = None             # ||v||_L2 at every step boundary
    radius: np.ndarray = None         # fitted radius of u at logged times
    energy_rate: np.ndarray = None    # per step: (E_{i+1}-E_i)/(dt (E_i+F_i))
    energy_residual: np.ndarray = None  # energy_rate - C_prime, <= 0
    C_prime: float = float("nan")     # largest energy_rate
    gronwall_C: float = float("nan")  # max E / (e^{max(C',0) t} (E_0 + int F))
    equivalence_residual: np.ndarray = None  # ||op(e^Lam) u - v|| / ||v||
    meta: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def _phase_integral(p, grid, t0, t1):
    """integral of a3(tau, xi) over [t0, t1] by 2-point Gauss quadrature."""
    mid, rad = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    off = rad / np.sqrt(3.0)
    vals = sum(np.asarray(p.a3(tau, 0.0, grid.xi), dtype=float)
               for tau in (mid - off, mid + off))
    return rad * vals


def step(v, t, dt, p, grid: Grid, stage, forcing=None):
    """One integrating-factor Runge-Kutta step of the conjugated problem.

    ``stage(tau)`` is the lower-order generator at time tau as an operator
    with ``matvec`` (quantize.Multiplier or quantize.Dense), asked for once
    per stage time: ConjugationAssembler.stage_operator samples the
    coefficients there and picks the variant, and a constant function
    freezes the generator across the step.
    """
    t_half = t + 0.5 * dt
    A0, A_half, A_full = (stage(tau) for tau in (t, t_half, t + dt))

    def rhs(A, tau, w):
        out = -A.matvec(w)
        if forcing is not None:
            out = out + forcing(tau)
        return out

    ph_half = np.exp(-1j * _phase_integral(p, grid, t, t_half))
    ph_full = np.exp(-1j * _phase_integral(p, grid, t, t + dt))
    to_half, from_half = Multiplier(grid, ph_half), Multiplier(grid, 1.0 / ph_half)
    to_full, from_full = Multiplier(grid, ph_full), Multiplier(grid, 1.0 / ph_full)
    # pointwise coefficient products alias into the unmatched Nyquist slot;
    # the final multiplier application projects it back out
    mask = np.ones(grid.N)
    mask[grid.nyquist] = 0.0

    k1 = rhs(A0, t, v)
    k2 = from_half.matvec(rhs(A_half, t_half, to_half.matvec(v + 0.5 * dt * k1)))
    k3 = from_half.matvec(rhs(A_half, t_half, to_half.matvec(v + 0.5 * dt * k2)))
    k4 = from_full.matvec(rhs(A_full, t + dt, to_full.matvec(v + dt * k3)))
    v_tilde = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Multiplier(grid, ph_full * mask).matvec(v_tilde)


def default_dt(generator, T):
    """Stability-limited step from the size of the lower-order generator
    at t = 0."""
    gmax = float(np.max(np.abs(generator(0.0))))
    dt = min(DT_SAFETY / max(gmax, 1e-12), T / 32.0)
    steps = int(np.ceil(T / dt))
    if steps > MAX_STEPS:
        raise ParameterError(f"time step {dt:.3e} needs {steps} steps")
    return T / steps


def solve_conjugated(assembler: ConjugationAssembler, f_conj, v0, T,
                     dt=None):
    """Integrate the conjugated problem; returns a Trajectory of v.

    Stage operators are built once per stage time: step i runs with the
    exact (Sterbenz) step times[i+1] - times[i], so it ends on times[i+1].
    f_conj: callable t -> field (already conjugated forcing) or
    None.  The energy log records ||v||_L2 at every step, the discrete
    growth rate of ||v||_L2^2 against E + F, the largest rate C' and the
    one-constant bound it implies; the residual rate - C' is nonpositive
    by construction.  meta holds dt, the step count and the indices of
    the logged steps.
    """
    p, grid = assembler.problem, assembler.grid
    if dt is None:
        dt = default_dt(assembler.generator, T)
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-12 * max(1.0, T):
        steps = int(np.ceil(T / dt))
        dt = T / steps
    stride = max(1, steps // STORED_FIELDS)

    times = np.linspace(0.0, steps * dt, steps + 1)
    v = grid.check_field(v0).copy()
    v_fields, logged = [v.copy()], [0]
    E = np.empty(steps + 1)
    F = np.empty(steps + 1)
    E[0] = grid.l2_norm(v) ** 2
    F[0] = grid.l2_norm(f_conj(0.0)) ** 2 if f_conj is not None else 0.0
    scale0 = np.sqrt(E[0]) + 1.0
    stage = lru_cache(maxsize=4)(assembler.stage_operator)

    for i in range(steps):
        v = step(v, times[i], times[i + 1] - times[i], p, grid, stage,
                 forcing=f_conj)
        if not np.all(np.isfinite(v)) or grid.l2_norm(v) > BLOWUP_FACTOR * scale0:
            raise InstabilityError(
                f"solution blew up at t={times[i+1]:.6g} (step {i+1})",
                t=float(times[i + 1]))
        E[i + 1] = grid.l2_norm(v) ** 2
        F[i + 1] = grid.l2_norm(f_conj(times[i + 1])) ** 2 if f_conj is not None else 0.0
        if (i + 1) % stride == 0 or i + 1 == steps:
            v_fields.append(v.copy())
            logged.append(i + 1)

    rate = (E[1:] - E[:-1]) / (dt * (E[:-1] + F[:-1] + 1e-300))
    C_prime = float(np.max(rate)) if rate.size else 0.0
    residual = rate - C_prime
    # one-constant bound with the measured growth rate, recorded as a ratio
    cumF = np.concatenate(([0.0], np.cumsum(F[:-1] + F[1:]) * 0.5 * dt))
    bound = np.exp(np.maximum(C_prime, 0.0) * times) * (E[0] + cumF + 1e-300)
    gron = float(np.max(E / np.maximum(bound, 1e-300)))

    traj = Trajectory(times=times, logged_times=times[logged],
                      v_fields=v_fields, l2=np.sqrt(E),
                      energy_rate=rate,
                      energy_residual=residual,
                      C_prime=C_prime, gronwall_C=gron,
                      meta={"dt": dt, "steps": steps,
                            "logged_indices": logged})
    return traj


def solve_original(p, params, f, g, grid: Grid, T, m=0.0, rho=None,
                   theta=None, dt=None, *, bundle: ConjugatorBundle):
    """Full pipeline: conjugate the data, integrate, pull the solution back.

    f: callable t -> field at nodes, or None; g: field at nodes.
    Checks that the data actually carries the declared radius rho and that
    k0 < rho, mirrors of the structural preconditions.  The bundle supplies
    the conjugator and the generator.  The forcing is conjugated once per
    stage time: k2 and k3 share t + dt/2, and k4 shares t + dt with the
    energy log and the next step's k1.
    """
    theta = params.theta if theta is None else theta
    if rho is not None:
        fit = radius_fit(g, theta, grid)
        if fit < rho - RADIUS_TOL:
            raise DataError(
                f"initial state has fitted radius {fit:.4f} < declared {rho}")
        if params.k0 >= rho:
            raise DataError(
                f"k0={params.k0} must stay below the data radius {rho}")

    v0 = bundle.apply_full(grid.check_field(g), 0.0)
    f_conj = None
    if f is not None:
        f_conj = lru_cache(maxsize=4)(
            lambda tau: bundle.apply_full(grid.check_field(f(tau)), tau))

    traj = solve_conjugated(bundle.assembler, f_conj, v0, T, dt=dt)

    rho_prime = float(k_of_t(T, params)) - REPORT_DELTA
    spec_out = GevreyNormSpec(m, rho_prime, theta)
    u_fields, rad, equiv, hm_u = [], [], [], []
    for t, v in zip(traj.logged_times, traj.v_fields):
        u = bundle.apply_full_inverse(v, t)
        u_fields.append(u)
        back = bundle.apply_full(u, t)
        nv = grid.l2_norm(v)
        equiv.append(grid.l2_norm(back - v) / (nv if nv > 0 else 1.0))
        try:
            rad.append(radius_fit(u, theta, grid))
        except DataError:
            rad.append(float("nan"))
        hm_u.append(gevrey_norm(u, spec_out, grid))

    traj.u_fields = u_fields
    traj.radius = np.asarray(rad)
    traj.equivalence_residual = np.asarray(equiv)
    traj.meta.update({"rho_prime": rho_prime, "theta": theta,
                      "hm_u": np.asarray(hm_u)})

    if rho is not None:
        # ||g||^2 + int_0^t ||f||^2 at every step time: one trapezoid sum
        # over the step times, read at the logged ones
        spec_in = GevreyNormSpec(m, rho, theta)
        den = np.full(traj.times.size, gevrey_norm(g, spec_in, grid) ** 2)
        if f is not None:
            fn = np.array([gevrey_norm(grid.check_field(f(s)), spec_in, grid) ** 2
                           for s in traj.times])
            den[1:] += np.cumsum(0.5 * (fn[1:] + fn[:-1]) * np.diff(traj.times))
        C = 0.0
        for hm, d in zip(hm_u, den[traj.meta["logged_indices"]]):
            if d > 0:
                C = max(C, hm ** 2 / d)
        traj.meta["energy_estimate_C"] = C
    return traj
