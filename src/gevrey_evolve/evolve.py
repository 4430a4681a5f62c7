"""Exponentially weighted norms, radius fitting, and the time integrator.

The solver integrates the conjugated problem

    d v/dt = -i a3(t, D) v - op(a2t + a1t + atheta)(t) v + f_conj(t)

with the leading multiplier handled by an exact integrating factor (the
phase integral uses two-point Gauss quadrature per interval, exact for the
library's polynomial time dependence) and a classical four-stage
Runge-Kutta update for the remaining lower-order part.  Every operator
maps Fourier coefficients to Fourier coefficients (quantize), so the solve
carries them throughout: the integrating factor, the half-step phases and
a Multiplier stage are row products, a Stacked stage is one GEMV over the
coefficient time's spectral stack plus one FFT; the data and the forcing
are transformed once, ||v|| comes from Parseval, and the pull-back, its
equivalence check, the radius fit and the Gevrey norm read coefficients,
so u is synthesized once per logged time.  The variant of every operator
is read off its tables (quantize.fourier_rows): the generator is a
Multiplier or a Stacked sum, the conjugator op(e^Lam) a Multiplier or a
Dense, and both are Multipliers on the KdV branch M2 = M1 = 0.
Every run carries an energy log against which the growth inequality is
re-checked.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .conjugate import ConjugationAssembler, ConjugatorBundle
from .errors import DataError, InstabilityError, ParameterError
from .grid import Grid
from .weights import k_of_t

BLOWUP_FACTOR = 1e12
DT_SAFETY = 1.0         # default dt <= DT_SAFETY / max |generator table at 0|
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


def gevrey_norm(u_hat, spec: GevreyNormSpec, grid: Grid) -> float:
    """|| <xi>^m e^{rho <xi>^{1/theta}} u_hat ||_2 of the coefficients
    u_hat = grid.forward(u), evaluated in log space."""
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


def radius_fit(u_hat, theta, grid: Grid) -> float:
    """Fitted exponential-decay radius of the spectrum u_hat =
    grid.forward(u): the least squares slope of -log|u_hat| against
    <xi>^{1/theta} on the band, at the modes above the noise floor."""
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
    A = np.stack([X, np.ones_like(X)], axis=1)
    sol, *_ = np.linalg.lstsq(A, -np.log(mag[mask]), rcond=None)
    return float(sol[0])


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
    v_hats: list                      # coefficients of v at the logged times
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


def step(v_hat, t, dt, p, grid: Grid, stage, forcing=None):
    """One integrating-factor Runge-Kutta step of the conjugated problem on
    the coefficients v_hat = grid.forward(v); returns those at t + dt.

    ``stage(tau)`` is the lower-order generator at time tau as an operator
    with ``matvec_hat`` (quantize.Multiplier: a row product;
    quantize.Stacked: one GEMV over a precomputed stack and one FFT;
    quantize.Dense: one GEMV), asked for once per stage
    time: ConjugationAssembler.stage_operator weights the stack of the
    coefficient time there and picks the variant, and a constant function
    freezes the generator across the step.  ``forcing(tau)`` returns
    coefficients too.
    """
    t_half = t + 0.5 * dt
    A0, A_half, A_full = (stage(tau) for tau in (t, t_half, t + dt))

    def rhs(A, tau, w_hat):
        out = -A.matvec_hat(w_hat)
        if forcing is not None:
            out = out + forcing(tau)
        return out

    ph_half = np.exp(-1j * _phase_integral(p, grid, t, t_half))
    ph_full = np.exp(-1j * _phase_integral(p, grid, t, t + dt))
    from_half, from_full = 1.0 / ph_half, 1.0 / ph_full

    k1 = rhs(A0, t, v_hat)
    k2 = from_half * rhs(A_half, t_half, ph_half * (v_hat + 0.5 * dt * k1))
    k3 = from_half * rhs(A_half, t_half, ph_half * (v_hat + 0.5 * dt * k2))
    k4 = from_full * rhs(A_full, t + dt, ph_full * (v_hat + dt * k3))
    v_tilde = v_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # pointwise coefficient products alias into the unmatched Nyquist slot;
    # the final integrating factor projects it back out
    out = ph_full * v_tilde
    out[grid.nyquist] = 0.0
    return out


def default_dt(G, T):
    """Stability-limited step from the size of G, the table of the
    lower-order generator at t = 0 (at(0.0).generator_table().values)."""
    gmax = float(np.max(np.abs(G)))
    dt = min(DT_SAFETY / max(gmax, 1e-12), T / 32.0)
    steps = int(np.ceil(T / dt))
    if steps > MAX_STEPS:
        raise ParameterError(f"time step {dt:.3e} needs {steps} steps")
    return T / steps


def solve_conjugated(assembler: ConjugationAssembler, f_conj, v0_hat, T,
                     dt=None):
    """Integrate the conjugated problem; returns a Trajectory of v.

    Stage operators are built once per stage time, each a set of weights
    on its coefficient time's spectral stack: step i runs with the
    exact (Sterbenz) step times[i+1] - times[i], so it ends on times[i+1].
    v0_hat: the coefficients forward(.) of the conjugated data; f_conj:
    callable t -> those of the conjugated forcing, or None.  The steps
    carry coefficients, and the trajectory logs them at the logged times.
    The energy log records ||v||_L2 (by Parseval) at every step, the discrete
    growth rate of ||v||_L2^2 against E + F, the largest rate C' and the
    one-constant bound it implies; the residual rate - C' is nonpositive
    by construction.  meta holds dt, the step count and the indices of
    the logged steps.
    """
    p, grid = assembler.problem, assembler.grid
    if dt is None:
        dt = default_dt(assembler.at(0.0).generator_table().values, T)
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-12 * max(1.0, T):
        steps = int(np.ceil(T / dt))
        dt = T / steps
    stride = max(1, steps // STORED_FIELDS)

    times = np.linspace(0.0, steps * dt, steps + 1)
    v_hat = grid.check_field(v0_hat).copy()
    v_hats, logged = [v_hat], [0]
    # norms of coefficients: the transform is unitary (Parseval)
    E = np.empty(steps + 1)
    F = np.empty(steps + 1)
    E[0] = grid.l2_norm(v_hat) ** 2
    F[0] = grid.l2_norm(f_conj(0.0)) ** 2 if f_conj is not None else 0.0
    scale0 = np.sqrt(E[0]) + 1.0
    stage = lru_cache(maxsize=4)(assembler.stage_operator)

    for i in range(steps):
        v_hat = step(v_hat, times[i], times[i + 1] - times[i], p, grid, stage,
                     forcing=f_conj)
        norm = grid.l2_norm(v_hat)
        if not np.all(np.isfinite(v_hat)) or norm > BLOWUP_FACTOR * scale0:
            raise InstabilityError(
                f"solution blew up at t={times[i+1]:.6g} (step {i+1})",
                t=float(times[i + 1]))
        E[i + 1] = norm ** 2
        F[i + 1] = grid.l2_norm(f_conj(times[i + 1])) ** 2 if f_conj is not None else 0.0
        if (i + 1) % stride == 0 or i + 1 == steps:
            v_hats.append(v_hat)
            logged.append(i + 1)

    rate = (E[1:] - E[:-1]) / (dt * (E[:-1] + F[:-1] + 1e-300))
    C_prime = float(np.max(rate)) if rate.size else 0.0
    residual = rate - C_prime
    # one-constant bound with the measured growth rate, recorded as a ratio
    cumF = np.concatenate(([0.0], np.cumsum(F[:-1] + F[1:]) * 0.5 * dt))
    bound = np.exp(np.maximum(C_prime, 0.0) * times) * (E[0] + cumF + 1e-300)
    gron = float(np.max(E / np.maximum(bound, 1e-300)))

    traj = Trajectory(times=times, logged_times=times[logged],
                      v_hats=v_hats, l2=np.sqrt(E),
                      energy_rate=rate,
                      energy_residual=residual,
                      C_prime=C_prime, gronwall_C=gron,
                      meta={"dt": dt, "steps": steps,
                            "logged_indices": logged})
    return traj


def solve_original(bundle: ConjugatorBundle, f, g, T, m=0.0, rho=None,
                   dt=None):
    """Full pipeline: conjugate the data, integrate, pull the solution back.

    bundle: the accepted conjugator, the one holder of the problem, the
    grid and the calibrated params (theta included) the solve reads.
    f: callable t -> field at nodes, or None; g: field at nodes.
    Checks that the data actually carries the declared radius rho and that
    k0 < rho, mirrors of the structural preconditions.  The bundle supplies
    the conjugator and the generator.  Everything runs on coefficients:
    g is transformed once, and the forcing is transformed and conjugated
    once per stage time (k2 and k3 share t + dt/2, and k4 shares t + dt
    with the energy log and the next step's k1).  At each logged time the
    pull-back, the equivalence check (by Parseval), the radius fit and the
    output norm read the coefficients of u, and u is synthesized once.
    The horizon T may not exceed bundle.problem.T: the positivity
    certificate and the calibrated C1/C2 cover [0, problem.T] only, so a
    longer T raises ParameterError.
    """
    if T > bundle.problem.T:
        raise ParameterError(f"horizon T={T} exceeds the bundle's certified "
                             f"horizon problem.T={bundle.problem.T}")
    grid, params = bundle.grid, bundle.params
    theta = params.theta
    g_hat = grid.forward(g)
    if rho is not None:
        fit = radius_fit(g_hat, theta, grid)
        if fit < rho - RADIUS_TOL:
            raise DataError(
                f"initial state has fitted radius {fit:.4f} < declared {rho}")
        if params.k0 >= rho:
            raise DataError(
                f"k0={params.k0} must stay below the data radius {rho}")

    f_conj = None
    if f is not None:
        f_conj = lru_cache(maxsize=4)(
            lambda tau: bundle.apply_full(grid.forward(f(tau)), tau))

    traj = solve_conjugated(bundle.assembler, f_conj,
                            bundle.apply_full(g_hat, 0.0), T, dt=dt)

    rho_prime = float(k_of_t(T, params)) - REPORT_DELTA
    spec_out = GevreyNormSpec(m, rho_prime, theta)
    u_fields, rad, equiv, hm_u = [], [], [], []
    for t, v_hat in zip(traj.logged_times, traj.v_hats):
        u_hat = bundle.apply_full_inverse(v_hat, t)
        u_fields.append(grid.inverse(u_hat))
        back = bundle.apply_full(u_hat, t)
        nv = grid.l2_norm(v_hat)
        equiv.append(grid.l2_norm(back - v_hat) / (nv if nv > 0 else 1.0))
        try:
            rad.append(radius_fit(u_hat, theta, grid))
        except DataError:
            rad.append(float("nan"))
        hm_u.append(gevrey_norm(u_hat, spec_out, grid))

    traj.u_fields = u_fields
    traj.radius = np.asarray(rad)
    traj.equivalence_residual = np.asarray(equiv)
    traj.meta.update({"rho_prime": rho_prime, "hm_u": np.asarray(hm_u)})

    if rho is not None:
        # ||g||^2 + int_0^t ||f||^2 at every step time: one trapezoid sum
        # over the step times, read at the logged ones
        spec_in = GevreyNormSpec(m, rho, theta)
        den = np.full(traj.times.size, gevrey_norm(g_hat, spec_in, grid) ** 2)
        if f is not None:
            fn = np.array([gevrey_norm(grid.forward(f(s)), spec_in, grid) ** 2
                           for s in traj.times])
            den[1:] += np.cumsum(0.5 * (fn[1:] + fn[:-1]) * np.diff(traj.times))
        C = 0.0
        for hm, d in zip(hm_u, den[traj.meta["logged_indices"]]):
            if d > 0:
                C = max(C, hm ** 2 / d)
        traj.meta["energy_estimate_C"] = C
    return traj
