"""Exponentially weighted norms, radius fitting, and the time integrator.

The solver integrates the conjugated problem

    d v/dt = -i a3(t, D) v - op(a2t + a1t + atheta)(t) v + f_conj(t)

with the leading multiplier handled by an exact integrating factor (the
phase integral uses two-point Gauss quadrature per interval, exact for the
library's polynomial time dependence) and a classical four-stage
Runge-Kutta update for the remaining lower-order part.  Every operator
maps Fourier coefficients to Fourier coefficients (quantize), so the solve
carries them throughout: the integrating factor, the half-step phases and
a row stage are row products, a matrix stage is one N x N GEMV on its
stage time's coefficient matrix, with no FFT.  What depends on time but
not on v is computed once per block of steps, as in the exponential
integrators of Kassam & Trefethen (SIAM J. Sci. Comput. 26, 2005), which
form their integrating factors outside the time loop: one a3 call for the
block's integrating factors, and one stacked transform and conjugation of
its forcing.  The stages are weights k(tau)^j over the generator's G
(ConjugationAssembler.polynomial), Fourier rows (J + 1, N) or coefficient
matrices (J + 1, N, N), and G is all the solve reads of the generator:
its ndim sets the path, its length the batches and its rows' bytes the
blocks.  A block holds as many steps as fit in BLOCK_BYTES (step_bytes),
tens of steps at N = 256.  A row step is affine and diagonal in v,
v -> P * v + Q: a block forms its stage rows with one stages call and its
P and Q rows with one step() call each on (B, N) stacks, and its step
loop is then two row operations per step.  A matrix solve steps in
batches of up to J steps (batch_steps): one stages call forms the
coefficient matrices of a batch's 2B + 1 stage times (its start and each
step's t + dt/2 and t + dt) into slots the solve holds, and the steps
apply them as they are.  step() is only the Runge-Kutta arithmetic, on
the stage arrays themselves.  The data is transformed once, ||v|| comes
from Parseval and is read, with the blow-up check, once per block, and
the pull-back, its equivalence check, the radius fit and the Gevrey norm
read coefficients on (B, N) stacks of logged fields, so u is synthesized
once per logged time.
Every run carries an energy log against which the growth inequality is
re-checked.
"""

from dataclasses import dataclass, field

import numpy as np

from .conjugate import ConjugationAssembler, ConjugatorBundle
from .errors import DataError, InstabilityError, ParameterError, ShapeError
from .grid import Grid
from .weights import k_of_t

BLOWUP_FACTOR = 1e12
DT_SAFETY = 1.0         # default dt <= DT_SAFETY / max |generator table at 0|
MAX_STEPS = 200000
STORED_FIELDS = 256     # a solve logs every (steps // STORED_FIELDS)-th field
BLOCK_BYTES = 2 ** 20   # what a block of steps (step_bytes), or of logged
                        # fields in the pull-back, may hold
PULLBACK_ROWS = 8       # complex N-rows the pull-back holds per logged field
RADIUS_TOL = 0.05       # tolerated shortfall of the data's fitted radius
REPORT_DELTA = 0.01     # output norm radius rho' = k(T) - REPORT_DELTA
RADIUS_FLOOR = 1e-14    # radius fits read the band (Grid.band_mask) at modes
                        # above RADIUS_FLOOR times the largest
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


def gevrey_norm(u_hat, spec: GevreyNormSpec, grid: Grid):
    """|| <xi>^m e^{rho <xi>^{1/theta}} u_hat ||_2 of the coefficients
    u_hat = grid.forward(u), evaluated in log space: a float for one field,
    an array of the rows' norms for a stack (B, N)."""
    b = np.sqrt(1.0 + np.square(grid.xi))
    logw = spec.m * np.log(b) + spec.rho * b ** (1.0 / spec.theta)
    mag = np.abs(u_hat)
    with np.errstate(divide="ignore"):
        la = np.where(mag > 0.0, np.log(mag) + logw, -np.inf)
    top = np.max(la, axis=-1, keepdims=True)
    if np.any(top > 350.0):
        raise ParameterError("weighted norm overflows; reduce rho or m")
    top[top == -np.inf] = 0.0       # a zero field: every term below is 0
    norm = np.exp(top[..., 0]) * np.sqrt(
        grid.dx * np.sum(np.exp(2.0 * (la - top)), axis=-1))
    return float(norm) if norm.ndim == 0 else norm


def radius_fit(u_hat, theta, grid: Grid):
    """Fitted exponential-decay radii of a stack (B, N) of spectra u_hat =
    grid.forward(u): per row, the least squares slope of -log|u_hat|
    against <xi>^{1/theta} on the band, at the modes above the noise
    floor.  An array (B,), NaN at a row that is zero or has fewer than
    RADIUS_MIN_MODES such modes.  Each row is fitted on its own modes, by
    the centred normal equation of the line fit."""
    mag = np.abs(u_hat)
    top = np.max(mag, axis=-1, keepdims=True)
    mask = grid.band_mask() & (mag > RADIUS_FLOOR * top)
    n = np.count_nonzero(mask, axis=-1)
    X = np.sqrt(1.0 + np.square(grid.xi)) ** (1.0 / theta)
    Y = -np.log(np.where(mask, mag, 1.0))
    m = np.maximum(n, 1)[..., None]
    dX = np.where(mask, X - np.sum(mask * X, axis=-1, keepdims=True) / m, 0.0)
    dY = Y - np.sum(mask * Y, axis=-1, keepdims=True) / m
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = np.sum(dX * dY, axis=-1) / np.sum(dX * dX, axis=-1)
    return np.where(n >= RADIUS_MIN_MODES, slope, np.nan)


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
    v_hats: np.ndarray                # (logged, N) coefficients of v there
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

def integrating_factors(p, grid: Grid, times):
    """The integrating factors of the steps times[i] -> times[i+1]: an
    array (steps, 2, N) whose row i holds e^{-i int a3} over
    [t, t + dt/2] and over [t, t + dt], t = times[i].  The phase integrals
    use two-point Gauss quadrature per interval, and a3 is evaluated once,
    at every Gauss time of the steps together.  The exponential is taken
    once per distinct row of phase integrals, whatever a3 is: steps of one
    length over a time-independent a3 share their rows."""
    times = np.asarray(times, dtype=float)
    t0 = times[:-1, None]
    dt = times[1:, None] - t0
    ends = np.concatenate([t0 + 0.5 * dt, times[1:, None]], axis=1)
    mid, rad = 0.5 * (t0 + ends), 0.5 * (ends - t0)
    off = rad / np.sqrt(3.0)
    gauss = np.stack([mid - off, mid + off], axis=-1)[..., None]
    a3 = np.broadcast_to(np.asarray(p.a3(gauss, 0.0, grid.xi), dtype=float),
                         gauss.shape[:-1] + (grid.N,))
    phase = rad[..., None] * (a3[:, :, 0] + a3[:, :, 1])
    # rows with equal bytes share one exponential; the dict keeps them in
    # order of first appearance
    slot = {}
    inv = [slot.setdefault(row.tobytes(), len(slot))
           for row in phase.reshape(-1, grid.N)]
    distinct = np.frombuffer(b"".join(slot), dtype=float).reshape(-1, grid.N)
    return np.exp(-1j * distinct)[inv].reshape(phase.shape)


def step(v_hat, dt, grid: Grid, phases, stages, forcing=None):
    """One integrating-factor Runge-Kutta step of the conjugated problem on
    the coefficients v_hat = grid.forward(v), from t to t + dt; returns
    those at t + dt.

    Everything that depends on time alone comes in precomputed: phases is
    the step's row of integrating_factors; stages are the lower-order
    generator at t, t + dt/2 and t + dt as ConjugationAssembler.stages
    forms them, each a stage row, applied by product, or an N x N stage
    matrix (it has more axes than v_hat), applied to the one state v_hat
    by one GEMV; forcing is None or the conjugated forcing's coefficients
    at the same three times.  With row stages the step is row arithmetic
    throughout, so B steps run at once on (B, N) stacks: v_hat, the
    phases, the stages and the forcing (B, N) each, and dt a (B, 1) column.
    """
    ph_half, ph_full = phases
    A0, A_half, A_full = stages
    f0, f_half, f_full = (None,) * 3 if forcing is None else forcing

    def rhs(A, f, w_hat):
        out = -(A @ w_hat if A.ndim > w_hat.ndim else A * w_hat)
        if f is not None:
            out = out + f
        return out

    from_half, from_full = 1.0 / ph_half, 1.0 / ph_full

    k1 = rhs(A0, f0, v_hat)
    k2 = from_half * rhs(A_half, f_half, ph_half * (v_hat + 0.5 * dt * k1))
    k3 = from_half * rhs(A_half, f_half, ph_half * (v_hat + 0.5 * dt * k2))
    k4 = from_full * rhs(A_full, f_full, ph_full * (v_hat + dt * k3))
    v_tilde = v_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # pointwise coefficient products alias into the unmatched Nyquist slot;
    # the final integrating factor projects it back out
    out = ph_full * v_tilde
    out[..., grid.nyquist] = 0.0
    return out


def step_bytes(G, forced):
    """The bytes one step adds to a block of a solve over the generator's G
    (ConjugationAssembler.polynomial): the rows of its two stage times
    (stages, or times, and forcing when forced), its two integrating-factor
    rows and its state row, with the P and Q rows when G holds rows."""
    return (5 + 2 * forced + 2 * (G.ndim == 2)) * 16 * G.shape[-1]


def batch_steps(G):
    """The steps of a matrix solve whose stage matrices one stages call
    forms: J for a G of J + 1 tables, so that a GEMM over G writes at most
    twice the bytes it reads."""
    return max(1, len(G) - 1)


def affine_steps(v_hat, dts, grid, phases, stages, forcing, out):
    """The steps of a block with row stages, written into the rows of out;
    returns the last.  Such a step is affine and diagonal in v_hat,
    step(v_hat) = P * v_hat + Q, with P = step(1) unforced and Q = step(0)
    forced: both come from one step() call on the block's (B, N) stacks,
    and each step is then two row operations.  dts are the B step lengths,
    phases the block's integrating factors (B, 2, N), stages the (2B + 1,
    N) generator rows at the block's start and every half step and step
    end, and forcing None or its coefficients at the same times."""
    def by_stage(a):
        """The rows of a at each step's start, half and end time."""
        return a[0:-1:2], a[1::2], a[2::2]

    rows = by_stage(stages)
    ph = phases.transpose(1, 0, 2)
    dt = dts[:, None]
    P = step(np.ones(out.shape, dtype=complex), dt, grid, ph, rows)
    Q = None if forcing is None else step(
        np.zeros_like(P), dt, grid, ph, rows, by_stage(forcing))
    for j, row in enumerate(out):
        np.multiply(P[j], v_hat, out=row)
        if Q is not None:
            row += Q[j]
        v_hat = row
    return v_hat


def default_dt(assembler: ConjugationAssembler, T):
    """Stability-limited step from the sup of the assembler's lower-order
    generator table at t = 0 (generator_sup); solve_conjugated fits it to
    a whole number of steps."""
    return min(DT_SAFETY / max(assembler.generator_sup(), 1e-12), T / 32.0)


def solve_conjugated(assembler: ConjugationAssembler, f_conj, v0_hat, T,
                     dt=None):
    """Integrate the conjugated problem; returns a Trajectory of v.

    It reads five members of its generator, so any object with them is
    stepped alike: grid; problem (a3, for the integrating factors);
    polynomial(0.0)'s G; stages(taus, out); generator_sup() (default_dt).
    The steps run in blocks of max(1, BLOCK_BYTES // step_bytes) steps,
    and the generator's G at t = 0 (ConjugationAssembler.polynomial) sets
    the path: its ndim, length and bytes are all the solve reads of it.
    Before each block, everything that depends on time but not on v is
    computed for the whole block in a few vectorized calls: the
    integrating factors and the conjugated forcing at the block's stage
    times (every half step and step end).  The block before hands on the
    forcing at its last step end, so each stage time's forcing is
    conjugated exactly once.  A block of row stages forms them with one
    stages call and steps as one affine row map per step (affine_steps).
    A matrix stage is formed in one of 2B + 1 N x N slots the solve holds
    (allocated only for matrices), B = batch_steps: a block's steps run in
    batches of B, the last one cut at the block's end, and a batch of b
    steps forms the matrices of its start and its 2b half and end times
    with one stages call into slots 0 to 2b, and its steps apply them as
    they are.  Each block or batch forms its start again: a stage is the
    same bits in any call, the stack of a time-dependent stage time is
    built once, and one more row costs what a copy does.  Step i runs with
    the exact (Sterbenz) step times[i+1] - times[i], so it ends on
    times[i+1].  A block's states are one (B, N) array: their norms, the
    finite check, the blow-up cap and the logged copies are read from it
    once per block, and a blow-up names the first step that crossed the
    cap.
    v0_hat: the coefficients forward(.) of the conjugated data; f_conj:
    callable taking an array of times (B,) to the coefficients (B, N) of
    the conjugated forcing there, or None.  It is called at t = 0 and then
    once per block, at each step's half time followed by its end time, so
    the step times are the first call's time and every second time after
    it.  The steps carry coefficients, and the trajectory logs them at the
    logged times.
    The energy log records ||v||_L2 (by Parseval) at every step, the discrete
    growth rate of ||v||_L2^2 against E + F, the largest rate C' and the
    one-constant bound it implies; the residual rate - C' is nonpositive
    by construction.  meta holds dt, the step count and the indices of
    the logged steps.
    """
    p, grid = assembler.problem, assembler.grid
    if np.shape(v0_hat) != (grid.N,):
        raise ShapeError(f"data has shape {np.shape(v0_hat)}, expected ({grid.N},)")
    if dt is None:
        dt = default_dt(assembler, T)
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-12 * max(1.0, T):
        steps = int(np.ceil(T / dt))
        dt = T / steps
    if steps > MAX_STEPS:
        raise ParameterError(f"time step {dt:.3e} needs {steps} steps, more "
                             f"than the {MAX_STEPS} a solve takes")
    stride = max(1, steps // STORED_FIELDS)

    times = np.linspace(0.0, steps * dt, steps + 1)
    logged = np.array([*range(0, steps, stride), steps])
    # one array for the logged fields, so that they do not scatter among
    # the blocks' temporaries on the heap
    v_hats = np.empty((len(logged), grid.N), dtype=complex)
    v_hats[0] = v_hat = grid.check_field(v0_hat)
    n_logged = 1
    # norms of coefficients: the transform is unitary (Parseval)
    E = np.empty(steps + 1)
    F = np.zeros(steps + 1)
    E[0] = grid.l2_norm(v_hat) ** 2
    cap = BLOWUP_FACTOR * (np.sqrt(E[0]) + 1.0)
    # the generator's G at t = 0 sets the path: rows step as affine maps
    _, G = assembler.polynomial(0.0)
    affine = G.ndim == 2
    # the forcing at t = 0; afterwards, at each block's start
    forcing = None if f_conj is None else f_conj(times[:1])
    block = max(1, BLOCK_BYTES // step_bytes(G, f_conj is not None))
    if not affine:
        batch = batch_steps(G)
        # a batch of b steps writes its 2b + 1 stage matrices into slots 0
        # to 2b
        slots = np.empty((2 * batch + 1, grid.N, grid.N), dtype=complex)

    for start in range(0, steps, block):
        stop = min(start + block, steps)
        t0, t1 = times[start:stop], times[start + 1:stop + 1]
        # the block's stage times: its start, then each step's half time
        # and end time
        taus = np.empty(2 * (stop - start) + 1)
        taus[0::2], taus[1::2] = times[start:stop + 1], t0 + 0.5 * (t1 - t0)
        if f_conj is not None:
            forcing = np.concatenate([forcing[-1:], f_conj(taus[1:])])
            F[start:stop + 1] = grid.l2_norm(forcing[0::2]) ** 2
        phases = integrating_factors(p, grid, times[start:stop + 1])
        states = np.empty((stop - start, grid.N), dtype=complex)
        # a blow-up is found after the block: the steps past it may
        # overflow
        with np.errstate(over="ignore", invalid="ignore"):
            if affine:
                v_hat = affine_steps(v_hat, t1 - t0, grid, phases,
                                     assembler.stages(taus), forcing, states)
            else:
                for i in range(0, stop - start, batch):
                    b = min(batch, stop - start - i)
                    S = assembler.stages(taus[2 * i:2 * i + 2 * b + 1],
                                         slots[:2 * b + 1])
                    for k in range(b):
                        j = i + k
                        states[j] = v_hat = step(
                            v_hat, t1[j] - t0[j], grid, phases[j],
                            S[2 * k:2 * k + 3],
                            None if forcing is None
                            else forcing[2 * j:2 * j + 3])
            norms = grid.l2_norm(states)
            bad = ~np.all(np.isfinite(states), axis=1) | (norms > cap)
        if np.any(bad):
            i = start + 1 + int(np.argmax(bad))
            raise InstabilityError(
                f"solution blew up at t={times[i]:.6g} (step {i})",
                t=float(times[i]))
        E[start + 1:stop + 1] = norms ** 2
        done = np.searchsorted(logged, stop, side="right")
        v_hats[n_logged:done] = states[logged[n_logged:done] - start - 1]
        n_logged = done

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
                            "logged_indices": logged.tolist()})
    return traj


def solve_original(bundle: ConjugatorBundle, f, g, T, m=0.0, rho=None,
                   dt=None):
    """Full pipeline: conjugate the data, integrate, pull the solution back.

    bundle: the accepted conjugator, the one holder of the problem, the
    grid and the calibrated params (theta included) the solve reads.
    f: callable t -> field at nodes, or None; g: field at nodes.
    Checks that the data actually carries the declared radius rho (a
    nonzero g with too few modes above the noise floor to fit one is a
    trigonometric polynomial and passes) and that k0 < rho, mirrors of the
    structural preconditions.  The bundle supplies
    the conjugator and the generator.  Everything runs on coefficients:
    g is transformed once, and the solve transforms and conjugates the
    forcing at each block's stage times with one stacked Grid.forward and
    one stacked apply_full, each stage time once, so f is called once per
    stage time; the energy estimate keeps the forcing's input norm at each
    of them, a scalar, and reads it at the step times.  The pull-back, the
    equivalence check (by Parseval), the radius fit and the output norm
    run on groups of logged coefficients, each a (B, N) stack of as many
    fields as fit in BLOCK_BYTES at PULLBACK_ROWS rows a field, and u is
    synthesized once per logged time.
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
        if not np.any(g_hat):
            raise DataError("initial state is identically zero; no radius "
                            "to fit")
        # NaN, and no check, for fewer than RADIUS_MIN_MODES modes above the
        # noise floor: a trigonometric polynomial, which has every radius
        fit = radius_fit(g_hat[None], theta, grid)[0]
        if fit < rho - RADIUS_TOL:
            raise DataError(
                f"initial state has fitted radius {fit:.4f} < declared {rho}")
        if params.k0 >= rho:
            raise DataError(
                f"k0={params.k0} must stay below the data radius {rho}")

    spec_in = None if rho is None else GevreyNormSpec(m, rho, theta)
    # ||f||^2 in the input norm at each step time, in order: the energy
    # estimate reads it off the coefficients the solve forms there
    f_norms = []

    def f_conj(taus):
        """The coefficients (B, N) of op(e^Lam) f at the times taus (B,)."""
        f_hat = grid.forward([f(tau) for tau in taus])
        if spec_in is not None:
            ends = slice(None) if taus.size == 1 else slice(1, None, 2)
            f_norms.extend(gevrey_norm(f_hat[ends], spec_in, grid) ** 2)
        return bundle.apply_full(f_hat, taus)

    traj = solve_conjugated(bundle.assembler, None if f is None else f_conj,
                            bundle.apply_full(g_hat, 0.0), T, dt=dt)

    rho_prime = float(k_of_t(T, params)) - REPORT_DELTA
    spec_out = GevreyNormSpec(m, rho_prime, theta)
    u_fields, rad, equiv, hm_u = [], [], [], []
    group = max(1, BLOCK_BYTES // (PULLBACK_ROWS * 16 * grid.N))
    for i in range(0, len(traj.v_hats), group):
        t = traj.logged_times[i:i + group]
        v_hat = traj.v_hats[i:i + group]
        u_hat = bundle.apply_full_inverse(v_hat, t)
        u_fields.extend(grid.inverse(u_hat))
        back = bundle.apply_full(u_hat, t)
        nv = grid.l2_norm(v_hat)
        equiv.append(grid.l2_norm(back - v_hat) / np.where(nv > 0, nv, 1.0))
        rad.append(radius_fit(u_hat, theta, grid))
        hm_u.append(gevrey_norm(u_hat, spec_out, grid))

    hm_u = np.concatenate(hm_u)
    traj.u_fields = u_fields
    traj.radius = np.concatenate(rad)
    traj.equivalence_residual = np.concatenate(equiv)
    traj.meta.update({"rho_prime": rho_prime, "hm_u": hm_u})

    if rho is not None:
        # ||g||^2 + int_0^t ||f||^2 at every step time: one trapezoid sum
        # over the step times, read at the logged ones
        den = np.full(traj.times.size, gevrey_norm(g_hat, spec_in, grid) ** 2)
        if f is not None:
            fn = np.array(f_norms)
            den[1:] += np.cumsum(0.5 * (fn[1:] + fn[:-1]) * np.diff(traj.times))
        C = 0.0
        for hm, d in zip(hm_u, den[traj.meta["logged_indices"]]):
            if d > 0:
                C = max(C, hm ** 2 / d)
        traj.meta["energy_estimate_C"] = C
    return traj
