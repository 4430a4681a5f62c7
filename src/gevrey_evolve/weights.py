"""Phase-weight ingredients: smooth cutoffs, spatial weights, time weight.

The spatial weights are integrals of decaying coefficients against a smooth
window,

    lam2(x, xi) = M2 w(xi/h) * integral_0^x <y>^-sigma  psi(<y>/<xi>_h^2) dy,
    lam1(x, xi) = M1 w(xi/h) <xi>_h^-1
                  * integral_0^x <y>^-sigma/2 psi(<y>/<xi>_h^2) dy,

where psi is an even C^inf window equal to 1 on [0, 1/2] and 0 beyond 1,
and w is a smooth sign selector vanishing for |xi| <= h and saturating at
-sgn(d_xi a3) beyond R_a3 h.  Both cutoffs are built from the normalized
antiderivative of the classical bump exp(-1/(1-u^2)) (order-2 Gevrey),
represented once as a Chebyshev series so evaluation is vectorized, smooth
and reproducible; the series is summed by Clenshaw's recurrence in three
rotating buffers, bit for bit numpy's chebval.

The weight integrals split into the antiderivative of <y>^-s on the region
where psi == 1 plus Gauss-Legendre panels across the window roll-off; the
quadrature budget is well below 1e-10 absolute.  The antiderivative is one
fixed 40-node Gauss-Legendre rule in u = asinh y (relative error below
1e-13 against the closed form x 2F1(1/2, s/2; 3/2; -x^2)), so the module
needs numpy alone.  The integrals are odd in x and evaluated once per
unique (|x|, window size) pair; window sizes of 2 * 0.92 D or more see
psi == 1 wherever the domain window is nonzero, so all of them share one
column.  lam2 and lam1 integrate over the same nodes and share one
evaluation of the windows there, and on the lattice the window values
that their x-derivatives read are evaluated once (Windows).

The time weight solves k' + C1 k + C2 = 0 in closed form and must stay
positive on the horizon; C1, C2 are measured constants fed back by the
positivity module.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import ConfigurationError, ParameterError
from .grid import bracket_h
from .symbols import range_error

# ----------------------------------------------------------------------
# smooth step from the classical bump, as a Chebyshev series
# ----------------------------------------------------------------------

_STEP_DEGREE = 360


def _build_step_series():
    """The normalized antiderivative of the bump's Chebyshev interpolant at
    the n = deg + 1 Chebyshev-Gauss nodes x_k = cos(pi (k + 1/2) / n), in
    closed form: c_j = (2/n) sum_k f(x_k) cos(j pi (k + 1/2) / n), c_0
    halved.  The angles are reduced exactly, as integers j (2k + 1) mod 4n
    of pi / 2n, and the sums are numpy reductions, not a BLAS product, so
    the series does not depend on the BLAS build or its thread count."""
    n = _STEP_DEGREE + 1
    k = np.arange(n)
    nodes = np.cos(np.pi * (k + 0.5) / n)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        vals = np.where(np.abs(nodes) < 1.0,
                        np.exp(-1.0 / np.maximum(1.0 - nodes ** 2, 1e-300)), 0.0)
    angles = np.outer(k, 2 * k + 1) % (4 * n) * (np.pi / (2 * n))
    coef = (2.0 / n) * np.sum(np.cos(angles) * vals, axis=1)
    coef[0] *= 0.5
    integral = _cheb.chebint(coef, lbnd=-1.0)
    total = _cheb.chebval(1.0, integral)
    return integral / total


_STEP_SERIES = _build_step_series()
_STEP_DERIVS = [_STEP_SERIES]
for _ in range(3):
    _STEP_DERIVS.append(_cheb.chebder(_STEP_DERIVS[-1]))
# every value coefficient past index 157 is below 1e-16, so the value series
# is cut there; the derivative series amplify the tail and stay whole
_STEP_DERIVS[0] = _STEP_SERIES[:158]


def _clenshaw(x, c):
    """chebval(x, c) for a 1-D x and len(c) >= 3: the same recurrence in the
    same operation order, so bit for bit the same values, run in three
    buffers that rotate instead of a new array per operation."""
    c0, c1, nxt = (np.empty_like(x) for _ in range(3))
    c0[...], c1[...] = c[-2], c[-1]
    x2 = 2 * x
    for i in range(3, len(c) + 1):
        # c0, c1 <- c[-i] - c1, c0 + c1 * x2
        np.subtract(c[-i], c1, out=nxt)
        np.multiply(c1, x2, out=c1)
        np.add(c0, c1, out=c1)
        c0, nxt = nxt, c0
    np.multiply(c1, x, out=c1)
    return np.add(c0, c1, out=c0)


def smooth_step(u, derivative=0):
    """Monotone C^inf step: 0 for u <= -1, 1 for u >= 1 (Gevrey order 2)."""
    u = np.asarray(u, dtype=float)
    out = np.array(u >= 1.0, dtype=float) if derivative == 0 else np.zeros(u.shape)
    inside = ~(np.abs(u) >= 1.0)     # NaN stays inside and propagates
    out[inside] = _clenshaw(u[inside], _STEP_DERIVS[derivative])
    return out


def cutoff_psi(y, derivative=0):
    """Even window: 1 for |y| <= 1/2, 0 for |y| >= 1, smooth in between.

    With derivative=k returns d^k psi / dy^k; the window rolls off on
    1/2 < |y| < 1 through the rescaled smooth step S(4|y| - 3).
    """
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    if derivative == 0:
        return 1.0 - smooth_step(4.0 * a - 3.0)
    val = -(4.0 ** derivative) * smooth_step(4.0 * a - 3.0, derivative=derivative)
    if derivative % 2 == 0:
        return val
    sgn = np.where(y < 0.0, -1.0, 1.0)
    return val * sgn


# ----------------------------------------------------------------------
# weight parameters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightParams:
    """All tunable constants of the conjugation phase.

    domain_cap is the <x> scale of the periodic box; the weight integrand is
    rolled off smoothly before the seam so that spatial derivatives of the
    phase stay periodic-smooth (infinite by default: no roll-off)."""

    M2: float
    M1: float
    h: float
    k0: float
    sigma: float
    theta: float
    C1: float = 0.0
    C2: float = 0.0
    R_a3: float = 2.0
    domain_cap: float = float("inf")

    def __post_init__(self):
        # written so that nan fails each test
        if not (1.0 <= self.h < np.inf):
            raise ParameterError(f"h must be finite and >= 1, got {self.h}")
        if not (0.0 <= self.M2 < np.inf and 0.0 <= self.M1 < np.inf
                and 0.0 < self.k0 < np.inf):
            raise ParameterError(
                f"M2, M1 must be finite and >= 0 and k0 finite and > 0, got "
                f"M2={self.M2}, M1={self.M1}, k0={self.k0}")
        if bad := range_error(self.sigma, theta=self.theta):
            raise ConfigurationError(bad)
        if self.R_a3 <= 1.0:
            raise ConfigurationError("R_a3 must exceed 1 (smooth sign transition)")

    def with_ode_constants(self, C1, C2):
        return replace(self, C1=float(C1), C2=float(C2))


# ----------------------------------------------------------------------
# sign selector w(xi/h)
# ----------------------------------------------------------------------

def sign_weight(xi, t, p, params: WeightParams):
    """w(xi/h): 0 for |xi| <= h, -sgn(d_xi a3(t, xi)) for |xi| > R_a3 h,
    smooth monotone transition on the annulus in between."""
    xi = np.asarray(xi, dtype=float)
    s = np.abs(xi) / params.h
    R = params.R_a3
    ramp = smooth_step((2.0 * s - (1.0 + R)) / (R - 1.0))
    d = np.asarray(p.a3.dxi(t, 0.0, xi), dtype=float)
    d = np.broadcast_to(d, np.broadcast(d, xi).shape)
    xib = np.broadcast_to(xi, d.shape)
    act = np.abs(xib) > params.h
    for side in (xib > 0, xib < 0):
        sg = np.sign(d[act & side])
        sg = sg[sg != 0]
        if sg.size and not np.all(sg == sg[0]):
            raise ConfigurationError(
                "sign of d_xi a3 changes beyond |xi| = h; R_a3 too small")
    return -np.sign(d) * np.broadcast_to(ramp, d.shape)


# ----------------------------------------------------------------------
# windowed decay integrals
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_PANELS = 48
_DOMAIN_LO = 0.70   # roll-off of the weight integrand starts here (x <x> / D)
_DOMAIN_HI = 0.92   # and completes here, before the periodic seam


def plateau(u, lo, hi, derivative=0):
    """Smooth descent from 1 to 0 across [lo, hi] (1 below lo, 0 above hi)."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(hi):
        return np.ones_like(u) if derivative == 0 else np.zeros_like(u)
    arg = (2.0 * u - (lo + hi)) / (hi - lo)
    val = smooth_step(arg, derivative=derivative) * (2.0 / (hi - lo)) ** derivative
    return (1.0 - val) if derivative == 0 else -val


def domain_window(u, D, derivative=0):
    """Smooth plateau in u = <y>: 1 for u <= 0.7 D, 0 for u >= 0.92 D.

    Keeps the phase weights constant near the periodic seam so that their
    spatial derivatives stay periodic-smooth.  D = inf disables it.
    """
    if not np.isfinite(D):
        u = np.asarray(u, dtype=float)
        return np.ones_like(u) if derivative == 0 else np.zeros_like(u)
    return plateau(u, _DOMAIN_LO * D, _DOMAIN_HI * D, derivative=derivative)


_AD_NODES, _AD_WEIGHTS = np.polynomial.legendre.leggauss(40)


def decay_antiderivative(x, s):
    """integral_0^x <y>^-s dy = sgn(x) integral_0^asinh|x| cosh(u)^(1-s) du.

    The integrand in u is analytic in the strip |Im u| < pi/2, so Gauss-
    Legendre converges geometrically on it: one fixed 40-node rule on
    [0, asinh|x|] agrees with the closed form x 2F1(1/2, s/2; 3/2; -x^2)
    to 2e-14 relative for s in [0.25, 0.95] and |x| <= 100, and to 3e-15
    at |x| = 1e5 (s = 0.75).  The rule is evaluated once per distinct |x|
    and summed row by row.
    """
    x = np.asarray(x, dtype=float)
    a, inv = np.unique(np.abs(x), return_inverse=True)
    half = 0.5 * np.arcsinh(a)[:, None]
    vals = np.cosh(half * (_AD_NODES + 1.0)) ** (1.0 - s) * _AD_WEIGHTS
    out = (half[:, 0] * np.sum(vals, axis=-1))[inv.reshape(x.shape)]
    return np.where(x < 0.0, -out, out)


def _gl_panels(starts, stops, s, cap, D):
    """Gauss-Legendre integral of the full windowed integrand on [starts, stops];
    ``cap`` broadcasts against ``starts``.  For a tuple of exponents s, a
    list of integrals over one evaluation of the windows."""
    mid = 0.5 * (starts + stops)[..., None]
    rad = 0.5 * (stops - starts)[..., None]
    nodes = mid + rad * _GL_NODES
    byn = np.sqrt(1.0 + nodes ** 2)
    psi = cutoff_psi(byn / np.asarray(cap)[..., None])
    chi = domain_window(byn, D)
    out = [rad[..., 0] * ((byn ** (-e) * psi * chi) @ _GL_WEIGHTS)
           for e in np.atleast_1d(s)]
    return out if np.ndim(s) else out[0]


def _bracket_to_y(u):
    """Positive y with <y> = u (0 when u <= 1)."""
    return np.sqrt(np.maximum(u * u - 1.0, 0.0))


def windowed_decay_integral(x, s, cap, D=float("inf")):
    """integral_0^x <y>^-s psi(<y>/cap) chi_dom(<y>) dy, scalar window size."""
    out = _windowed_over_caps(x, s, float(cap), D)
    return float(out) if out.ndim == 0 else out


def _windowed_over_caps(x, s, cap, D):
    """Windowed integral, broadcasting over x and (possibly varying) cap.

    Below y_pure(cap) the window is 1 and the exact antiderivative applies;
    the roll-off [y_pure, y_end] of each unique cap is split into _PANELS
    Gauss-Legendre panels.  The integral is odd in x, so it is evaluated
    once per pair of a unique |x| and a unique cap, in one batch (full
    panels once per cap, one partial panel per pair), and gathered back
    with the sign of x.  A cap of 2 _DOMAIN_HI D or more sees psi == 1.0
    exactly on every node short of the domain window's end, so all such
    caps share one column and are clamped to that value.  For a tuple of
    exponents s, a list of integrals sharing the panels' window values.
    """
    x = np.asarray(x, dtype=float)
    cap = np.minimum(cap, 2.0 * _DOMAIN_HI * D)
    uniq_a, ai = np.unique(np.abs(x), return_inverse=True)
    caps, ci = np.unique(cap, return_inverse=True)
    rows, cols = uniq_a.size, caps.size
    gather = ai.reshape(x.shape), ci.reshape(np.shape(cap))
    a = np.repeat(uniq_a, cols)
    ci = np.tile(np.arange(cols), rows)
    y_pure = _bracket_to_y(np.minimum(0.5 * caps, _DOMAIN_LO * D))
    y_end = _bracket_to_y(np.minimum(caps, _DOMAIN_HI * D))
    exponents = np.atleast_1d(s)
    outs = [decay_antiderivative(np.minimum(a, y_pure[ci]), e) for e in exponents]
    ends = np.minimum(a, y_end[ci])
    need = ends > y_pure[ci]
    if np.any(need):
        bounds = np.linspace(y_pure, y_end, _PANELS + 1, axis=-1)
        sections = _gl_panels(bounds[:, :-1], bounds[:, 1:], exponents,
                              caps[:, None], D)
        c, e = ci[need], ends[need]
        step = (y_end[c] - y_pure[c]) / _PANELS
        ip = np.clip(np.floor((e - y_pure[c]) / step).astype(int), 0, _PANELS - 1)
        partials = _gl_panels(bounds[c, ip], e, exponents, caps[c], D)
        for out, section, partial in zip(outs, sections, partials):
            cum = np.concatenate((np.zeros((caps.size, 1)),
                                  np.cumsum(section, axis=1)), axis=1)
            out[need] += cum[c, ip] + partial
    outs = [out.reshape(rows, cols)[gather] for out in outs]
    outs = [np.where(x < 0.0, -out, out) for out in outs]
    return outs if np.ndim(s) else outs[0]


# ----------------------------------------------------------------------
# the spatial weights and their x-derivatives
# ----------------------------------------------------------------------

def _zero_weight(x, xi):
    """A phase weight of strength 0: exact zeros, with no window evaluated."""
    return np.zeros(np.broadcast(x, xi).shape)


def _strength(params, which):
    return params.M2 if which == 2 else params.M1


def _exponent(params, which):
    """The decay exponent of lam2 (which=2) or lam1 (which=1)."""
    return params.sigma if which == 2 else params.sigma / 2.0


class Windows:
    """The windows lam2, lam1 and their x-derivatives read at the points
    (x, xi): the sign selector w(xi/h), psi^(k)(u) at u = <x>/<xi>_h^2 and
    the domain window chi^(k)(<x>).  Each is evaluated on first use and then
    kept, so every weight and derivative read from one Windows shares one
    evaluation of each."""

    def __init__(self, x, xi, t, p, params: WeightParams):
        self.x = np.asarray(x, dtype=float)
        self.xi, self.t, self.p, self.params = xi, t, p, params
        self.b = bracket_h(xi, params.h)
        self.cap = np.square(self.b)
        self.bx = np.sqrt(1.0 + self.x * self.x)
        self._memo = {}

    def _once(self, key, evaluate):
        if key not in self._memo:
            self._memo[key] = evaluate()
        return self._memo[key]

    @property
    def w(self):
        return self._once("w", lambda: sign_weight(self.xi, self.t, self.p,
                                                   self.params))

    def psi(self, k=0):
        u = self._once("u", lambda: self.bx / self.cap)
        return self._once(("psi", k), lambda: cutoff_psi(u, k))

    def chi(self, k=0):
        return self._once(("chi", k), lambda: domain_window(
            self.bx, self.params.domain_cap, k))


def spatial_weights(win: Windows, params: WeightParams, which=(2, 1)):
    """[lam2, lam1] (those named in ``which``) at the points of win; the
    weights of nonzero strength share one pass over the roll-off panels."""
    live = [k for k in which if _strength(params, k) != 0.0]
    integrals = dict(zip(live, _windowed_over_caps(
        win.x, tuple(_exponent(params, k) for k in live), win.cap,
        params.domain_cap))) if live else {}
    out = []
    for k in which:
        if k not in integrals:
            out.append(_zero_weight(win.x, win.xi))
        elif k == 2:
            out.append(params.M2 * win.w * integrals[k])
        else:
            out.append(params.M1 * (win.w / win.b) * integrals[k])
    return out


def lambda2(x, xi, t, p, params: WeightParams):
    """Order-two phase weight; vanishes for |xi| <= h and at x = 0."""
    return spatial_weights(Windows(x, xi, t, p, params), params, (2,))[0]


def lambda1(x, xi, t, p, params: WeightParams):
    """Order-one phase weight with an extra <xi>_h^-1 damping."""
    return spatial_weights(Windows(x, xi, t, p, params), params, (1,))[0]


def weight_x_derivative(win: Windows, params: WeightParams, which=2, order=1):
    """Closed-form d^order/dx^order of lam2 (which=2) or lam1 (which=1) at
    the points of win for order in 1..3, from the fundamental theorem of
    calculus."""
    if order not in (1, 2, 3):
        raise ParameterError("analytic x-derivatives available for orders 1..3")
    if _strength(params, which) == 0.0:
        return _zero_weight(win.x, win.xi)
    x, bx, cap = win.x, win.bx, win.cap
    s = _exponent(params, which)
    pref = params.M2 if which == 2 else params.M1 / win.b
    w = win.w
    # G(x) = <x>^-s chi_dom(<x>); only the derivatives of G and psi that
    # this order needs are evaluated
    gs = bx ** (-s)
    chi0 = win.chi(0)
    psi0 = win.psi(0)
    if order == 1:
        return pref * w * (gs * chi0 * psi0)
    dbx = x / bx
    chi1 = win.chi(1)
    psi1 = win.psi(1)
    dgs = -s * x * bx ** (-s - 2.0)
    g = gs * chi0
    dg = dgs * chi0 + gs * chi1 * dbx
    if order == 2:
        return pref * w * (dg * psi0 + g * psi1 * dbx / cap)
    d2bx = 1.0 / bx ** 3
    chi2 = win.chi(2)
    psi2 = win.psi(2)
    d2gs = -s * bx ** (-s - 2.0) + s * (s + 2.0) * x * x * bx ** (-s - 4.0)
    d2g = (d2gs * chi0 + 2.0 * dgs * chi1 * dbx
           + gs * (chi2 * dbx ** 2 + chi1 * d2bx))
    val = (d2g * psi0 + 2.0 * dg * psi1 * dbx / cap
           + g * (psi2 * dbx ** 2 / cap ** 2 + psi1 * d2bx / cap))
    return pref * w * val


def lambda_x_derivative(x, xi, t, p, params: WeightParams, which=2, order=1):
    """d^order/dx^order of lam2 (which=2) or lam1 (which=1), order 1..3."""
    return weight_x_derivative(Windows(x, xi, t, p, params), params, which,
                               order)


# ----------------------------------------------------------------------
# time weight and total phase
# ----------------------------------------------------------------------

def k_of_t(t, params: WeightParams):
    """Closed-form solution of k' + C1 k + C2 = 0 with k(0) = k0."""
    t = np.asarray(t, dtype=float)
    C1, C2, k0 = params.C1, params.C2, params.k0
    if C1 == 0.0:
        val = k0 - C2 * t
    else:
        val = np.exp(-C1 * t) * k0 + C2 * np.expm1(-C1 * t) / C1
    if np.any(val <= 0.0):
        raise ParameterError(
            "time weight k(t) reaches zero inside the horizon; increase h "
            "(which shrinks C2) or k0")
    return val


def k_prime(t, params: WeightParams):
    """k'(t) = -(C1 k(t) + C2); non-positive when C1, C2, k >= 0."""
    return -(params.C1 * k_of_t(t, params) + params.C2)

