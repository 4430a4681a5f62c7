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
and reproducible.

The weight integrals split into an exact hypergeometric antiderivative on
the region where psi == 1 plus Gauss-Legendre panels across the window
roll-off; the quadrature budget is well below 1e-10 absolute.

The time weight solves k' + C1 k + C2 = 0 in closed form and must stay
positive on the horizon; C1, C2 are measured constants fed back by the
positivity module.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy import special

from .errors import ConfigurationError, ParameterError
from .grid import bracket_h

# ----------------------------------------------------------------------
# smooth step from the classical bump, as a Chebyshev series
# ----------------------------------------------------------------------

_STEP_DEGREE = 360


def _build_step_series():
    deg = _STEP_DEGREE
    nodes = np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        vals = np.where(np.abs(nodes) < 1.0,
                        np.exp(-1.0 / np.maximum(1.0 - nodes ** 2, 1e-300)), 0.0)
    coef = _cheb.chebfit(nodes, vals, deg)
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


def smooth_step(u, derivative=0):
    """Monotone C^inf step: 0 for u <= -1, 1 for u >= 1 (Gevrey order 2)."""
    u = np.asarray(u, dtype=float)
    out = np.array(u >= 1.0, dtype=float) if derivative == 0 else np.zeros(u.shape)
    inside = ~(np.abs(u) >= 1.0)     # NaN stays inside and propagates
    out[inside] = _cheb.chebval(u[inside], _STEP_DERIVS[derivative])
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
        if self.h < 1.0:
            raise ParameterError(f"h must be >= 1, got {self.h}")
        if self.M2 < 0 or self.M1 < 0 or self.k0 <= 0:
            raise ParameterError("M2, M1 must be >= 0 and k0 > 0")
        if not (0.5 < self.sigma < 1.0):
            raise ConfigurationError(f"sigma must lie in (1/2, 1), got {self.sigma}")
        if not 2.0 * (1.0 - self.sigma) < 1.0 / self.theta:
            raise ConfigurationError(
                f"need 2(1-sigma) < 1/theta: sigma={self.sigma}, theta={self.theta}")
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


def decay_antiderivative(x, s):
    """integral_0^x <y>^-s dy, exact via the Gauss hypergeometric function."""
    x = np.asarray(x, dtype=float)
    return x * special.hyp2f1(0.5, s / 2.0, 1.5, -np.square(x))


def _gl_panels(starts, stops, s, cap, D):
    """Gauss-Legendre integral of the full windowed integrand on [starts, stops];
    ``cap`` broadcasts against ``starts``."""
    mid = 0.5 * (starts + stops)[..., None]
    rad = 0.5 * (stops - starts)[..., None]
    nodes = mid + rad * _GL_NODES
    byn = np.sqrt(1.0 + nodes ** 2)
    vals = (byn ** (-s) * cutoff_psi(byn / np.asarray(cap)[..., None])
            * domain_window(byn, D))
    return rad[..., 0] * (vals @ _GL_WEIGHTS)


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
    Gauss-Legendre panels.  All caps, panels and nodes are evaluated in one
    batch: full panels once per cap, and one partial panel per point.
    """
    x = np.asarray(x, dtype=float)
    shape = np.broadcast(x, cap).shape
    a = np.abs(np.broadcast_to(x, shape)).ravel()
    caps, ci = np.unique(np.broadcast_to(cap, shape), return_inverse=True)
    ci = ci.ravel()
    y_pure = _bracket_to_y(np.minimum(0.5 * caps, _DOMAIN_LO * D))
    y_end = _bracket_to_y(np.minimum(caps, _DOMAIN_HI * D))
    out = decay_antiderivative(np.minimum(a, y_pure[ci]), s)
    ends = np.minimum(a, y_end[ci])
    need = ends > y_pure[ci]
    if np.any(need):
        bounds = np.linspace(y_pure, y_end, _PANELS + 1, axis=-1)
        section = _gl_panels(bounds[:, :-1], bounds[:, 1:], s, caps[:, None], D)
        cum = np.concatenate((np.zeros((caps.size, 1)),
                              np.cumsum(section, axis=1)), axis=1)
        c, e = ci[need], ends[need]
        step = (y_end[c] - y_pure[c]) / _PANELS
        ip = np.clip(np.floor((e - y_pure[c]) / step).astype(int), 0, _PANELS - 1)
        partial = _gl_panels(bounds[c, ip], e, s, caps[c], D)
        out[need] += cum[c, ip] + partial
    out = out.reshape(shape)
    return np.where(x < 0.0, -out, out)


def lambda2(x, xi, t, p, params: WeightParams):
    """Order-two phase weight; vanishes for |xi| <= h and at x = 0."""
    w = sign_weight(xi, t, p, params)
    cap = np.square(bracket_h(xi, params.h))
    return params.M2 * w * _windowed_over_caps(x, params.sigma, cap,
                                               params.domain_cap)


def lambda1(x, xi, t, p, params: WeightParams):
    """Order-one phase weight with an extra <xi>_h^-1 damping."""
    w = sign_weight(xi, t, p, params)
    b = bracket_h(xi, params.h)
    return params.M1 * (w / b) * _windowed_over_caps(x, params.sigma / 2.0,
                                                     np.square(b),
                                                     params.domain_cap)


def lambda_x_derivative(x, xi, t, p, params: WeightParams, which=2, order=1):
    """Closed-form d^order/dx^order of lambda2 (which=2) or lambda1 (which=1)
    for order in 1..3, from the fundamental theorem of calculus."""
    if order not in (1, 2, 3):
        raise ParameterError("analytic x-derivatives available for orders 1..3")
    x = np.asarray(x, dtype=float)
    b = bracket_h(xi, params.h)
    cap = np.square(b)
    D = params.domain_cap
    s = params.sigma if which == 2 else params.sigma / 2.0
    pref = params.M2 if which == 2 else params.M1 / b
    w = sign_weight(xi, t, p, params)
    bx = np.sqrt(1.0 + x * x)
    u = bx / cap
    # G(x) = <x>^-s chi_dom(<x>); only the derivatives of G and psi that
    # this order needs are evaluated
    gs = bx ** (-s)
    chi0 = domain_window(bx, D)
    psi0 = cutoff_psi(u)
    if order == 1:
        return pref * w * (gs * chi0 * psi0)
    dbx = x / bx
    chi1 = domain_window(bx, D, 1)
    psi1 = cutoff_psi(u, 1)
    dgs = -s * x * bx ** (-s - 2.0)
    g = gs * chi0
    dg = dgs * chi0 + gs * chi1 * dbx
    if order == 2:
        return pref * w * (dg * psi0 + g * psi1 * dbx / cap)
    d2bx = 1.0 / bx ** 3
    chi2 = domain_window(bx, D, 2)
    psi2 = cutoff_psi(u, 2)
    d2gs = -s * bx ** (-s - 2.0) + s * (s + 2.0) * x * x * bx ** (-s - 4.0)
    d2g = (d2gs * chi0 + 2.0 * dgs * chi1 * dbx
           + gs * (chi2 * dbx ** 2 + chi1 * d2bx))
    val = (d2g * psi0 + 2.0 * dg * psi1 * dbx / cap
           + g * (psi2 * dbx ** 2 / cap ** 2 + psi1 * d2bx / cap))
    return pref * w * val


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


def total_phase(t, x, xi, p, params: WeightParams):
    """k(t) <xi>_h^{1/theta} + lambda2 + lambda1."""
    b = bracket_h(xi, params.h)
    return (k_of_t(t, params) * b ** (1.0 / params.theta)
            + lambda2(x, xi, t, p, params) + lambda1(x, xi, t, p, params))
