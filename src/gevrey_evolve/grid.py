"""Periodic collocation grid and its transform conventions.

Nodes x_j = -L + 2L j/N, frequencies xi_k = (pi/L) k with k in
{-N/2, ..., N/2-1} stored in FFT order.  The transform pair is unitary
(1/sqrt(N) both ways) so Parseval holds exactly; the single unmatched
Nyquist mode is dropped from differentiation and from symbol tables.
"""

import numpy as np

from .errors import ConfigurationError, ParameterError, ShapeError


def bracket_h(xi, h):
    """Shifted frequency bracket sqrt(h^2 + xi^2), h >= 1."""
    if h < 1:
        raise ParameterError(f"frequency shift h must be >= 1, got {h}")
    return np.sqrt(h * h + np.square(np.asarray(xi, dtype=float)))


class Grid:
    """Immutable 1-D periodic grid on [-L, L) with N points."""

    def __init__(self, L, N):
        if N < 8 or N % 2 != 0:
            raise ConfigurationError(f"N must be an even integer >= 8, got {N}")
        if L <= 0:
            raise ConfigurationError(f"half-width L must be positive, got {L}")
        self.L = float(L)
        self.N = int(N)
        self.dx = 2.0 * self.L / self.N
        self.x = -self.L + self.dx * np.arange(self.N)
        # FFT ordering: 0, 1, ..., N/2-1, -N/2, ..., -1 times pi/L
        self.xi = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)
        self.dxi = np.pi / self.L
        self.nyquist = self.N // 2          # index of the unmatched mode
        self.xi_max = self.dxi * (self.N // 2 - 1)
        self._phase = np.exp(1j * self.xi * self.L)  # e^{-i xi x_0}
        self._synthesis = None

    def __eq__(self, other):
        return isinstance(other, Grid) and other.L == self.L and other.N == self.N

    def __repr__(self):
        return f"Grid(L={self.L}, N={self.N})"

    # -- transforms ---------------------------------------------------

    def forward(self, u):
        """Coefficients u_hat with u(x_j) = (1/sqrt N) sum_k u_hat_k e^{i xi_k x_j};
        of each row of a stack (..., N)."""
        u = self.check_field(u)
        return self._phase * np.fft.fft(u, norm="ortho")

    def inverse(self, u_hat):
        """Inverse of :meth:`forward`, row by row on a stack."""
        u_hat = self.check_field(u_hat)
        return np.fft.ifft(u_hat / self._phase, norm="ortho")

    def check_field(self, u):
        """u as a complex field of shape (N,), or a stack (..., N) of them."""
        u = np.asarray(u)
        if u.ndim == 0 or u.shape[-1] != self.N:
            raise ShapeError(f"field has shape {u.shape}, expected (..., {self.N})")
        return u.astype(complex, copy=False)

    def synthesis_matrix(self):
        """Matrix E with E[j, k] = e^{i xi_k x_j}/sqrt(N); E @ forward(u) == u."""
        if self._synthesis is None:
            E = np.exp(1j * np.outer(self.x, self.xi)) / np.sqrt(self.N)
            self._synthesis = E
        return self._synthesis

    def band_mask(self):
        """Boolean mask of the resolved band |xi| <= xi_max / 2."""
        mask = np.abs(self.xi) <= 0.5 * self.xi_max + 1e-12
        mask[self.nyquist] = False
        return mask

    def l2_norm(self, u):
        """Discrete L^2 norm with weight dx: a float for one field, an array
        of the rows' norms for a stack (..., N)."""
        norm = np.sqrt(self.dx * np.sum(np.abs(np.asarray(u)) ** 2, axis=-1))
        return float(norm) if norm.ndim == 0 else norm


def make_grid(L, N):
    """Build a periodic grid; N even and >= 8, L > 0."""
    return Grid(L, N)
