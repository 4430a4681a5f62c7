import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_evolve.errors import ConfigurationError, ParameterError, ShapeError
from gevrey_evolve.grid import bracket_h, make_grid


def test_lattice_definition():
    g = make_grid(np.pi, 8)
    assert g.dx == pytest.approx(2 * np.pi / 8)
    assert np.allclose(sorted(g.xi), np.arange(-4, 4))
    g2 = make_grid(20.0, 256)
    assert g2.dxi == pytest.approx(np.pi / 20.0)


@pytest.mark.parametrize("L,N", [(np.pi, 7), (np.pi, 4), (-1.0, 64), (0.0, 64)])
def test_bad_grid_rejected(L, N):
    with pytest.raises(ConfigurationError):
        make_grid(L, N)


def test_forward_pure_mode():
    g = make_grid(np.pi, 64)
    u = np.exp(1j * g.x)
    u_hat = g.forward(u)
    k = np.argmax(np.abs(u_hat))
    assert g.xi[k] == pytest.approx(1.0)
    assert np.sum(np.abs(u_hat) > 1e-10) == 1


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_roundtrip_and_parseval(seed):
    g = make_grid(5.0, 32)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    v = g.inverse(g.forward(u))
    assert np.max(np.abs(v - u)) < 1e-12 * max(1.0, np.max(np.abs(u)))
    assert abs(np.linalg.norm(g.forward(u)) - np.linalg.norm(u)) \
        < 1e-12 * np.linalg.norm(u)


def test_shape_mismatch():
    g = make_grid(np.pi, 16)
    with pytest.raises(ShapeError):
        g.forward(np.zeros(8))
    with pytest.raises(ShapeError):
        g.inverse(np.zeros((3, 8)))


@pytest.mark.parametrize("N", [40, 64, 256])
def test_transforms_of_a_stack_match_row_by_row(N):
    # a (B, N) stack transforms bit for bit as its rows one by one, and the
    # norms of its rows are the rows' norms
    g = make_grid(7.0, N)
    rng = np.random.default_rng(N)
    U = rng.standard_normal((9, N)) + 1j * rng.standard_normal((9, N))
    fwd, inv, nrm = g.forward(U), g.inverse(U), g.l2_norm(U)
    assert fwd.shape == inv.shape == U.shape and nrm.shape == (9,)
    for row, f, i, n in zip(U, fwd, inv, nrm):
        assert np.array_equal(f, g.forward(row))
        assert np.array_equal(i, g.inverse(row))
        assert n == g.l2_norm(row) and isinstance(g.l2_norm(row), float)


def test_bracket_examples():
    assert bracket_h(0.0, 1.0) == pytest.approx(1.0)
    assert bracket_h(3.0, 4.0) == pytest.approx(5.0)
    assert bracket_h(1.0, 1.0) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ParameterError):
        bracket_h(1.0, 0.5)


@given(st.floats(-100, 100), st.floats(1, 50))
@settings(max_examples=50, deadline=None)
def test_bracket_dominates(xi, h):
    assert bracket_h(xi, h) >= max(h, abs(xi)) - 1e-12
