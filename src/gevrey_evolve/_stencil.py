"""Finite-difference stencils and small combinatorial helpers.

Fornberg's algorithm generates derivative weights on arbitrary nodes, which
lets us difference uniform frequency lattices with one-sided stencils near
the edges; each stencil is computed once per process.  The Bell-polynomial
recursion turns derivative lists of an exponent into derivatives of its
exponential with the exponential factor cancelled, so no large
exponentials are ever formed.
"""

import numpy as np

# bytes of the interior block diff_uniform sums its terms into at a time
BLOCK_BYTES = 1 << 18

# the stencils computed so far, by (nodes, x0, order)
_WEIGHTS = {}


def fd_weights(nodes, x0, order):
    """Weights w with sum(w*f(nodes)) ~ f^(order)(x0) (Fornberg 1988), as a
    read-only array computed once per (nodes, x0, order)."""
    nodes = np.asarray(nodes, dtype=float)
    key = (tuple(nodes.tolist()), float(x0), order)
    if key not in _WEIGHTS:
        weights = _fornberg(nodes, float(x0), order)
        weights.flags.writeable = False
        _WEIGHTS[key] = weights
    return _WEIGHTS[key]


def _fornberg(nodes, x0, order):
    """Fornberg's recursion for the weights of fd_weights."""
    n = len(nodes)
    if order >= n:
        raise ValueError("need more nodes than derivative order")
    c = np.zeros((n, order + 1))
    c1 = 1.0
    c4 = nodes[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def diff_uniform(values, spacing, order, axis=0, accuracy=4):
    """Differentiate sampled values on a uniform lattice along ``axis``.

    Central stencils of the requested accuracy in the interior, one-sided
    stencils of the same width near the boundary.  The interior adds its
    terms in stencil order into preallocated buffers, starting from 0 as
    sum() does, so it rounds as the sum of the terms; along axis 0 of a
    C-contiguous array, such as the xi-major body quantize.xi_derivative
    gathers from a column-major table, each term is one contiguous block.
    """
    values = np.asarray(values)
    n = values.shape[axis]
    width = order + accuracy  # stencil size; central needs odd width
    if width % 2 == 0:
        width += 1
    if width > n:
        raise ValueError("lattice too short for requested stencil")
    half = width // 2
    scale = spacing**order
    moved = np.moveaxis(values, axis, 0)
    out = np.empty_like(moved)
    # interior: one shared central stencil, a block of lattice points at a
    # time so that the block and its term buffer stay in cache
    w = fd_weights(np.arange(-half, half + 1.0), 0.0, order) / scale
    core = out[half: n - half]
    block = max(1, BLOCK_BYTES // max(moved[0].nbytes, 1))
    term = np.empty_like(core[:block])
    for lo in range(0, n - 2 * half, block):
        acc = core[lo: lo + block]
        t = term[:len(acc)]
        acc[...] = 0
        for j in range(width):
            np.multiply(w[j], moved[lo + j: lo + j + len(acc)], out=t)
            acc += t
    # edges: one-sided stencils.  A real edge block is cast to complex for
    # the product: BLAS rounds the complex product (zgemv) and the real one
    # (dgemv) differently, and a real table must differentiate as the real
    # part of its complex cast.  The cast is C-contiguous, the copy numpy's
    # product makes of a strided complex block
    nodes = np.arange(width, dtype=float)
    head, tail = (np.ascontiguousarray(edge, dtype=complex)
                  for edge in (moved[:width], moved[n - width:]))
    part = np.asarray if np.iscomplexobj(out) else np.real
    for i in range(half):
        w = fd_weights(nodes, float(i), order) / scale
        out[i] = part(np.tensordot(w, head, axes=(0, 0)))
        w = fd_weights(nodes, float(width - 1 - i), order) / scale
        out[n - 1 - i] = part(np.tensordot(w, tail, axes=(0, 0)))
    return np.moveaxis(out, 0, axis)


def exp_derivative_factors(derivs, bell=()):
    """Given [g', g'', ..., g^(n)] return [B_1, ..., B_n] with
    d^k/dx^k e^g = B_k e^g (complete Bell polynomial recursion).  ``bell``
    holds B_1, ..., B_m already formed from the same derivatives, m <= n;
    the list returned extends it.

    Entries may be scalars or arrays; broadcasting applies.
    """
    n = len(derivs)
    bell = list(bell)
    from math import comb
    for k in range(len(bell) + 1, n + 1):
        # B_k = sum_{i=0}^{k-1} C(k-1, i) B_{k-1-i} g^(i+1), B_0 = 1
        acc = 0.0
        for i in range(k):
            prev = bell[k - 2 - i] if k - 2 - i >= 0 else 1.0
            term = comb(k - 1, i) * prev * derivs[i]
            acc = _accumulate(acc, term) if i else acc + term
        bell.append(acc)
    return bell


def _accumulate(acc, term):
    """acc + term, written into acc when acc is an array that holds the
    sum's shape and type; a new array or scalar otherwise."""
    if (isinstance(acc, np.ndarray)
            and np.broadcast_shapes(acc.shape, np.shape(term)) == acc.shape
            and np.can_cast(np.result_type(acc, term), acc.dtype)):
        acc += term
        return acc
    return acc + term
