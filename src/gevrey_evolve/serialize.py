"""Binary dumps and CSV emission.

Field snapshots use one little-endian binary layout: magic ``FIELD1``, N
as uint64, count as uint64, count float64 times, then count rows of 2 N
float64 (interleaved re/im).

CSV files start with a comment line ``# schema=<version>``; floats are
written with shortest round-trip formatting so identical runs are
byte-identical.
"""

import numpy as np

from .errors import ShapeError

_FIELD_MAGIC = b"FIELD1"


def _interleave(z):
    out = np.empty(z.size * 2, dtype="<f8")
    out[0::2] = z.real.ravel()
    out[1::2] = z.imag.ravel()
    return out


def _deinterleave(buf):
    return buf[0::2] + 1j * buf[1::2]


def write_fields(path, times, fields):
    fields = [np.asarray(f, dtype=complex) for f in fields]
    times = np.asarray(times, dtype=float)
    if len(fields) != times.size:
        raise ShapeError("times and fields length mismatch")
    n = fields[0].size
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(np.array(n, dtype="<u8").tobytes())
        fh.write(np.array(len(fields), dtype="<u8").tobytes())
        fh.write(times.astype("<f8").tobytes())
        for f in fields:
            if f.size != n:
                raise ShapeError("inconsistent field lengths")
            fh.write(_interleave(f).tobytes())


def read_fields(path):
    """The times and fields of a write_fields file.  ShapeError for a bad
    magic, or for a length other than the 6 + 16 + 8 count + 16 N count
    bytes its header declares (a cut or padded file)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = raw[:6]
    if magic != _FIELD_MAGIC:
        raise ShapeError(f"bad magic {magic!r}; expected {_FIELD_MAGIC!r}")
    head = 6 + 16
    if len(raw) < head:
        raise ShapeError(f"field file holds {len(raw)} bytes; its header "
                         f"alone takes {head}")
    n, count = (int(v) for v in np.frombuffer(raw, "<u8", 2, offset=6))
    expected = head + 8 * count + 16 * n * count
    if len(raw) != expected:
        raise ShapeError(f"field file holds {len(raw)} bytes; its header "
                         f"(N={n}, count={count}) declares {expected}")
    times = np.frombuffer(raw, "<f8", count, offset=head).copy()
    body = np.frombuffer(raw, "<f8", offset=head + 8 * count)
    return times, [_deinterleave(row) for row in body.reshape(count, 2 * n)]


def fmt(x):
    """Shortest round-trip float formatting (deterministic)."""
    if isinstance(x, float) and (x != x):
        return "nan"
    return repr(float(x))


def trajectory_csv_lines(traj):
    """Columns: t, l2, hm_rho_theta, radius_fit, energy_residual."""
    lines = ["# schema=1", "t,l2,hm_rho_theta,radius_fit,energy_residual"]
    last = len(traj.energy_residual) - 1   # the final step has no rate
    for row, (t, idx) in enumerate(zip(traj.logged_times,
                                       traj.meta["logged_indices"])):
        lines.append(",".join(fmt(v) for v in (
            t, traj.l2[idx], traj.meta["hm_u"][row], traj.radius[row],
            traj.energy_residual[min(idx, last)])))
    return lines
