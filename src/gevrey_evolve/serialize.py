"""Binary dumps and CSV emission.

Two little-endian binary layouts are supported:

* dense operators:  magic ``PSIDO1``, N as uint64, then 2 N^2 float64
  (row-major, interleaved re/im);
* field snapshots:  magic ``FIELD1``, N as uint64, count as uint64,
  count float64 times, then count rows of 2 N float64 (interleaved re/im).

CSV files start with the comment line ``# schema=1``; floats are written
with shortest round-trip formatting so identical runs are byte-identical.
"""

import numpy as np

from .errors import ShapeError

_PSIDO_MAGIC = b"PSIDO1"
_FIELD_MAGIC = b"FIELD1"


def _interleave(z):
    out = np.empty(z.size * 2, dtype="<f8")
    out[0::2] = z.real.ravel()
    out[1::2] = z.imag.ravel()
    return out


def _deinterleave(buf):
    return buf[0::2] + 1j * buf[1::2]


def write_dense_operator(path, A):
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ShapeError(f"operator must be square, got {A.shape}")
    with open(path, "wb") as fh:
        fh.write(_PSIDO_MAGIC)
        fh.write(np.array(n, dtype="<u8").tobytes())
        fh.write(_interleave(A).tobytes())


def read_dense_operator(path):
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != _PSIDO_MAGIC:
            raise ShapeError(f"bad magic {magic!r}; expected {_PSIDO_MAGIC!r}")
        n = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
        buf = np.frombuffer(fh.read(16 * n * n), dtype="<f8")
    return _deinterleave(buf).reshape(n, n)


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
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != _FIELD_MAGIC:
            raise ShapeError(f"bad magic {magic!r}; expected {_FIELD_MAGIC!r}")
        n = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
        count = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
        times = np.frombuffer(fh.read(8 * count), dtype="<f8").copy()
        fields = [(_deinterleave(np.frombuffer(fh.read(16 * n), dtype="<f8")))
                  for _ in range(count)]
    return times, fields


def fmt(x):
    """Shortest round-trip float formatting (deterministic)."""
    if isinstance(x, float) and (x != x):
        return "nan"
    return repr(float(x))


def trajectory_csv_lines(traj):
    """Columns: t, l2, hm_rho_theta, radius_fit, energy_residual."""
    lines = ["# schema=1", "t,l2,hm_rho_theta,radius_fit,energy_residual"]
    logged = traj.meta.get("logged_indices", range(len(traj.logged_times)))
    hm_u = traj.meta["hm_u"]
    for row, (t, idx) in enumerate(zip(traj.logged_times, logged)):
        l2, hm = traj.l2[idx], hm_u[row]
        rad = traj.radius[row] if traj.radius is not None else float("nan")
        res = traj.energy_residual[min(idx, len(traj.energy_residual) - 1)] \
            if traj.energy_residual is not None and len(traj.energy_residual) else float("nan")
        lines.append(",".join(fmt(v) for v in (t, l2, hm, rad, res)))
    return lines
