import numpy as np
import pytest

from gevrey_evolve.errors import ShapeError
from gevrey_evolve.serialize import fmt, read_fields, write_fields


def test_fields_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    times = np.array([0.0, 0.25, 1.0])
    fields = [rng.standard_normal(8) + 1j * rng.standard_normal(8)
              for _ in times]
    path = tmp_path / "snap.bin"
    write_fields(path, times, fields)
    t2, f2 = read_fields(path)
    assert np.array_equal(times, t2)
    for a, b in zip(fields, f2):
        assert np.array_equal(a, b)
    raw = path.read_bytes()
    assert raw[:6] == b"FIELD1"
    assert len(raw) == 6 + 8 + 8 + 3 * 8 + 3 * 8 * 16


def test_fmt_roundtrip():
    vals = [0.1, 1.0 / 3.0, 1e-17, -2.5e300]
    for v in vals:
        assert float(fmt(v)) == v
    assert fmt(float("nan")) == "nan"


@pytest.mark.parametrize("size, want", [(10, 22), (30, 294), (278, 294),
                                        (294 + 8, 294)],
                         ids=["header", "times", "field", "padded"])
def test_fields_of_the_wrong_length_are_refused(tmp_path, size, want):
    # a 2-field N=8 file is 294 bytes; cut in its header, its times or its
    # last field, or padded, it is refused with the bytes it holds and the
    # bytes its header takes or declares
    rng = np.random.default_rng(4)
    path = tmp_path / "snap.bin"
    write_fields(path, [0.0, 1.0],
                 [rng.standard_normal(8) + 1j * rng.standard_normal(8)
                  for _ in range(2)])
    raw = path.read_bytes()
    assert len(raw) == 294
    path.write_bytes((raw + bytes(8))[:size])
    with pytest.raises(ShapeError,
                       match=f"holds {size} bytes; its header .*{want}$"):
        read_fields(path)
