"""The scene, map and tensor writers' %.17g encoder against "%.17g" value by value.

`io._encode` must give the bytes of `paper.format_rows` exactly, on any
float64, including the ones where a shortcut would round differently: values
next to powers of ten, exact ties at the 17th digit, the ends of its fast
range, zeros, subnormals and non-finite values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackdsm import io as cio
from crackdsm import imaging
from crackdsm.imaging import AcquisitionConfig, FarFieldTensor
from paper import format_rows


def _assert_rows_match(values):
    values = np.asarray(values, dtype=float)
    assert b"".join(cio._encode(values, ",")) == format_rows(values)


def _from_bits(sign, exponent, fraction):
    return np.array([(sign << 63) | (exponent << 52) | fraction], np.uint64).view(float)[0]


# any finite bit pattern, with half of the binary exponents drawn from -20 to
# 53: the encoder's fast range 1e-4 <= |v| < 1e16 (-14 to 53) and the exponent
# forms just below it
_finite = st.builds(_from_bits, st.integers(0, 1),
                    st.one_of(st.integers(0, 2046), st.integers(1003, 1076)),
                    st.integers(0, 2**52 - 1))


@given(data=st.data(), ny=st.integers(1, 7), nx=st.integers(1, 7))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_encoder_matches_format_on_bit_patterns(data, ny, nx):
    values = data.draw(st.lists(_finite, min_size=ny * nx, max_size=ny * nx))
    _assert_rows_match(np.reshape(values, (ny, nx)))


def _ulps_around(x, count):
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def test_encoder_near_powers_of_ten():
    values = [v for p in range(-9, 19) for v in _ulps_around(float(f"1e{p}"), 2)]
    _assert_rows_match([values, [-v for v in values]])


def test_encoder_exact_ties_round_half_to_even():
    # m * 2**(-1-p) with m odd has the decimal digits of m * 5**(p+1), the last
    # a 5; with 18 of them the value lies halfway between two 17-digit results.
    # p = 1 to 24 puts the ties between 1e-8 and 1e16
    rng = np.random.default_rng(18)
    ties = []
    for p in range(25):
        scale = 5 ** (p + 1)
        lo, hi = -(-10**17 // scale), min((10**18 - 1) // scale, 2**53 - 1)
        for m in rng.integers(lo, hi + 1, size=200) if lo < hi else []:
            m = int(m) | 1
            if m <= hi:
                assert len(str(m * scale)) == 18
                ties.append(m * 2.0 ** (-1 - p))
    _assert_rows_match(np.reshape(ties[:len(ties) // 8 * 8], (-1, 8)))


def test_encoder_zeros_limits_and_non_finite_values():
    tiny = 5e-324
    values = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, -2.2250738585072009e-308,
              *_ulps_around(1e-6, 2), *_ulps_around(1e16, 2), -1e-6, -1e16,
              1 - 2**-53, 1.0, 1e300, -1.2345678901234567e-300, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan, 1e-5, 1e-4, 1e-3, 0.5, 3.0, 100.0]
    _assert_rows_match([values])
    _assert_rows_match(np.reshape(values, (-1, 1)))


_B = cio._BLOCK


# a block holds the most whole rows that fit in _B values, or one wider row:
# (4, _B // 2) two rows per block, (3, _B // 2 + 1) one row per block, and
# (1, 2 * _B + 3) and (3, 20000) rows wider than a block; (100, 300) 27 rows
# per block, 300 not dividing _B, and (3, _B) rows of exactly _B values
@pytest.mark.parametrize("shape", [(1, 1), (3, 20000), (50, 211), (211, 50),
                                   (4, _B // 2), (3, _B // 2 + 1), (1, 2 * _B + 3),
                                   (100, 300), (3, _B)])
def test_encoder_rows_across_blocks(shape):
    # one block, several blocks of whole rows, and a last block partly filled
    values = np.random.default_rng(shape[1]).random(shape) ** 3
    _assert_rows_match(values)


def test_encoder_five_columns_with_special_values_at_block_edges():
    # five-value rows over three blocks; values outside 1e-4 <= |v| < 1e16 at
    # and just before each multiple of _B, inside a block and in a run across
    # a row end
    values = np.random.default_rng(23).standard_normal(5 * (3 * _B // 5 + 1)) * 1e3
    specials = [1e-300, 1e300, np.inf, -np.inf, np.nan, 5e-324]
    for k, start in enumerate(range(0, 3 * _B, _B)):
        at = [start, start + _B - 1, start + _B // 3, start + _B // 2]
        values[at] = [specials[(k + i) % len(specials)] for i in range(len(at))]
    values[_B + 7:_B + 13] = specials
    _assert_rows_match(values.reshape(-1, 5))


@pytest.mark.parametrize("ncols", [5, 300])
def test_encoder_special_values_at_block_ends(ncols):
    # values outside 1e-4 <= |v| < 1e16 at the first and last value of each
    # block of _B // ncols whole rows
    size = _B // ncols * ncols
    values = np.random.default_rng(ncols).standard_normal(3 * size + ncols) * 1e3
    specials = [1e-300, 1e300, np.inf, -np.inf, np.nan, 5e-324]
    ends = [0, *(i for start in range(size, values.size, size) for i in (start - 1, start)), -1]
    values[ends] = [specials[i % len(specials)] for i in range(len(ends))]
    _assert_rows_match(values.reshape(-1, ncols))


# (2, 3, 12) gives one- and two-digit indices; (12, 1, 1024) and (1, 1024, 8)
# one to four digits in the first and last columns and in the middle one; the
# 3 * 7 * 400 rows cross two of write_tensor's blocks of _B // 2 rows
@pytest.mark.parametrize("shape", [(2, 3, 12), (12, 1, 1024), (1, 1024, 8), (3, 7, 400)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_write_tensor_rows_are_the_value_by_value_format(tmp_path, shape):
    f_count, l_count, n_count = shape
    cfg = AcquisitionConfig(tuple(1.0 + 1.5 * np.arange(f_count)), n_count,
                            tuple(np.arange(l_count, dtype=float)))
    rng = np.random.default_rng(4)
    values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 1e-3
    values.flat[:6] = [0.0, -0.0, 1e-9, complex(-1e-300, 5e-324), 1e20, -1e-6]
    # the same values and 1.5e-5 in both columns, on both sides of each block edge
    specials = [0.0, -0.0, 1e-9, -1e-300, 5e-324, 1e20, -1e-6, 1.5e-5]
    edges = [r for e in range(_B // 2, values.size, _B // 2) for r in (e - 1, e)]
    for i, row in enumerate(edges):
        values.flat[row] = complex(specials[i % 8], specials[(i + 3) % 8])
    path = tmp_path / "t.txt"
    cio.write_tensor(path, FarFieldTensor(values, cfg))
    header = "".join([f"# far-field tensor v1\nF {f_count}\nL {l_count}\nN {n_count}\n",
                      "wavenumbers ", " ".join(f"{k:.17g}" for k in cfg.wavenumbers),
                      "\nincident_angles ", " ".join(f"{a:.17g}" for a in cfg.incident_angles),
                      "\ndata f l n re im\n"])
    rows = "".join(f"{f} {l} {n} {v.real:.17g} {v.imag:.17g}\n"
                   for (f, l, n), v in np.ndenumerate(values))
    assert path.read_bytes() == (header + rows).encode()


def test_tensor_indices_fit_the_digit_table():
    # write_tensor writes each index from a table of four-digit words, so
    # the counts imaging allows must stay at or below 10**4
    assert max(imaging._MAX_COUNT.values()) <= 10**4
