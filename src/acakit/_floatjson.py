"""`json.dumps(vector.tolist())` of a float64 vector, byte for byte,
without calling `float.__repr__` (about 1 us per float).

repr gives the shortest decimal that reads back as the same double.  For
|x| in [10^D, 10^(D+1)) the encoder forms S = |x| * 10^(16 - D), which
lies in [1e16, 1e17), as a double-double, so its integer part is an
int64 and the 17th significant digit is S's unit.  A p-digit decimal
reads back as x when it lies within the half-gap H = 2^(e - 54) *
10^(16 - D) of S (x = f * 2^e, 0.5 < f < 1), and the nearest one is
repr's when any is; so p is the smallest precision whose nearest p-digit
decimal passes.  An element that sits within _CERTIFY_MARGIN of H or of a
rounding tie, where the double-double's error (about 1e-15 of S's unit)
could decide, is encoded by `json.dumps` instead, as are values that are
not finite, subnormal, outside _CERTIFY_RANGE or a power of two (whose
lower gap is half the upper).  Those are about 1 in 10^6 of a skeleton's
floats.  The approach is Loitsch's Grisu3 (PLDI 2010): certify or fall
back.
"""
from __future__ import annotations

import functools
import json

import numpy as np

__all__ = ["vector_json"]

# Exponents j of the exact 10^j = hi + lo table.
_POW10_RANGE = (-280, 280)
# |x| whose 10^(16 - D), after a one-off correction of D, is in the table,
# and whose Dekker split cannot overflow.
_CERTIFY_RANGE = (1e-260, 1e290)
_CERTIFY_MARGIN = 1e-6  # units of S
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1
# Character cells per element: ", ", sign, "0.000", 17 digits with a dot,
# and "e+308".  Unused cells hold NUL and are dropped.
_CELLS = 31


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """10^j as hi + lo doubles (with hi's Dekker halves) for j in
    _POW10_RANGE, and the four ASCII digits of each of 0000-9999 as the
    bytes of one 32-bit word; built from Python ints on first use."""
    his, los = [], []
    for j in range(_POW10_RANGE[0], _POW10_RANGE[1] + 1):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        hi = num / den  # correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hi_den - hi_num * den) / (den * hi_den))
    hi = np.array(his)
    scaled = hi * _DEKKER_SPLIT
    hi_top = scaled - (scaled - hi)
    text = "".join(f"{i:04d}" for i in range(10_000))
    digits = np.frombuffer(text.encode(), np.uint32)
    tables = (hi, np.array(los), hi_top, hi - hi_top, digits)
    for table in tables:
        table.setflags(write=False)
    return tables


def _times_pow10(a: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^j as the double-double s + r, where row = j - _POW10_RANGE[0]
    (Dekker's two-product against hi, plus a * lo)."""
    hi, lo, hi_top, hi_low, _ = _tables()
    product = a * hi[row]
    scaled = a * _DEKKER_SPLIT
    a_top = scaled - (scaled - a)
    a_low = a - a_top
    top, low = hi_top[row], hi_low[row]
    err = ((a_top * top - product) + a_top * low + a_low * top) + a_low * low
    err += a * lo[row]
    s = product + err
    return s, err - (s - product)


def _shortest_digits(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """repr's digits of each element of v as (q, decpt, precision, certain):
    |v| reads as 0.d1d2...dp * 10^decpt, with q = d1...dp followed by
    17 - p zeros.  Where certain is False the other values are not
    repr's."""
    a = np.abs(v)
    zero = a == 0.0
    certain = (a >= _CERTIFY_RANGE[0]) & (a <= _CERTIFY_RANGE[1])
    a[~certain] = 1.0  # any certified value, so no element warns
    mantissa, exponent = np.frexp(a)
    certain &= mantissa != 0.5
    dec = np.floor(np.log10(a)).astype(np.int64)  # D, or one off near 10^D
    row = 16 - dec - _POW10_RANGE[0]
    s, r = _times_pow10(a, row)
    off = np.flatnonzero(
        (s < 1e16) | (s > 1e17) | (s == 1e16) & (r < 0) | (s == 1e17) & (r >= 0)
    )
    if len(off):  # log10 rounded across a power of ten
        step = np.where(s[off] > 5e16, 1, -1)
        dec[off] += step
        row[off] -= step
        s[off], r[off] = _times_pow10(a[off], row[off])
        certain[off[(s[off] < 1e16) | (s[off] >= 1e17)]] = False
    # s is an integer (s > 2^53) and |r| <= 8, so S = units + frac exactly
    # up to the double-double's error.
    floor_r = np.floor(r)
    units = s.astype(np.int64) + floor_r.astype(np.int64)
    frac = r - floor_r
    half_gap = np.ldexp(_tables()[0][row], exponent - 54)
    # p = 17: the nearest integer, within 0.5 < H of S.
    certain &= np.abs(frac - 0.5) >= _CERTIFY_MARGIN
    q = units + (frac > 0.5)
    precision = np.full(len(a), 17, np.uint8)
    # A p-digit decimal is also a (p + 1)-digit one, so the passing
    # precisions are 17 down to the shortest.
    live = np.arange(len(a))
    for p in range(16, 0, -1):
        unit = 10 ** (17 - p)
        u, f, h = units[live], frac[live], half_gap[live]
        below = u // unit * unit
        rem = u - below
        down = rem + f  # S - below
        up = (unit - rem) - f  # below + unit - S, exact where it is small
        near = np.minimum(down, up)
        tie = (np.abs(down - up) < _CERTIFY_MARGIN) & (near < h + _CERTIFY_MARGIN)
        certain[live[(np.abs(near - h) < _CERTIFY_MARGIN) | tie]] = False
        passes = near < h
        live = live[passes]
        q[live] = (below + (up < down) * unit)[passes]
        precision[live] = p
        if not len(live):
            break
    carry = q == 10**17  # rounded up to 10^(D+1): one digit
    q[carry] = 10**16
    decpt = dec + 1 + carry
    q[zero] = 0  # "0.0": digit 0, point after it
    precision[zero] = 1
    decpt[zero] = 1
    return q, decpt, precision, certain | zero


def vector_json(vector: np.ndarray) -> str:
    """`json.dumps(vector.tolist())` of a float64 vector, byte for byte.

    Each element is laid out in its own _CELLS-wide row of a uint8 grid,
    as repr lays it out: exponent form ("d.ddde-05") when decpt <= -4
    or decpt > 16, else "0.000ddd", "ddd.ddd" or "ddd.0".  The grid is
    built column by column over all elements, so its temporaries hold
    _CELLS bytes and a few dozen more per element, and the text is the
    grid's bytes without their NULs.
    """
    v = np.asarray(vector, dtype=np.float64)
    n = len(v)
    q, decpt, precision, certain = _shortest_digits(v)
    expo = (decpt <= -4) | (decpt > 16)
    lead = ~expo & (decpt <= 0)  # "0.", then -decpt zeros, then the digits
    fixed = ~expo & ~lead

    # All 17 digits of q, between a NUL row on each side.
    digit_table = _tables()[4]
    digits = np.empty((19, n), np.uint8)
    digits[0] = digits[18] = 0
    top9 = q // 10**8
    low8 = q - top9 * 10**8
    first = top9 // 10**8
    rest8 = top9 - first * 10**8
    digits[1] = first + ord("0")
    for start, chunk in ((2, rest8), (10, low8)):
        hi4 = chunk // 10**4
        for at, four in ((start, hi4), (start + 4, chunk - hi4 * 10**4)):
            digits[at : at + 4] = digit_table[four].view(np.uint8).reshape(n, 4).T

    grid = np.empty((_CELLS, n), np.uint8)
    grid[0] = ord(",")
    grid[1] = ord(" ")
    grid[:2, :1] = 0  # no separator before the first element
    grid[2] = np.signbit(v) * np.uint8(ord("-"))
    grid[3] = lead * np.uint8(ord("0"))
    grid[4] = lead * np.uint8(ord("."))
    for cell in (5, 6, 7):
        grid[cell] = (lead & (decpt <= 4 - cell)) * np.uint8(ord("0"))

    # Cells 8-25: digits 1..length with a dot after digit `dot`; where
    # dot >= length there is none.  Digits past the precision are the
    # zeros of "100.0".
    point = np.clip(decpt, 0, 17).astype(np.uint8)
    length = np.where(fixed, np.maximum(precision, point + 1), precision)
    dot = np.where(fixed, point, np.where(expo, 1, 18)).astype(np.uint8)
    cell = np.arange(18, dtype=np.uint8)[:, None]
    body = grid[8:26]
    np.subtract(digits[1:19], digits[0:18], out=body)  # uint8 arithmetic wraps
    body *= cell < dot
    body += digits[0:18]  # digit c before the dot, digit c - 1 after it
    body += (np.uint8(ord(".")) - body) * (cell == dot)
    body *= cell < length + (dot < length)

    power = (decpt - 1).astype(np.int16)
    mag = np.abs(power)
    grid[26] = expo * np.uint8(ord("e"))
    grid[27] = np.where(power < 0, ord("-"), ord("+")) * expo
    grid[28] = (mag // 100 + ord("0")) * (expo & (mag >= 100))
    grid[29] = (mag // 10 % 10 + ord("0")) * expo
    grid[30] = (mag % 10 + ord("0")) * expo

    uncertain = np.flatnonzero(~certain)
    if len(uncertain):  # json.dumps' text in cells 3 on, NUL-padded
        width = _CELLS - 3
        texts = "".join(json.dumps(x).ljust(width, "\0") for x in v[uncertain].tolist())
        grid[2, uncertain] = 0
        grid[3:, uncertain] = np.frombuffer(texts.encode(), np.uint8).reshape(-1, width).T
    return "[" + grid.T.tobytes().translate(None, b"\0").decode("ascii") + "]"
