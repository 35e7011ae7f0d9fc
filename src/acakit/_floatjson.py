"""`json.dumps(rows.tolist())` of a 2-D float64 array, byte for byte,
without calling `float.__repr__` (about 1 us per float), as a stream of
text pieces of _BLOCK elements each, so a caller can write the text of
any size of matrix while it holds one block's.

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
from collections.abc import Iterator

import numpy as np

__all__ = ["rows_json"]

# Exponents j of the exact 10^j = hi + lo table.
_POW10_RANGE = (-280, 280)
# |x| whose 10^(16 - D), after a one-off correction of D, is in the table,
# and whose Dekker split cannot overflow.
_CERTIFY_RANGE = (1e-260, 1e290)
_CERTIFY_MARGIN = 1e-6  # units of S
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1
# Character cells per element: "], [", sign, "0.000", 17 digits with a
# dot, and "e+308".  Unused cells hold NUL and are dropped.
_CELLS = 33
# Elements per `_block_text` call.  Encoding the four factors of the
# pinned n = 10 000, rank-25 skeletons (2-CPU VM, 8 alternating rounds in
# one process), blocks of 10^4 (one vector), 2 * 10^4 and 4 * 10^4 took
# the same CPU time within noise (medians 213, 212 and 200 ms) and a whole
# factor 1.37 times as long; an earlier form of the encoder took 1.10
# times as long at 10^4 (24 process pairs).  A block's temporaries peak
# at about 90 bytes per element: 2 * 10^4 keeps an n = m = 4000 write
# below its 3.7 MB document (tests/test_cli.py) and 4 * 10^4 would not.
# The `del` statements below free each temporary once it is dead.
_BLOCK = 20_000


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
    (Dekker's two-product against hi, plus a * lo), in place where it can
    be."""
    hi, lo, hi_top, hi_low, _ = _tables()
    product = a * hi[row]
    a_top = a * _DEKKER_SPLIT
    a_top -= a_top - a
    a_low = a - a_top
    top, low = hi_top[row], hi_low[row]
    # ((a_top * top - product) + a_top * low + a_low * top) + a_low * low,
    # summed in that order.
    err = a_top * top
    err -= product
    a_top *= low
    err += a_top
    top *= a_low
    err += top
    a_low *= low
    err += a_low
    del a_top, a_low, top, low
    err += a * lo[row]
    s = product + err
    err -= s - product
    return s, err


def _round_at(
    units: np.ndarray, frac: np.ndarray, half_gap: np.ndarray, unit: int
) -> tuple[np.ndarray, ...]:
    """Round S = units + frac to a multiple of unit (a power of ten) as
    (nearest, passes, doubt): whether the nearest multiple lies within
    the half-gap H of S, and whether the double-double's error could
    decide that or a rounding tie."""
    below = units // unit
    below *= unit
    rem = units - below
    down = rem + frac  # S - below
    np.subtract(unit, rem, out=rem)
    up = rem - frac  # below + unit - S, exact where it is small
    del rem
    near = np.minimum(down, up)
    passes = near < half_gap
    gap = near - half_gap
    doubt = np.abs(gap, out=gap) < _CERTIFY_MARGIN
    tie = near < np.add(half_gap, _CERTIFY_MARGIN, out=gap)
    del near, gap
    below += (up < down) * unit
    down -= up
    tie &= np.abs(down) < _CERTIFY_MARGIN
    doubt |= tie
    return below, passes, doubt


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
    half_gap = np.ldexp(_tables()[0][row], exponent - 54)
    del a, mantissa, exponent, row
    # s is an integer (s > 2^53) and |r| <= 8, so S = units + frac exactly
    # up to the double-double's error.
    floor_r = np.floor(r)
    units = s.astype(np.int64)
    del s
    units += floor_r.astype(np.int64)
    frac = r - floor_r
    del r, floor_r
    # p = 17: the nearest integer, within 0.5 < H of S.
    certain &= np.abs(frac - 0.5) >= _CERTIFY_MARGIN
    # A p-digit decimal is also a (p + 1)-digit one, so the passing
    # precisions are 17 down to the shortest.  Most floats need 16 or 17
    # digits, so p = 16 and 15 run on every element; each later p runs on
    # those that passed the one before.
    nearest, passes, doubt = _round_at(units, frac, half_gap, 10)
    certain &= ~doubt
    q = np.where(passes, nearest, units + (frac > 0.5))
    precision = np.where(passes, np.uint8(16), np.uint8(17))
    passes &= certain  # zeros and elements left to json.dumps stop here
    del nearest, doubt
    nearest, passes_15, doubt = _round_at(units, frac, half_gap, 100)
    certain &= ~(passes & doubt)
    passes &= passes_15 & ~doubt
    q[passes] = nearest[passes]
    precision[passes] = 15
    del nearest, passes_15, doubt
    live = np.flatnonzero(passes)
    for p in range(14, 0, -1):
        if not len(live):
            break
        # Only the elements that passed p + 1 go on: keep them alone.
        units = units[passes]
        frac = frac[passes]
        half_gap = half_gap[passes]
        nearest, passes, doubt = _round_at(units, frac, half_gap, 10 ** (17 - p))
        certain[live[doubt]] = False
        passes &= ~doubt
        live = live[passes]
        q[live] = nearest[passes]
        precision[live] = p
    carry = q == 10**17  # rounded up to 10^(D+1): one digit
    q[carry] = 10**16
    decpt = dec + 1 + carry
    q[zero] = 0  # "0.0": digit 0, point after it
    precision[zero] = 1
    decpt[zero] = 1
    return q, decpt, precision, certain | zero


def _digit_cells(
    q: np.ndarray, dot: np.ndarray, length: np.ndarray, body: np.ndarray
) -> None:
    """Fill body, the 18 digit cells of each element (cell-major), with
    digits 1..length of q and a dot after digit `dot` (none where
    dot >= length), then NULs.  Digits past the precision are the zeros
    of "100.0"."""
    n = len(q)
    # All 17 digits of q, between a NUL row on each side.
    digit_table = _tables()[4]
    digits = np.empty((19, n), np.uint8)
    digits[0] = digits[18] = 0
    rest = q
    for at in (14, 10, 6, 2):
        rest, four = np.divmod(rest, 10**4)
        digits[at : at + 4] = digit_table[four].view(np.uint8).reshape(n, 4).T
    digits[1] = rest + ord("0")
    del rest, four

    cell = np.arange(18, dtype=np.uint8)[:, None]
    np.subtract(digits[1:19], digits[0:18], out=body)  # uint8 arithmetic wraps
    body *= cell < dot
    body += digits[0:18]  # digit c before the dot, digit c - 1 after it
    del digits
    dots = np.uint8(ord(".")) - body
    dots *= cell == dot
    body += dots
    body *= cell < length + (dot < length)


def _block_text(v: np.ndarray, starts: np.ndarray, first: bool) -> str:
    """The JSON text of the consecutive elements v of a float64 matrix's
    rows: each element is preceded by ", ", by "], [" where `starts` says
    that it opens a row, or by nothing when `first` says that it opens the
    matrix.

    Each element is laid out in its own _CELLS-long column of a uint8
    grid, as repr lays it out: exponent form ("d.ddde-05") when
    decpt <= -4 or decpt > 16, else "0.000ddd", "ddd.ddd" or "ddd.0".
    Each cell is one contiguous row over all elements; the text is the
    grid's transpose, element by element, without its NULs.
    """
    q, decpt, precision, certain = _shortest_digits(v)
    expo = (decpt <= -4) | (decpt > 16)
    lead = ~expo & (decpt <= 0)  # "0.", then -decpt zeros, then the digits
    fixed = ~expo & ~lead
    point = np.clip(decpt, 0, 17).astype(np.uint8)
    length = np.where(fixed, np.maximum(precision, point + 1), precision)
    dot = np.where(fixed, point, np.where(expo, 1, 18)).astype(np.uint8)

    grid = np.empty((_CELLS, len(v)), np.uint8)
    grid[0] = grid[3] = 0
    grid[1] = ord(",")
    grid[2] = ord(" ")
    grid[0, starts] = ord("]")
    grid[3, starts] = ord("[")
    if first:
        grid[:4, 0] = 0
    grid[4] = np.signbit(v) * np.uint8(ord("-"))
    grid[5] = lead * np.uint8(ord("0"))
    grid[6] = lead * np.uint8(ord("."))
    for at in (7, 8, 9):
        grid[at] = (lead & (decpt <= 6 - at)) * np.uint8(ord("0"))
    power = (decpt - 1).astype(np.int16)
    mag = np.abs(power)
    grid[28] = expo * np.uint8(ord("e"))
    grid[29] = np.where(power < 0, ord("-"), ord("+")) * expo
    grid[30] = (mag // 100 + ord("0")) * (expo & (mag >= 100))
    grid[31] = (mag // 10 % 10 + ord("0")) * expo
    grid[32] = (mag % 10 + ord("0")) * expo
    uncertain = np.flatnonzero(~certain)
    fallback = v[uncertain].tolist()
    del v, decpt, precision, certain, expo, lead, fixed, point, power, mag
    _digit_cells(q, dot, length, grid[10:28])
    del q, dot, length

    if fallback:  # json.dumps' text from the sign cell on, NUL-padded
        width = _CELLS - 4
        texts = "".join(json.dumps(x).ljust(width, "\0") for x in fallback)
        grid[4:, uncertain] = np.frombuffer(texts.encode(), np.uint8).reshape(-1, width).T
    text = grid.T.tobytes()
    del grid
    return text.translate(None, b"\0").decode("ascii")


def rows_json(rows: np.ndarray) -> Iterator[str]:
    """`json.dumps(rows.tolist())` of a 2-D float64 array, byte for byte,
    as consecutive pieces.

    The elements are encoded _BLOCK at a time in row-major order, so a
    block may end inside a row and the next one start in the same row;
    the opening "[[" and closing "]]" are pieces of their own.
    """
    k, n = rows.shape
    if not rows.size:
        yield json.dumps(rows.tolist())
        return
    yield "[["
    total = k * n
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        values = [
            rows[r, max(start - r * n, 0) : stop - r * n]
            for r in range(start // n, (stop - 1) // n + 1)
        ]
        starts = np.arange(-start % n, stop - start, n)
        yield _block_text(np.concatenate(values), starts, start == 0)
    yield "]]"
