"""JSON text for numpy numbers: ``json.dumps`` bytes without one call per value.

A response body carries thousands of correlation values, and
``json.dumps`` spells each through ``float.__repr__``: the shortest decimal
that reads back as the same double (most correlations need all 17
significant digits).  This module writes the same text for whole arrays in
a few vectorised passes.

Floats
    For a normal ``|x|`` in ``[1e-6, 1e17)`` whose mantissa is not a power
    of two, the digits are the shortest of the correctly rounded 15-, 16-
    and 17-digit decimals of ``x`` that round-trips.  That is the shortest
    round-trip decimal: a double's first 15 significant digits always read
    back as themselves, and when no 15-digit decimal round-trips, the
    closest 16-digit one (round-half-even on exact ties, as ``repr``) does
    whenever any does, because the interval that rounds to ``x`` is
    symmetric.  Both the rounding and the round-trip test are exact:
    ``x * 10**t`` with ``t <= 22`` (an exact double) is a double-double by
    Dekker's TwoProduct, its integer part fits an ``int64``, and the error
    of each candidate is compared with the half-ulp (inclusive when the
    mantissa is even, as the reader's round-half-even is) without rounding.
    ``repr``'s layout follows: fixed notation for decimal exponents
    ``-4 <= e < 16``, ``1e-05`` / ``1.5e+16`` style otherwise.
    Every other value takes ``float.__repr__`` one at a time, or json's
    ``NaN`` / ``Infinity`` tokens: zeros, subnormals, non-finite values,
    power-of-two mantissas (their interval is lopsided), magnitudes out of
    range, and any value whose digits the exact test cannot certify.
Integers
    A table lookup for ``[-999, 9999]`` (series indices, lags), digit
    columns otherwise, right-aligned.

Each value's text is one row of a :class:`Tokens` matrix with a column
mask, followed by its separator, so rows of different families (an edge
row's index, pair and value) concatenate column-wise and compact into bytes
with one boolean gather.  Layouts keep each text in a few runs of columns:
the gather copies runs, not single bytes.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

_SPLIT = float(2 ** 27 + 1)  # Veltkamp's splitter for binary64
_POW10 = 10.0 ** np.arange(23)  # every entry is an exact double


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each half 26 bits or fewer."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


#: Every token row ends in four tail columns holding the separator that
#: follows its value, left-aligned: ", " by default, "], " where a row of
#: an edge list ends, "], [" where a matrix row does (:func:`with_tail`).
_TAILS = np.frombuffer(b", \0\0], \0], [", dtype=np.uint32)
_TAIL_KEPT = np.array([2, 3, 4])
_TAIL_KEEP = np.arange(4) < _TAIL_KEPT[:, None]


class Tokens(NamedTuple):
    """The JSON text of ``n`` values, one padded row each, each with its separator.

    Token ``i`` is ``chars[i][keep[i]]``, ``lengths[i]`` bytes: a row keeps
    any subset of its columns, so a layout can give every character some
    value might need a fixed column.  The last four columns of a row are
    the separator that follows the value (``", "`` unless changed).
    """

    chars: np.ndarray  # (n, width) uint8
    keep: np.ndarray  # (n, width) bool
    lengths: np.ndarray  # (n,) int64, the row sums of ``keep``

    def take(self, index: np.ndarray) -> "Tokens":
        return Tokens(
            np.take(self.chars, index, axis=0),
            np.take(self.keep, index, axis=0),
            np.take(self.lengths, index),
        )


def with_tail(tokens: Tokens, close: object = False, reopen: object = False) -> Tokens:
    """``tokens`` with ``]`` before the separator and, with ``reopen``, ``[`` after.

    ``close`` and ``reopen`` are booleans or per-row boolean arrays.
    """
    kind = np.asarray(close, dtype=np.intp) + np.asarray(reopen, dtype=np.intp)
    kind = np.broadcast_to(kind, tokens.lengths.shape)
    chars = tokens.chars.copy()
    chars.view(np.uint32)[:, -1] = np.take(_TAILS, kind)
    keep = tokens.keep.copy()
    keep[:, -4:] = np.take(_TAIL_KEEP, kind, axis=0)
    return Tokens(chars, keep, tokens.lengths - 2 + np.take(_TAIL_KEPT, kind))


def _blank(n: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Character and keep matrices: ``width`` text columns (made a multiple
    of four, text right-aligned) and the default tail."""
    width += -width % 4
    chars = np.zeros((n, width + 4), dtype=np.uint8)
    chars.view(np.uint32)[:, -1] = _TAILS[0]
    keep = np.zeros((n, width + 4), dtype=bool)
    keep[:, width:] = _TAIL_KEEP[0]
    return chars, keep


def constant(text: bytes, n: int) -> Tokens:
    """``text`` on each of ``n`` rows, with no separator (broadcast views)."""
    row = np.frombuffer(text, dtype=np.uint8)
    return Tokens(
        np.broadcast_to(row, (n, len(row))),
        np.broadcast_to(np.ones(len(row), dtype=bool), (n, len(row))),
        np.full(n, len(row), dtype=np.int64),
    )


def concat_rows(pieces: Sequence[Tokens]) -> Tuple[bytes, np.ndarray]:
    """Every row's pieces side by side, rows one after another.

    Returns the bytes and the end offset of each row in them.
    """
    if len(pieces) == 1:
        chars, keep = pieces[0].chars, pieces[0].keep
    else:
        chars = np.concatenate([piece.chars for piece in pieces], axis=1)
        keep = np.concatenate([piece.keep for piece in pieces], axis=1)
    lengths = pieces[0].lengths
    for piece in pieces[1:]:
        lengths = lengths + piece.lengths
    return chars[keep].tobytes(), np.cumsum(lengths)


def text_tokens(texts: Sequence[bytes]) -> Tokens:
    """Tokens holding ready-made texts, right-aligned against the tail."""
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    width = int(lengths.max()) if len(texts) else 0
    chars, keep = _blank(len(texts), width)
    width = chars.shape[1] - 4
    chars[:, :width] = np.frombuffer(
        b"".join(text.rjust(width, b"\0") for text in texts), dtype=np.uint8
    ).reshape(len(texts), width)
    keep[:, :width] = np.arange(width) >= width - lengths[:, None]
    return Tokens(chars, keep, lengths + 2)


def json_float(value: float) -> str:
    """``json.dumps`` text of one float (json's tokens for non-finite values)."""
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------

#: Four digits as text (one little-endian word), and their trailing zeros.
_FOUR = np.arange(10000)
_QUADS = (
    np.stack([_FOUR // 1000, _FOUR // 100 % 10, _FOUR // 10 % 10, _FOUR % 10], axis=1)
    + ord("0")
).astype(np.uint8).view(np.uint32).ravel().astype(np.uint64)
_QUAD_ZEROS = np.where(_FOUR == 0, 4, sum(_FOUR % 10 ** k == 0 for k in (1, 2, 3)))

#: Integers in ``[-999, 9999]`` (series indices, lags): their text,
#: right-aligned in four columns, and the default tail, as one word.
_SMALL = np.arange(-999, 10000)
_SMALL_TEXT = (
    1 + (np.abs(_SMALL)[:, None] >= np.array([10, 100, 1000])).sum(axis=1) + (_SMALL < 0)
)
_SMALL_WORDS = np.zeros((len(_SMALL), 8), dtype=np.uint8)
_SMALL_WORDS[:, :4] = _QUADS[np.abs(_SMALL)].astype(np.uint32).view(np.uint8).reshape(-1, 4)
_SMALL_WORDS[:, :4][np.arange(4) < 4 - _SMALL_TEXT[:, None]] = 0
_SMALL_WORDS[np.flatnonzero(_SMALL < 0), 4 - _SMALL_TEXT[_SMALL < 0]] = ord("-")
_SMALL_WORDS[:, 4:] = np.frombuffer(_TAILS[:1].tobytes(), dtype=np.uint8)
_SMALL_WORDS = _SMALL_WORDS.view(np.uint64).ravel()
_SMALL_KEEP = np.concatenate(
    [np.arange(4) >= 4 - _SMALL_TEXT[:, None],
     np.broadcast_to(_TAIL_KEEP[0], (len(_SMALL), 4))],
    axis=1,
)
_SMALL_LENGTHS = _SMALL_TEXT + 2


def int_tokens(values: np.ndarray) -> Tokens:
    """``int.__repr__`` text of every value of an integer array."""
    values = np.asarray(values).ravel()
    n = len(values)
    if not n or (values.min() >= _SMALL[0] and values.max() <= _SMALL[-1]):
        at = values.astype(np.intp) - _SMALL[0]
        return Tokens(
            np.take(_SMALL_WORDS, at).view(np.uint8).reshape(n, 8),
            np.take(_SMALL_KEEP, at, axis=0),
            np.take(_SMALL_LENGTHS, at),
        )
    if values.dtype.kind == "u":
        magnitude = values.astype(np.uint64)
        negative = np.zeros(n, dtype=bool)
    else:
        signed = values.astype(np.int64)
        negative = signed < 0
        magnitude = signed.astype(np.uint64)
        # Two's complement: 0 - m is |v| for every int64, the minimum too.
        magnitude[negative] = np.uint64(0) - magnitude[negative]
    digits = len(str(int(magnitude.max())))
    count = np.ones(n, dtype=np.int64)
    for k in range(1, digits):
        count += magnitude >= np.uint64(10 ** k)
    chars, keep = _blank(n, int(negative.any()) + digits)
    width = chars.shape[1] - 4
    rest = magnitude
    for column in range(width - 1, width - 1 - digits, -1):
        rest, digit = np.divmod(rest, np.uint64(10))
        chars[:, column] = digit + ord("0")
    keep[:, :width] = np.arange(width) >= (width - count - negative)[:, None]
    # The sign sits right before the digits.
    at = np.flatnonzero(negative)
    chars[at, width - 1 - count[at]] = ord("-")
    return Tokens(chars, keep, count + negative + 2)


# ---------------------------------------------------------------------------
# Floats
# ---------------------------------------------------------------------------

#: A float token row is four 8-byte words: the prefix word holds,
#: right-aligned, the sign, any ``0.000`` and the first digit (with its dot
#: when one follows it); digits 1-8 and 9-16; ``e±XY`` and the tail.  Values
#: of 10 or more move the digits after their integer part one column right
#: for the dot.  Which columns a row keeps depends only on its sign, decimal
#: exponent and digit count, so it is one row of ``_KEEP``, and the text is
#: at most three runs of columns.
_LEADS = np.arange(-6, 17)  # the decimal exponents the fast path can meet
_EXPONENT_WORD = np.frombuffer(b"e+00, \0\0", dtype=np.uint64)[0]


def _tables():
    """Prefix words, kept columns and text length per class.

    A class is ``((lead + 6) * 17 + shown - 1) * 2 + negative`` for decimal
    exponent ``lead``, ``shown`` significant digits and the sign; the
    prefix words are indexed by ``10 * class + first digit``.
    """
    lead, shown, negative = (
        grid.ravel() for grid in np.meshgrid(
            _LEADS, np.arange(1, 18), np.arange(2), indexing="ij"
        )
    )
    exponent = (lead < -4) | (lead >= 16)
    # The text before digit 1: "0." and zeros then the first digit, the
    # first digit and a dot, or the first digit alone.
    dotted = np.where(exponent, shown > 1, lead == 0)
    prefixes = [
        (b"-" if minus else b"")
        + (b"0." + b"0" * (-1 - power) if not e and power < 0 else b"")
        + b"%d"
        + (b"." if d else b"")
        for power, minus, e, d in zip(lead.tolist(), negative, exponent, dotted)
    ]
    words = np.frombuffer(
        b"".join((body % digit).rjust(8) for body in prefixes for digit in range(10)),
        dtype=np.uint64,
    )
    # Columns 8.. hold the digits after the first, with the dot of a value
    # of 10 or more among them.
    region = np.where(
        exponent | (lead < 0),
        shown - 1,
        np.where(lead == 0, np.maximum(shown - 1, 1),
                 lead + 1 + np.maximum(shown - lead - 1, 1)),
    )
    prefix = np.array([len(body) - 1 for body in prefixes])
    keep = np.zeros((len(lead), 32), dtype=bool)
    keep[:, :8] = np.arange(8) >= (8 - prefix)[:, None]
    keep[:, 8:25] = np.arange(17) < region[:, None]
    keep[:, 24] |= exponent
    keep[:, 25:28] = exponent[:, None]
    keep[:, 28:] = _TAIL_KEEP[0]
    return words, keep, keep.sum(axis=1)


_PREFIX_WORDS, _KEEP, _KEPT = _tables()


def _whole_and_fraction(ax, t):
    """``ax * 10**t == whole + frac`` exactly, ``whole`` an int64, ``0 <= frac < 1``.

    The product is Dekker's TwoProduct ``hi + lo``; ``hi >= 1e16 > 2**53`` is
    an integer and ``floor(lo)`` carries the rest.
    """
    if len(t) and t.min() == t.max():  # one decade, as correlations mostly are
        t = t[:1]
    hi = ax * _POW10[t]
    a_hi, a_lo = _split(ax)
    b_hi, b_lo = _POW10_HI[t], _POW10_LO[t]
    lo = (((a_hi * b_hi - hi) + a_hi * b_lo) + a_lo * b_hi) + a_lo * b_lo
    floor_lo = np.floor(lo)
    return hi.astype(np.int64) + floor_lo.astype(np.int64), lo - floor_lo


def _fits(remainder, frac, unit, half_ulp, bits, inexact):
    """Whether ``whole + frac``'s nearest multiple of ``unit`` round-trips.

    ``remainder`` is ``whole`` modulo ``unit``.  The candidate round-trips
    when it lies within half an ulp (``half_ulp``, scaled like ``whole``),
    or on that bound with an even mantissa, which is where the reader's
    round-half-even sends the bound.  The distances below and above are
    exact doubles except on the ``inexact`` rows (every quantity is a
    multiple of an ulp-sized step that numbers below 128 represent exactly
    when the step is not too small), which take double-double arithmetic.
    """
    below = remainder + frac
    distance = np.minimum(below, unit - below)
    fits = distance < half_ulp
    bound = np.flatnonzero(distance == half_ulp)
    if len(bound):
        fits[bound] = bits[bound] & np.uint64(1) == 0
    if len(inexact):
        fits[inexact] = _fits_exactly(
            remainder[inexact], frac[inexact], unit, half_ulp[inexact],
            bits[inexact] & np.uint64(1) == 0,
        )
    return fits


def _fits_exactly(remainder, frac, unit, half_ulp, even):
    """:func:`_fits` by Fast2Sum: each distance is ``s + err`` exactly."""
    fits = np.zeros(len(frac), dtype=bool)
    for whole_part, sign in ((remainder, 1.0), (unit - remainder, -1.0)):
        # Below: remainder + frac; above: (unit - remainder) - frac.
        a = whole_part.astype(np.float64)
        b = sign * frac
        s = a + b
        err = b - (s - a)
        fits |= (s < half_ulp) | ((s == half_ulp) & ((err < 0) | ((err == 0) & even)))
    return fits


def _shortest(
    ax: np.ndarray, bits: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of normal ``ax`` in ``[1e-6, 1e17)``.

    Returns ``(digits, exponent, shown, certified)``: a 17-digit integer
    whose leading digit has decimal exponent ``exponent``, its count of
    significant digits (17, 16, or 15 for "15 or fewer: count the trailing
    zeros"), and where the exact test settled the value.
    """
    t = np.clip(16 - np.floor(np.log10(ax)), 0, 22).astype(np.intp)
    whole, frac = _whole_and_fraction(ax, t)
    # log10 may miss by one next to a power of ten: move those values so
    # that 10**16 <= ax * 10**t < 10**17, exactly.
    high, low = whole >= 10 ** 17, whole < 10 ** 16
    certified = ~(high | low)
    if not certified.all():
        moved = t - high + low
        t = np.clip(moved, 0, 22)
        whole, frac = _whole_and_fraction(ax, t)
        certified = (moved == t) & (whole >= 10 ** 16) & (whole < 10 ** 17)
    # Half an ulp of ax, scaled: 10**t * 2**(e - 53) is an exact double.
    half_ulp = _POW10[t] * (
        (bits & np.uint64(0x7FF << 52)) - np.uint64(53 << 52)
    ).view(np.float64)
    # Every quantity is a multiple of 2**(e + t - 53); below 128 they are
    # exact doubles when that step is at least 2**-46.
    inexact = np.flatnonzero((bits >> np.uint64(52)).astype(np.intp) + t < 1023 + 7)
    # The correctly rounded 17 digits always read back (the half-ulp is
    # above 0.5 here); 16 do where their nearest candidate does, and 15
    # only where 16 do (a 15-digit decimal is a 16-digit one too).
    hundreds = whole - (whole // 100) * 100
    tens = hundreds - (hundreds // 10) * 10
    sixteen = _fits(tens, frac, 10, half_ulp, bits, inexact)
    fifteen = sixteen & _fits(hundreds, frac, 100, half_ulp, bits, inexact)
    unit = 1 + 9 * sixteen + 90 * fifteen
    remainder = tens * sixteen + (hundreds - tens) * fifteen
    # Round half-even: up past the middle, and at it when the kept digits
    # are odd.  On an ``inexact`` row a computed tie may not be one.
    twice = 2 * (remainder + frac)
    up = twice > unit
    tie = np.flatnonzero(twice == unit)
    if len(tie):
        up[tie] = (whole[tie] - remainder[tie]) // unit[tie] % 2 == 1
        certified[np.intersect1d(tie, inexact)] = False
    digits = whole - remainder + unit * up
    shown = 17 - sixteen - fifteen
    carried = digits >= 10 ** 17
    digits[carried] = 10 ** 16
    return digits, 16 - t + carried, shown, certified


def float_tokens(
    values: np.ndarray, counts: Optional[Dict[str, int]] = None
) -> Tokens:
    """``json.dumps`` text of every value of a float array.

    ``counts``, when given, gains the number of values rendered
    (``rendered_floats``) and of those spelled one at a time
    (``fallback_floats``).
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    ax = np.abs(x)
    bits = ax.view(np.uint64)
    fast = (ax >= 1e-6) & (ax < 1e17) & ((bits & np.uint64((1 << 52) - 1)) != 0)
    if not fast.all():
        # Every row runs the vectorised path (on a stand-in value where it
        # does not apply); the rows it cannot certify are spelled after.
        ax = np.where(fast, ax, 0.75)
        bits = ax.view(np.uint64)
    digits, lead, shown, certified = _shortest(ax, bits)
    tokens = _layout(digits, lead, shown, x < 0)
    slow = np.flatnonzero(~(fast & certified))
    if len(slow):
        spelled = text_tokens([json_float(v).encode() for v in x[slow].tolist()])
        width = spelled.chars.shape[1] - 4
        tokens.chars[slow, 28 - width:28] = spelled.chars[:, :width]
        tokens.keep[slow, :28] = False
        tokens.keep[slow, 28 - width:28] = spelled.keep[:, :width]
        tokens.lengths[slow] = spelled.lengths
    if counts is not None:
        counts["rendered_floats"] = counts.get("rendered_floats", 0) + len(x)
        counts["fallback_floats"] = counts.get("fallback_floats", 0) + len(slow)
    return tokens


def _layout(
    digits: np.ndarray, lead: np.ndarray, shown: np.ndarray, negative: np.ndarray
) -> Tokens:
    """``repr``'s text of 17-digit ``digits`` led by decimal exponent ``lead``."""
    n = len(digits)
    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    upper = (rest // 10 ** 8).astype(np.intp)
    lower = (rest - upper * 10 ** 8).astype(np.intp)
    quads = [upper // 10 ** 4, None, lower // 10 ** 4, None]
    quads[1] = upper - quads[0] * 10 ** 4
    quads[3] = lower - quads[2] * 10 ** 4
    rows = np.flatnonzero(shown == 15)
    if len(rows):
        # 15 or fewer: count the zero groups from the end.
        trailing = np.take(_QUAD_ZEROS, np.take(quads[3], rows))
        for group in (2, 1, 0):
            zero_after = trailing == 4 * (3 - group)
            trailing += zero_after * np.take(_QUAD_ZEROS, np.take(quads[group], rows))
        shown[rows] = 17 - trailing
    table = (lead * 17 + shown) * 2 + negative + (-_LEADS[0] * 17 - 1) * 2
    words = np.empty((n, 4), dtype=np.uint64)
    words[:, 0] = np.take(_PREFIX_WORDS, table * 10 + first)
    words[:, 1] = np.take(_QUADS, quads[0]) | np.take(_QUADS, quads[1]) << np.uint64(32)
    words[:, 2] = np.take(_QUADS, quads[2]) | np.take(_QUADS, quads[3]) << np.uint64(32)
    words[:, 3] = _EXPONENT_WORD
    chars = words.view(np.uint8)
    big = np.flatnonzero((lead >= 1) & (lead < 16))
    for power in np.unique(lead[big]) if len(big) else ():
        # The integer part is digits 0..power: the rest moves one column
        # right and the dot takes its place.
        at = big[lead[big] == power]
        chars[at, 9 + power:25] = chars[at, 8 + power:24]
        chars[at, 8 + power] = ord(".")
    at = np.flatnonzero((lead < -4) | (lead >= 16))
    if len(at):
        power = lead[at]
        chars[at, 25] = np.where(power < 0, ord("-"), ord("+"))
        chars[at, 26] = np.abs(power) // 10 + ord("0")
        chars[at, 27] = np.abs(power) % 10 + ord("0")
    return Tokens(chars, np.take(_KEEP, table, axis=0), np.take(_KEPT, table))


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------

def value_tokens(values: np.ndarray, counts: Optional[Dict[str, int]] = None) -> Tokens:
    """The ``json.dumps`` text of each element of ``values``, by its dtype."""
    if values.dtype.kind == "f" and values.dtype.itemsize <= 8:
        return float_tokens(values, counts)
    if values.dtype.kind in "iu":
        return int_tokens(values)
    return text_tokens([json.dumps(v).encode() for v in values.ravel().tolist()])


def stack(parts: Sequence[Tokens]) -> Tokens:
    """The rows of several token sets, one after another."""
    width = max(part.chars.shape[1] for part in parts)
    n = sum(len(part.lengths) for part in parts)
    chars = np.zeros((n, width), dtype=np.uint8)
    keep = np.zeros((n, width), dtype=bool)
    first = 0
    for part in parts:
        rows, columns = part.chars.shape
        # Right-aligned, so every part's tail lands in the last columns.
        chars[first:first + rows, width - columns:] = part.chars
        keep[first:first + rows, width - columns:] = part.keep
        first += rows
    return Tokens(chars, keep, np.concatenate([part.lengths for part in parts]))


def array_texts(
    arrays: Sequence[np.ndarray], counts: Optional[Dict[str, int]] = None
) -> Tuple[List[bytes], Tokens]:
    """``json.dumps(a.tolist())`` bytes of each array, each value rendered once.

    Also returns the tokens of all the arrays' values, in order.  Arrays of
    one dtype render in one pass over their concatenated values; matrices
    close and reopen their row lists in the separators.
    """
    arrays = [np.asarray(array) for array in arrays]
    if len({array.dtype for array in arrays}) > 1:
        rendered = stack([value_tokens(array.ravel(), counts) for array in arrays])
    else:
        flat = np.concatenate([array.ravel() for array in arrays]) if arrays else np.empty(0)
        rendered = value_tokens(flat, counts)
    row_ends = np.zeros(len(rendered.lengths), dtype=bool)
    first = 0
    for array in arrays:
        if array.ndim == 2 and array.size:
            row_ends[first + array.shape[1] - 1:first + array.size:array.shape[1]] = True
        first += array.size
    joined = with_tail(rendered, row_ends, row_ends) if row_ends.any() else rendered
    text, ends = concat_rows([joined])
    sizes = np.array([array.size for array in arrays], dtype=np.intp)
    lasts = np.cumsum(sizes) - 1
    filled = np.flatnonzero(sizes)
    starts = np.zeros(len(arrays), dtype=np.intp)
    stops = np.zeros(len(arrays), dtype=np.intp)
    starts[filled] = (ends - joined.lengths)[lasts[filled] + 1 - sizes[filled]]
    stops[filled] = (ends - 2 - 2 * row_ends)[lasts[filled]]
    return [
        json.dumps(array.tolist()).encode() if array.size == 0 or array.ndim > 2
        else b"[" * array.ndim + text[start:stop] + b"]" * array.ndim
        for array, start, stop in zip(arrays, starts.tolist(), stops.tolist())
    ], rendered
