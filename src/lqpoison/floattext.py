"""CSV rows of float64 values, each float written exactly as ``repr`` writes it.

``csv_rows(start, dt, *blocks)`` returns the rows ``k,k*dt,v...`` of blocks
of values side by side as one string, ``k`` counting from ``start`` (no
time column when ``dt`` is None). Each float is ``repr``'s text: the
shortest decimal that reads back to the same double, the nearest to it
among those, in ``repr``'s layout. The text comes from numpy arithmetic on
the whole block in float64 and int64 rather than from one ``repr`` call
per float.

*Digits.* For a finite x with 1e-10 <= |x| < 1e16, y = |x| * 10**s with
1e16 <= y < 1e17 is carried exactly as D + f, D an int64 and 0 <= f < 1,
by Dekker's split and two-product (Dekker 1971) against 10**s = hi + lo,
both exact doubles for s <= 27. A decimal reads back to x when it lies
strictly inside the half-ulp interval (y - H, y + H). The nearest decimal
to y with 17 - k significant digits is y rounded to a multiple of 10**k,
so the text drops the largest k whose rounding lies inside; ``_dropped``
finds it in int64 from D and the integer parts of H - f and H + f. Every
float64 error in f and H is below 1e-14 of y's last digit.

*Fallback.* ``repr`` writes the values for which that arithmetic could be
unsure or does not apply: zero, non-finite values, |x| outside
[1e-10, 1e16), a power-of-two significand (its interval is not
symmetric), and any value whose candidate lies within ``TIE_EPS`` of a tie
or of an interval end. The text is therefore ``repr``'s byte for byte.

*Layout.* Each value fills a 32-byte record of four little-endian words,
NUL where its text has no character: word 0 holds the sign and the "0."
of a value below 1; words 1-3 hold 18 characters of digits with the point
in place, then the "0" of ".0", the "e-XX" of a value below 1e-4, and the
separator, ',' or a newline. All of a record but its digits follows from
the value's sign and (decpt, nd), and the step k's from its digit count,
so one lookup in a table of sections (``_sections``) writes it and
``_layout`` adds the digits. Each value section has a signed twin, the
same words with the '-', which the section index reaches from the sign
bit. Deleting every NUL joins the records into the text.

*Footprint.* Every numpy loop a process runs for the first time maps more
of numpy's code into memory, and every table stays resident. So the
kernel keeps to float64 and int64 arithmetic, shifts and comparisons,
joins words by addition (their bytes never overlap), never casts int64 to
float64 (a table lookup stands in), and keeps its tables to 41 KB in all
(the section tables 37.4 KB). A loop the op does not run elsewhere costs
memory in every process that writes a CSV: int64 ``&``, which would lay
out eight digits per word, read +0.10 MB of peak RSS on ``reproduce case2``.
Arrays are reused where one is free, so a call's traced peak is 65-73 B
per value, step column included: the 32-byte records and four int64
arrays of their shape while ``_layout`` runs, or about 73 B per float
formatted inside ``_scaled``, which sets the peak of wide rows.
"""

from __future__ import annotations

import numpy as np

# in units of y's last digit: a candidate this near a tie or an interval end goes to repr
TIE_EPS = 1e-9

_LOW, _HIGH = np.array([1e-10, 1e16]).view(np.int64)  # |x| bit patterns bounding the fast path
_P10 = 10 ** np.arange(19, dtype=np.int64)
_E10 = np.array([10.0**e for e in range(-11, 18)])  # 10**e at index e + 11
_HI = np.array([float(10**s) for s in range(28)])
_LO = np.array([float(10**s - int(h)) for s, h in enumerate(_HI.tolist())])  # exact remainder


def _split(a):
    """Dekker's split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _word(text: str, at: int = 0) -> int:
    """``text`` as the bytes of a little-endian word, starting at byte ``at``."""
    return int.from_bytes(text.encode("ascii"), "little") << (8 * at)


_HH, _HL = _split(_HI)
_T2 = np.array([_word(f"{d:02d}") for d in range(100)], dtype=np.int64)  # two digits, bytes 0-1
# word 0 after the sign, and word 3 after section characters 16-17
_LEAD = np.array([_word(t, 1) for t in ("", "0.", "0.0", "0.00", "0.000")], dtype=np.int64)
_TAIL = np.array([_word(t, 2) for t in ["", "0"] + [f"e-{e:02d}" for e in range(5, 11)]],
                 dtype=np.int64)
# what word 1 + j less: '0' - '.' at section position P < 17, and every '0'
# at a section position past the first ``keep``
_POINT = np.array([[2 << 8 * (P - 8 * j) if 0 <= P - 8 * j < 8 and P < 17 else 0 for P in range(18)]
                   for j in range(3)], dtype=np.int64)
_PAD = np.array([[sum(0x30 << 8 * (i - 8 * j) for i in range(max(keep, 8 * j), min(8 * j + 8, 18)))
                  for keep in range(19)] for j in range(3)], dtype=np.int64)
_SMALL = np.arange(-4.0, 5.0)  # -4 ... 4 as float64, at index + 4
_MINUS, _COMMA, _NEWLINE = _word("-"), _word(",", 7), _word("\n", 7)


def _sections():
    """(words, open) by section: a record's constant words and 10**(17 - P).

    A value's section is 17 * decpt + nd + ``_VALUE_SECTION`` (decpt -9 to
    17, nd 1 to 17), plus ``_SIGNED`` if it is negative: its twin, with the
    '-' in word 0. A step's is its digit count + ``_STEP_SECTION`` (1 to 17
    digits and no point). P is the point's position (17: none).
    """
    decpt, nd = (g.ravel() for g in np.meshgrid(np.arange(-9, 18), np.arange(1, 18), indexing="ij"))
    below1, exp = decpt <= 0, decpt <= -4  # "0.00ddd" and "d.ddde-XX"
    whole = decpt >= nd  # "ddd00.0"
    P = np.where(below1, np.where(exp & (nd > 1), 1, 17), decpt)
    keep = np.where(whole, decpt, nd) + (P < 17)
    lead = _LEAD[np.where(below1 & ~exp, 1 - decpt, 0)]
    tail = _TAIL[np.where(whole, 1, np.where(exp, -2 - decpt, 0))]
    words = np.zeros((2 * P.size + 17, 4), dtype=np.int64)
    words[: 2 * P.size, 0] = np.concatenate([lead, lead + _MINUS])
    words[: 2 * P.size, 3] = np.concatenate([tail, tail])
    P = np.concatenate([P, P, np.full(17, 17)])
    keep = np.concatenate([keep, keep, np.arange(1, 18)])
    for j in range(3):
        words[:, 1 + j] -= _POINT[j][P] + _PAD[j][keep]
    words[:, 3] += _COMMA
    return words, _P10[17 - P]


_WORDS, _OPEN = _sections()
_SIGNED = 27 * 17  # value sections; a negative value's lies this far past its positive twin's
_VALUE_SECTION, _STEP_SECTION = 9 * 17 - 1, 2 * _SIGNED - 1


def _decimal_exponent(a):
    """floor(log10(a)) for positive float64 ``a``, give or take one at a power of 10."""
    e = (a.view(np.int64) >> 52) - 1023
    e *= 78913
    e >>= 18  # floor(e * log10(2))
    e += a >= _E10[e + 12]
    return e


def _scaled(a, s):
    """(D, f) with D + f = a * 10**s, D an int64 and f the float64 fraction."""
    p = a * _HI[s]
    ah, al = _split(a)
    # Dekker's two-product: a * hi - p exactly, summed in this order
    hh, hl = _HH[s], _HL[s]
    r = ah * hh
    r -= p
    ah *= hl
    hh *= al
    al *= hl
    r += ah
    r += hh
    r += al
    del ah, al, hh, hl
    r += a * _LO[s]
    fl = np.floor(r)
    r -= fl
    D = p.astype(np.int64)
    D += fl.astype(np.int64)
    return D, r


def _dropped(D, f, H):
    """(k, near): how many of y = D + f's 17 digits its text drops.

    A multiple of m = 10**k rounds into (y - H, y + H) exactly when D % m
    is at most ``lo`` = ceil(H - f) - 1, or at least m - ``hi`` with
    ``hi`` = ceil(H + f) - 1; that is, when (D + hi) % m <= lo + hi. Since
    lo + hi < 2H + 1 < 100, m = 100 rounds inside exactly when the last two
    digits of D + hi are at most lo + hi, and m = 10**k for larger k when
    besides that the k - 2 digits before them are zeros. ``near`` marks
    where H + 2 * TIE_EPS would change ``lo`` or ``hi``.
    """
    hi = H + f
    c = np.ceil(hi)
    near = c - hi < 2 * TIE_EPS
    hi = c.astype(np.int64)
    lo = H - f
    np.ceil(lo, out=c)
    near |= c - lo < 2 * TIE_EPS
    lo = c.astype(np.int64)
    del c
    lo += hi
    lo -= 2  # lo + hi
    hi += D
    hi -= 1
    q = hi // 10
    k = q * 10
    np.subtract(hi, k, out=k)
    np.copyto(k, k <= lo)
    q //= 10
    q *= 100
    np.subtract(hi, q, out=q)
    deep = np.flatnonzero(q <= lo)
    del q
    n = hi[deep] // 100
    zeros = np.ones_like(n)
    for j in (8, 4, 2, 1):
        q = n // _P10[j]
        z = q * _P10[j] == n
        n = np.where(z, q, n)
        zeros += j * z
    k[deep] += np.where(zeros < 15, zeros, 15)  # at most 16 dropped
    return k, near


def _shortest(x):
    """(c17, nd, decpt, slow) for the float64 array ``x``.

    The shortest text of a fast-path value has the ``nd`` leading digits of
    the 17-digit int64 ``c17`` and its point after digit ``decpt`` (``repr``'s
    convention: 0.c17 * 10**decpt); ``slow`` marks the values ``repr`` must
    write.
    """
    a = np.abs(x)
    ab = a.view(np.int64)
    slow = (ab < _LOW) | (ab >= _HIGH) | (ab << 12 == 0)  # or a power of two
    a[slow] = 1.5
    s = 16 - _decimal_exponent(a)
    D, f = _scaled(a, s)
    off = (D < _P10[16]).astype(np.int64) - (D >= _P10[17])  # one off at a power of 10
    fix = np.flatnonzero(off)
    if fix.size:
        s[fix] += off[fix]
        D[fix], f[fix] = _scaled(a[fix], s[fix])
    del off
    # half an ulp of x, in units of y's last digit: 10**s * 2**(exponent - 53)
    H = _HI[s] * ((ab >> 52) - 53 << 52).view(np.float64)
    del a, ab
    decpt = 17 - s
    del s
    slow |= (D < _P10[16]) | (D >= _P10[17]) | (f >= 1.0)
    # The digits dropped grow with H, so where H - TIE_EPS and H + TIE_EPS
    # drop as many, no candidate is near an interval end.
    H -= TIE_EPS
    k, near = _dropped(D, f, H)
    near = np.flatnonzero(near)
    if near.size:
        slow[near] |= _dropped(D[near], f[near], H[near] + 2 * TIE_EPS)[0] != k[near]
    del H, near
    m = _P10[k]
    q = D // m
    D -= q * m  # the remainder
    D *= 2
    D -= m
    # 2 * remainder - m + 2 * f: twice the way from the midpoint between q * m and (q + 1) * m
    f *= 2
    f += _SMALL[np.where(D < -4, -4, np.where(D > 4, 4, D)) + 4]
    del D
    slow |= np.abs(f) < 2 * TIE_EPS
    q += f > 0
    q *= m
    c17, nd = q, 17 - k
    carry = np.flatnonzero(c17 == _P10[17])  # 9.99... rounded up to 10**decpt
    c17[carry], decpt[carry], nd[carry] = _P10[16], decpt[carry] + 1, 1
    slow[carry] |= decpt[carry] > 16
    c17[slow], decpt[slow], nd[slow] = _P10[16], 1, 1  # "1.0", for repr to overwrite
    return c17, nd, decpt, slow


def _layout(c, m, out):
    """Add the section characters to words 1-3 of the records ``out`` (..., 4).

    Section character i is digit i of the 17-digit int64 ``c`` before the
    point's position, a '0' at it (``m`` is 10**(17 - position)), and digit
    i - 1 after it. ``c`` and ``m`` are overwritten.
    """
    q = c // m
    q *= m
    q *= 9
    c += q  # a '0' opened at the point's position
    p = m
    for i in range(8, -1, -1):  # section characters 2i and 2i + 1, last to first
        if i:
            np.floor_divide(c, 100, out=q)
            np.multiply(q, 100, out=p)
            np.subtract(c, p, out=p)
            c, q = q, c
        pair = _T2[p if i else c]
        if i % 4:
            pair <<= 16 * (i % 4)
        out[..., 1 + i // 4] += pair
        del pair  # before the next lookup allocates its own


def csv_rows(start: int, dt: float | None, *blocks: np.ndarray) -> str:
    """The CSV rows ``k,k*dt,v...`` of the 2-D float arrays ``blocks`` side by side.

    k counts from ``start``. Each row ends in a newline; ``dt=None`` leaves
    out the time column.
    """
    k = np.arange(start, start + len(blocks[0]), dtype=np.float64)
    t = int(dt is not None)  # the time column
    x = np.empty((len(k), t + sum(b.shape[1] for b in blocks)))
    np.concatenate(blocks, axis=1, out=x[:, t:])
    if t:
        x[:, 0] = k * dt
    c17, nd, decpt, slow = (v.reshape(x.shape) for v in _shortest(x.reshape(-1)))
    decpt *= 17
    decpt += nd
    decpt += _VALUE_SECTION
    np.right_shift(x.view(np.int64), 63, out=nd)  # -1 where the sign bit is set, else 0
    nd *= -_SIGNED
    decpt += nd  # a negative value's twin section
    fallback = x[slow].tolist()
    del x, nd
    shape = len(k), 1 + c17.shape[1]  # the step column first
    digits = 1 + _decimal_exponent(np.where(k > 0, k, 1.0))
    c = np.empty(shape, dtype=np.int64)
    c[:, 0] = k.astype(np.int64) * _P10[17 - digits]
    c[:, 1:] = c17
    del c17, k
    section = np.empty_like(c)
    section[:, 0] = digits + _STEP_SECTION
    section[:, 1:] = decpt
    del decpt, digits
    buf = bytearray(32 * c.size)  # deleting its NULs needs no copy
    rec = np.frombuffer(buf, dtype="<i8").reshape(*shape, 4)
    np.take(_WORDS, section, axis=0, out=rec, mode="clip")  # in range; "clip" writes rec in place
    rec[:, -1, 3] += _NEWLINE - _COMMA
    m = _OPEN[section]
    del section
    _layout(c, m, rec)
    del c, m
    if fallback:
        text = "".join(repr(v).ljust(31, "\0") for v in fallback)
        text = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 31)
        rec.view(np.uint8)[:, 1:, :31][slow] = text
    del rec
    text = buf.translate(None, b"\0")
    del buf  # so the records are not held beside the str
    return text.decode("ascii")
