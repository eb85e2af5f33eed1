"""Low-level exact series kernel, pure Python.

One data shape lives here: a series support, a dict mapping exponent keys to
nonzero coefficient indices of a finite coefficient field whose add and
multiply tables are passed in flat row-major lists.  The exponent
(e + f*sqrt(p)) / D of a term is stored as one integer, its key

    K(e, f) = ((e * 2^64 + f * R_p) << 32) + f,   R_p = floor(sqrt(p) * 2^64),

which packs the exponent in the sense of Monagan & Pearce ("Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007), carried over to Z[sqrt p]:

* K is linear, K(x + y) = K(x) + K(y), so a product adds keys;
* K / 2^96 is e + f*sqrt(p) up to less than |f| * 2^-64, while a nonzero
  e + f*sqrt(p) with |e|, |f| <= N is at least 1/(N*(1 + sqrt p)) from 0
  (e^2 - p f^2 is a nonzero integer).  For N < 2^31 the error is smaller,
  so keys of exponents with |e|, |f| < 2^30, sums of two stored exponents
  included, are distinct and ordered exactly as the exponents are;
* K = e * 2^96 + f * U_p, where U_p = (R_p << 32) + 1 is the key of
  sqrt(p).  The low 32 bits r of K are f mod 2^32 (|f| < 2^31), and
  K >> 96 is e + shift_p[f] with shift_p[f] = floor(f * U_p / 2^96).  So
  a key decodes through a table per radicand indexed by r, which holds f
  (r sign-adjusted) and shift_p[f]: e = (K >> 96) - shift_p[f], a mask, a
  shift and a subtraction of small ints per key.  A second table holds
  theta_p[f] = p*f*2^96 - shift_p[f]*U_p, so the key of sqrt(p) times the
  exponent, K(p*f, e), is (K >> 96) * U_p + theta_p[f].  Both tables fill
  on first use and are `BoundedMemo`s: cleared when full, each holds at
  most LIMIT entries however widely the keys spread.

`ser_mul` visits each pair of terms of its two supports (a bounded product
only the pairs keyed below its bound).  A square, one support passed as both
operands, visits each unordered pair once: its cross terms come in equal
pairs, 2 c_i c_j, which vanish in characteristic 2.  A bounded product
makes about one term per five pairs it visits on the series omega round
trips, so it adds every pair into its key's sum and drops zero sums once,
and so does every square; an unbounded general product, whose pairs mostly
land on new keys, deletes a key as soon as its sum cancels.

Every stored exponent, precisions included, keeps |e| and |f| below
KEY_LIMIT = 2^29.  This module does not check it; `SeriesElem.__init__` in
`srlab.field` does, for every series element it builds, and raises
ResourceBoundError for an exponent at or past the limit.

This is the library's only kernel; the layers above reach it through
`srlab.core.kernel`.
"""

from __future__ import annotations

from math import isqrt

from .errors import ResourceBoundError

BACKEND = "python"

_KEY_G = 29
KEY_LIMIT = 1 << _KEY_G
_E_SHIFT = 96
_F_HALF = 1 << 31
_F_MASK = (1 << 32) - 1
# the key of the exponent sqrt(p): (R_p << 32) + 1
_F_UNIT = {p: (isqrt(p << 128) << 32) + 1 for p in (2, 3)}


class BoundedMemo(dict):
    """A dict that writes a missing entry as fill(key) on first use and
    keeps it.  A full memo (LIMIT entries) is cleared before its next
    entry, so it holds at most LIMIT entries however many keys it is asked
    for."""

    LIMIT = 4096

    def __init__(self, fill) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        if len(self) >= self.LIMIT:
            self.clear()
        value = self[key] = self.fill(key)
        return value


def _lat_entry(r: int, p: int) -> tuple[int, int]:
    """(shift_p[f], f) for the low 32 bits r of a key (see above)."""
    f = r - (1 << 32) if r >= _F_HALF else r
    return f * _F_UNIT[p] >> _E_SHIFT, f


def _theta_entry(r: int, p: int) -> int:
    """theta_p[f] for the low 32 bits r of a key (see above)."""
    shift, f = _LAT[p][r]
    return (p * f << _E_SHIFT) - shift * _F_UNIT[p]


# the decode tables of each radicand, indexed by a key's low 32 bits
_LAT = {p: BoundedMemo(lambda r, p=p: _lat_entry(r, p)) for p in _F_UNIT}
_THETA = {p: BoundedMemo(lambda r, p=p: _theta_entry(r, p)) for p in _F_UNIT}


def lat_span(e: int, f: int) -> int:
    """max(|e|, |f|), raising ResourceBoundError at KEY_LIMIT and beyond."""
    span = -e if e < 0 else e
    if -f > span or f > span:
        span = -f if f < 0 else f
    if span >= KEY_LIMIT:
        raise ResourceBoundError(
            f"lattice exponent ({e}, {f}) is beyond the exact order key's limit 2^{_KEY_G}"
        )
    return span


def exp_key(e: int, f: int, p: int) -> int:
    """The key of the exponent (e + f*sqrt(p)) / D (no limit check)."""
    return (e << _E_SHIFT) + f * _F_UNIT[p]


def key_lat(k: int, p: int) -> tuple[int, int]:
    """The lattice pair (e, f) of a key of an exponent with |f| < 2^31."""
    shift, f = _LAT[p][k & _F_MASK]
    return (k >> _E_SHIFT) - shift, f


def key_theta(k: int, p: int) -> int:
    """The key of sqrt(p) times the exponent keyed k: (e, f) -> (p*f, e)."""
    return (k >> _E_SHIFT) * _F_UNIT[p] + _THETA[p][k & _F_MASK]


def key_span(keys, p: int) -> int:
    """max(|e|, |f|) over the exponents of an iterable of keys (0 when
    empty), raising ResourceBoundError when it reaches KEY_LIMIT."""
    return max((lat_span(*key_lat(k, p)) for k in keys), default=0)


def ser_min(terms: dict, p: int):
    """Least exponent of a support as a lattice pair, or None when empty."""
    return key_lat(min(terms), p) if terms else None


def ser_trunc(terms: dict, bound: int) -> dict:
    """Drop every term whose exponent key is >= bound."""
    return {k: c for k, c in terms.items() if k < bound}


def ser_add(ta: dict, tb: dict, q: int, addf: list) -> dict:
    out = dict(ta)
    for key, c in tb.items():
        prev = out.get(key)
        if prev is None:
            out[key] = c
        else:
            s = addf[prev * q + c]
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def ser_neg(terms: dict, negf: list) -> dict:
    return {key: negf[c] for key, c in terms.items()}


def ser_mul(ta, tb, q: int, addf: list, mulf: list, bound) -> dict:
    """Product of two supports given as (key, coefficient) item sequences.

    With a bound, only terms keyed below it are formed, and both item
    sequences must be in increasing key order: each row stops at the first
    term whose key sum reaches the bound, and the rows stop once the least
    term of `tb` does.  When `ta` and `tb` are the same object the product
    is a square, formed in one pass (`_ser_square`).
    """
    if ta is tb:
        return _ser_square(ta, q, addf, mulf, bound)
    out: dict = {}
    get = out.get
    if bound is None:
        for k1, c1 in ta:
            row = c1 * q
            for k2, c2 in tb:
                k = k1 + k2
                c = mulf[row + c2]
                prev = get(k)
                if prev is None:
                    out[k] = c
                else:
                    s = addf[prev * q + c]
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return out
    if not ta or not tb:
        return out
    first_b = tb[0][0]
    for k1, c1 in ta:
        lim = bound - k1
        if first_b >= lim:
            break
        row = c1 * q
        for k2, c2 in tb:
            if k2 >= lim:
                break
            k = k1 + k2
            out[k] = addf[get(k, 0) * q + mulf[row + c2]]
    return {k: c for k, c in out.items() if c}


def _ser_square(ta, q: int, addf: list, mulf: list, bound) -> dict:
    """The square of a support, visiting each unordered pair of its terms
    once: c_i^2 at 2 k_i, and 2 c_i c_j at k_i + k_j for i < j, which
    vanishes in characteristic 2.  Every pair is added into its key's sum
    and zero sums are dropped once, as in the bounded `ser_mul`.  With a
    bound, `ta` is in increasing key order, and the rows stop as
    `ser_mul`'s do."""
    out: dict = {}
    get = out.get
    items = ta if isinstance(ta, list) else list(ta)
    if bound is None and items:
        # above every key sum, so no row stops and the order does not matter
        bound = 2 * max(k for k, _c in items) + 1
    for i, (k1, c1) in enumerate(items):
        lim = bound - k1
        if k1 >= lim:
            break
        k = k1 + k1
        out[k] = addf[get(k, 0) * q + mulf[c1 * q + c1]]
        twice = addf[c1 * q + c1]
        if not twice:
            continue
        row = twice * q
        for k2, c2 in items[i + 1:]:
            if k2 >= lim:
                break
            k = k1 + k2
            out[k] = addf[get(k, 0) * q + mulf[row + c2]]
    return {k: c for k, c in out.items() if c}


def ser_theta(terms: dict, p: int, thetaf: list) -> dict:
    """Apply the twisting endomorphism: the exponent e + f*sqrt(p) goes to
    sqrt(p) times itself, p*f + e*sqrt(p), and each coefficient through
    thetaf.  Multiplying by sqrt(p) keeps the order of the exponents."""
    unit, table = _F_UNIT[p], _THETA[p]
    out = {}
    for k, c in terms.items():
        out[(k >> _E_SHIFT) * unit + table[k & _F_MASK]] = thetaf[c]
    return out


def ser_text(terms: dict, p: int, names: list, e_text, f_text) -> str:
    """The text of a nonempty support in increasing exponent order: its
    terms joined by '+', each written `<name>*t^(<e part><f part>)` from the
    coefficient names and the texts of the exponent parts by numerator,
    e_text[e] and f_text[f]."""
    table = _LAT[p]
    out = []
    for k in sorted(terms):
        shift, f = table[k & _F_MASK]
        out.append(f"{names[terms[k]]}*t^({e_text[(k >> _E_SHIFT) - shift]}{f_text[f]})")
    return "+".join(out)
