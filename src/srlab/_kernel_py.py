"""Low-level exact series kernel, pure Python.

One data shape lives here: a series support, a dict mapping lattice exponent
pairs (e, f), standing for (e + f*sqrt(p)) / D, to nonzero coefficient
indices of a finite coefficient field whose add and multiply tables are
passed in flat row-major lists.  `irr_sign`, the exact sign of
a + b*sqrt(p), orders the exponents and is shared with `srlab.scalar`.

This is the library's only kernel; the layers above reach it through
`srlab.core.kernel`.
"""

from __future__ import annotations

from math import isqrt

from .errors import ResourceBoundError

BACKEND = "python"

# Exact order keys for lattice exponents: packed exponents in the sense of
# Monagan & Pearce (CASC 2007), carried over to Z[sqrt p].  The key of
# x = e + f*sqrt(p) is floor(x * 2^KEY_BITS).  Floor is monotone, so k1 < k2
# implies x1 < x2 at any magnitude.  While |e| and |f| stay below KEY_LIMIT,
# distinct exponents get distinct keys: |de + df*sqrt(p)| is at least
# 1/(|de| + |df|*sqrt(p)) > 2^-KEY_BITS.  Past that limit a key raises.
#
# floor(f*sqrt(p)*2^KEY_BITS) is (f * root) >> _ROOT_SHIFT with root =
# floor(sqrt(p) * 2^(KEY_BITS + _ROOT_SHIFT)).  The product misses the true
# value y by less than |f| * 2^-_ROOT_SHIFT <= 2^-(KEY_BITS + _KEY_G + 2),
# while y lies more than 1/(2|y| + 1/2) from every integer (y^2 is an integer
# and not a square), so the shift lands on the exact floor.
KEY_BITS = 32
_KEY_G = 29
KEY_LIMIT = 1 << _KEY_G
_ROOT_SHIFT = KEY_BITS + 2 * _KEY_G + 2


def irr_sign(a: int, b: int, p: int | None) -> int:
    """Exact sign of a + b*sqrt(p) for integers a, b (p is unused when b == 0)."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    s = a * a - p * b * b
    # p is squarefree, so s == 0 would force a == b == 0, excluded above.
    if a > 0:
        return 1 if s > 0 else -1
    return 1 if s < 0 else -1


def lat_cmp(e1: int, f1: int, e2: int, f2: int, p: int) -> int:
    """Compare lattice exponents (e + f*sqrt(p)) by real value."""
    return irr_sign(e1 - e2, f1 - f2, p)


def _root(p: int) -> int:
    """floor(sqrt(p) * 2^(KEY_BITS + _ROOT_SHIFT))."""
    return isqrt(p << 2 * (KEY_BITS + _ROOT_SHIFT))


def _beyond(e: int, f: int):
    raise ResourceBoundError(
        f"lattice exponent ({e}, {f}) is beyond the exact order key's limit 2^{_KEY_G}"
    )


def lat_key(e: int, f: int, p: int) -> int:
    """Exact order key floor((e + f*sqrt(p)) * 2^KEY_BITS) of an exponent.

    Keys of distinct exponents below KEY_LIMIT are distinct and ordered as
    the exponents are; beyond it ResourceBoundError is raised.
    """
    if not (-KEY_LIMIT < e < KEY_LIMIT and -KEY_LIMIT < f < KEY_LIMIT):
        _beyond(e, f)
    return (e << KEY_BITS) + ((f * _root(p)) >> _ROOT_SHIFT)


def _key_rows(terms: dict, p: int) -> list:
    """(key, e, f, coefficient) for every term, in support order; the
    guard condition calls _beyond, which raises, on an exponent past the limit."""
    root = _root(p)
    lim = KEY_LIMIT
    return [
        ((e << KEY_BITS) + ((f * root) >> _ROOT_SHIFT), e, f, c)
        for (e, f), c in terms.items()
        if (-lim < e < lim and -lim < f < lim) or _beyond(e, f)
    ]


def ser_sorted(terms: dict, p: int) -> list:
    """The (exponent, coefficient) items of a support in increasing exponent order."""
    return [((e, f), c) for _k, e, f, c in sorted(_key_rows(terms, p))]


def ser_min(terms: dict, p: int):
    """Smallest exponent key of a support, or None when empty."""
    best = None
    for key in terms:
        if best is None or lat_cmp(key[0], key[1], best[0], best[1], p) < 0:
            best = key
    return best


def ser_trunc(terms: dict, bound, p: int) -> dict:
    """Drop every term whose exponent is >= bound (bound None keeps all)."""
    if bound is None:
        return dict(terms)
    be, bf = bound
    out = {}
    for key, c in terms.items():
        if lat_cmp(key[0], key[1], be, bf, p) < 0:
            out[key] = c
    return out


def ser_add(ta: dict, tb: dict, q: int, addf: list, bound, p: int) -> dict:
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
    if bound is not None:
        out = ser_trunc(out, bound, p)
    return out


def ser_neg(terms: dict, negf: list) -> dict:
    return {key: negf[c] for key, c in terms.items()}


def ser_mul(ta: dict, tb: dict, q: int, addf: list, mulf: list, bound, p: int) -> dict:
    out: dict = {}
    if bound is None:
        for (e1, f1), c1 in ta.items():
            row = c1 * q
            for (e2, f2), c2 in tb.items():
                c = mulf[row + c2]
                if not c:
                    continue
                key = (e1 + e2, f1 + f2)
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
    if not ta or not tb:
        return out
    # Walk both supports in exponent order and stop each row at the first
    # term reaching the bound.  Two keys add up to the key of the sum or to
    # one less, so with lim = key(bound) - key(a) a term b keyed below
    # lim - 1 is certainly below the bound and one keyed above lim is not;
    # only keys lim - 1 and lim need the exact sign.  A coefficient that
    # cancels to zero stays in `out` until the end.
    kb = lat_key(bound[0], bound[1], p)
    be, bf = bound
    rows_b = sorted(_key_rows(tb, p))
    first_b = rows_b[0][0]
    get = out.get
    for ka, e1, f1, c1 in sorted(_key_rows(ta, p)):
        lim = kb - ka
        if first_b > lim:
            break
        near = lim - 1
        row = c1 * q
        for k2, e2, f2, c2 in rows_b:
            if k2 >= near and (k2 > lim or irr_sign(e1 + e2 - be, f1 + f2 - bf, p) >= 0):
                break
            key = (e1 + e2, f1 + f2)
            out[key] = addf[get(key, 0) * q + mulf[row + c2]]
    return {key: c for key, c in out.items() if c}


def ser_theta(terms: dict, p: int, thetaf: list) -> dict:
    """Apply the twisting endomorphism: exponent scaling plus coefficient map."""
    out = {}
    for (e, f), c in terms.items():
        y = thetaf[c]
        if y:
            out[(p * f, e)] = y
    return out
