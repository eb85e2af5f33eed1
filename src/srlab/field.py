"""Fields of characteristic 2 or 3 carrying a Tits endomorphism.

Each of the two modes has its own element class under the FieldElem
interface.  In finite mode the field is F_{p^m} with m odd, presented through
exp/log tables, with twisting endomorphism x -> x^{p^{n+1}} where m = 2n + 1
and the trivial valuation; it builds its q FiniteElem once, as `elems`, each
holding its own rows of the sum and product tables, and every factory and
operation returns one of them by a table lookup.  In hahn mode a SeriesElem
is a finitely supported series sum c_i * t^{g_i} with exponents g_i in
(1/D) Z[sqrt(p)] and coefficients in F_{p^m}, whose products and sums read
the CoeffField tables; inexact elements carry an upper truncation exponent
(their precision) and every operation propagates it honestly.  Only the field's factories choose the
class.  Elements are immutable and may be shared.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .core import kernel
from .errors import (
    ConfigError,
    DivisionByZeroError,
    InsufficientPrecisionError,
    ParseError,
    RadicandMismatchError,
    ResourceBoundError,
)
from .scalar import INFINITY, QUAD, ExtVal, QuadExt, quad_str, read_int, read_quad

Lat = tuple[int, int]

# the supported coefficient fields F_{p^m}, each by a primitive modulus
# (coefficients lowest first, monic), so x generates its multiplicative group
_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),            # x + 1
    (2, 3): (1, 1, 0, 1),      # x^3 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (3, 1): (1, 1),            # x + 1
    (3, 3): (1, 2, 0, 1),      # x^3 + 2x + 1
    (3, 5): (1, 2, 0, 0, 0, 1),  # x^5 + 2x + 1
}

# a coefficient: a prime-subfield digit or a generator power g[^k]
_COEFF = r"(([0-9]+)|g(?:\^([+-]?[0-9]+))?)"
# one term and the '+' or end after it: the coefficient, then the exponent,
# a scalar.QUAD.  The pattern reads any digits; which of them a field accepts
# (digit range, generator, the exponent's rules, lattice) is decided on the
# match
_TERM = re.compile(r"\s*" + _COEFF + r"\s*\*t\^\(\s*" + QUAD + r"\s*\)\s*(?:(\+)|$)")
_FINITE = re.compile(_COEFF)

_KEY_LIMIT = kernel.KEY_LIMIT


class CoeffField:
    """F_{p^m} with element indices encoding base-p digit polynomials."""

    def __init__(self, p: int, m: int) -> None:
        modulus = _MODULI.get((p, m))
        if modulus is None:
            raise ConfigError(
                f"no coefficient field for p={p}, m={m}; supported (p, m): "
                + ", ".join(map(str, _MODULI))
            )
        self.p = p
        self.m = m
        self.q = q = p**m
        self.n = (m - 1) // 2

        # digit-wise addition has no carries: the lowest digit of x + y is
        # (x % p + y % p) % p, and the higher ones are the sum x // p + y // p
        # in a row built before row x (row 0 adds nothing); negation likewise
        his = [y // p for y in range(q)]
        los = [y % p for y in range(q)]
        self.addf = addf = [0] * (q * q)
        addf[:q] = range(q)
        self.negf = negf = [0] * q
        for x in range(1, q):
            sub, d = addf[x // p * q:x // p * q + q], x % p
            addf[x * q:x * q + q] = [sub[h] * p + (d + lo) % p for h, lo in zip(his, los)]
            negf[x] = negf[x // p] * p + -x % p

        # x * a shifts a's digits up one place and adds back its top digit c
        # times x^m, which is -c times the modulus below x^m; the walk of x's
        # powers from 1 fills exp and log, and returns to 1 after exactly
        # q - 1 steps only when x generates, which certifies the modulus
        top = p ** (m - 1)
        back = [sum(-c * r % p * p**i for i, r in enumerate(modulus[:m])) for c in range(p)]
        exp = [1]
        for _ in range(q - 1):
            a = exp[-1]
            exp.append(addf[a % top * p * q + back[a // top]])
        if exp.pop() != 1 or exp.count(1) > 1:
            raise ConfigError("modulus is not primitive")
        self.exp = exp
        self.log = [0] * q
        for k, val in enumerate(exp):
            self.log[val] = k

        # log x + log y < 2(q - 1), so one doubled exp table needs no reduction
        exp2, logs = exp + exp, self.log[1:]
        self.mulf = [0] * (q * q)
        for x in range(1, q):
            lx = self.log[x]
            self.mulf[x * q + 1:x * q + q] = [exp2[lx + ly] for ly in logs]
        self.invf = [0] * q
        for x in range(1, q):
            self.invf[x] = self.exp[(-self.log[x]) % (q - 1)]
        te = p ** (self.n + 1)
        self.theta_exp = te
        self.thetaf = [0] * q
        for x in range(1, q):
            self.thetaf[x] = self.exp[(self.log[x] * te) % (q - 1)]

    def mul(self, x: int, y: int) -> int:
        return self.mulf[x * self.q + y]

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZeroError("inverse of zero coefficient")
        return self.invf[x]

    def theta(self, x: int) -> int:
        return self.thetaf[x]

    def twisted_pow(self, x: int, em: int, en: int) -> int:
        """x^em * theta(x)^en in one step through the log table."""
        if x == 0:
            if em < 0 or en < 0:
                raise DivisionByZeroError("inverse of zero coefficient")
            return 0 if em or en else 1
        return self.exp[(self.log[x] * (em + en * self.theta_exp)) % (self.q - 1)]


class FieldCfg(NamedTuple):
    """Configuration of a field with a Tits endomorphism, checked by
    `TitsField`.

    Every series field of a suite run takes the `denom`, `precision` and
    `support_cap` defaults (`FieldCfg._field_defaults`), and the run's
    report states them; tests and library callers build fields with other
    values.
    """

    char: int
    mode: str = "hahn"
    m: int = 1
    denom: int = 2
    precision: int = 40
    support_cap: int = 64


class _ExpText(dict):
    """Text of one part of an exponent by its numerator n over the field's
    D, written through `quad_str` on first use and kept: see
    `TitsField.e_text` and `TitsField.f_text`.  A full table (LIMIT
    entries) is cleared before its next entry, so a long-lived field keeps
    at most LIMIT texts per part, however widely its exponents spread."""

    LIMIT = 4096

    def __init__(self, write) -> None:
        super().__init__()
        self.write = write

    def __missing__(self, n: int) -> str:
        if len(self) >= self.LIMIT:
            self.clear()
        text = self[n] = self.write(n)
        return text


class TitsField:
    """A field in one of the two modes, with element factories and parsing."""

    def __init__(self, cfg: FieldCfg) -> None:
        if cfg.mode not in ("finite", "hahn"):
            raise ConfigError(f"mode must be 'finite' or 'hahn', got {cfg.mode!r}")
        if cfg.denom < 1:
            raise ConfigError(f"exponent denominator must be positive, got {cfg.denom}")
        if cfg.precision <= 0:
            raise ConfigError(f"precision must be positive, got {cfg.precision}")
        if cfg.support_cap < 8:
            raise ConfigError(f"support cap must be at least 8, got {cfg.support_cap}")
        self.prec_span = cfg.precision * cfg.denom
        if self.prec_span >= _KEY_LIMIT:
            raise ConfigError(
                f"precision * denom must be below the exact order key's limit"
                f" 2^{_KEY_LIMIT.bit_length() - 1}, got {self.prec_span}"
            )
        self.cfg = cfg
        self.coeff = CoeffField(cfg.char, cfg.m)
        self.p = cfg.char
        self.q = self.coeff.q
        self.D = cfg.denom
        self.mode = cfg.mode
        # the precision stamped on parsed elements, as an exponent key
        self.prec_key = kernel.exp_key(self.prec_span, 0, self.p)
        # the text of each coefficient index: prime-subfield digits as
        # themselves, the rest as powers of the generator
        log = self.coeff.log
        self.coeff_names = [
            str(k) if k < self.p else ("g" if log[k] == 1 else f"g^{log[k]}")
            for k in range(self.q)
        ]
        # the text of the exponent (e + f*sqrt(p))/D is e_text[e] + f_text[f],
        # which is quad_str(e, f, D, p): e/D in lowest terms, then
        # '+<f/D>r<p>' (quad_str(0, f, D, p) less its leading '0'), or ''
        # when f == 0
        D, p = self.D, self.p
        self.e_text = _ExpText(lambda e: quad_str(e, 0, D, p))
        self.f_text = _ExpText(lambda f: quad_str(0, f, D, p)[1:])
        self.elems: list[FiniteElem] | None = None
        if self.mode == "finite":
            # each element holds its rows of the sum and product tables, its
            # negation and its theta image, all as the field's elements
            q, cf = self.q, self.coeff
            elems = self.elems = [FiniteElem(self, k) for k in range(q)]
            pick = elems.__getitem__
            for x in elems:
                row = x.k * q
                x.add_row = list(map(pick, cf.addf[row:row + q]))
                x.mul_row = list(map(pick, cf.mulf[row:row + q]))
                x.neg = elems[cf.negf[x.k]]
                x.theta_image = elems[cf.thetaf[x.k]]

    # --- factories ---

    def zero(self) -> "FieldElem":
        if self.elems is not None:
            return self.elems[0]
        return SeriesElem(self, {})

    def one(self) -> "FieldElem":
        return self.from_coeff(1)

    def from_coeff(self, k: int) -> "FieldElem":
        if not 0 <= k < self.q:
            raise ValueError(f"coefficient index out of range: {k}")
        if self.elems is not None:
            return self.elems[k]
        return SeriesElem(self, {0: k}, low=(0, 0)) if k else SeriesElem(self, {})

    def lat(self, exp: QuadExt | Fraction | int) -> Lat:
        """Lattice pair of an exponent, validating membership in (1/D)Z[sqrt p]."""
        if not isinstance(exp, QuadExt):
            exp = QuadExt(exp)
        return self._lat(exp.a, exp.den, exp.b, exp.den, exp.p)

    def _lat(self, a: int, da: int, b: int, db: int, p: int | None) -> Lat:
        """Lattice pair of the exponent a/da + (b/db)*sqrt(p): a nonzero
        sqrt part over another radicand is a RadicandMismatchError, and a
        value off (1/D)Z[sqrt p] a ConfigError."""
        if b and p != self.p:
            raise RadicandMismatchError(f"value written over sqrt({p}) in a sqrt({self.p}) context")
        D = self.D
        e, re_ = divmod(a * D, da)
        f, rf = divmod(b * D, db)
        if re_ or rf:
            exp = QuadExt.from_ints(a * db, b * da, da * db, p)
            raise ConfigError(f"exponent {exp} is not a multiple of 1/{D}")
        return e, f

    def unlat(self, lat: Lat) -> QuadExt:
        return QuadExt.from_ints(lat[0], lat[1], self.D, self.p)

    def unkey(self, key: int) -> Lat:
        """Lattice pair of an exponent key (a support key or a precision)."""
        return kernel.key_lat(key, self.p)

    def monomial(self, exp: QuadExt | Fraction | int, coeff: int = 1) -> "FieldElem":
        if self.mode == "finite":
            raise ConfigError("monomials exist only in hahn mode")
        if not 0 <= coeff < self.q:
            raise ValueError(f"coefficient index out of range: {coeff}")
        return self.monomial_at(self.lat(exp), coeff)

    def monomial_at(self, lat: Lat, coeff: int = 1) -> "FieldElem":
        """coeff * t^((e + g*sqrt(p))/D) for lat = (e, g): `monomial` past its
        checks, for callers that hold a lattice pair of a hahn field and a
        coefficient index in range."""
        if not coeff:
            return SeriesElem(self, {})
        e, g = lat
        key = kernel.exp_key(e, g, self.p)
        return SeriesElem(self, {key: coeff}, None, kernel.lat_span(e, g), lat)

    # --- parsing and emission ---

    def parse(self, text: str) -> "FieldElem":
        """Parse an element literal; hahn results are stamped with cfg.precision.

        Positions count from the first non-space character.  Text the term
        pattern cannot read fails at its term's first non-space character; a
        rule of the field fails at the start of the part it rejects.
        """
        s = text.strip()
        if self.elems is not None:
            m = _FINITE.fullmatch(s)
            if m is None:
                raise ParseError("coefficient must be a digit, g or g^k", 0)
            return self.elems[self._coeff_index(m)]
        if not s:
            raise ParseError("empty element literal", 0)
        if s == "0":
            return SeriesElem(self, {}, self.prec_key, self.prec_span)
        terms: dict[int, int] = {}
        span = self.prec_span
        p, addf, q = self.p, self.coeff.addf, self.q
        pos = 0
        while True:
            m = _TERM.match(s, pos)
            if m is None:
                raise ParseError(
                    "term must look like coef*t^(exponent)", len(s) - len(s[pos:].lstrip())
                )
            c = self._coeff_index(m)
            try:
                e, g = self._lat(*read_quad(m, 4, p))
            except ConfigError as err:
                raise ParseError(str(err), m.start(4)) from None
            term_span = kernel.lat_span(e, g)
            if term_span > span:
                span = term_span
            key = kernel.exp_key(e, g, p)
            summed = addf[terms.get(key, 0) * q + c]
            if summed:
                terms[key] = summed
            else:
                terms.pop(key, None)
            if not m[9]:  # no '+' after the term
                return SeriesElem(self, kernel.ser_trunc(terms, self.prec_key), self.prec_key, span)
            pos = m.end()

    def _coeff_index(self, m: re.Match[str]) -> int:
        """The coefficient index read by a match's coefficient groups (1-3)."""
        digit = m.group(2)
        if digit is not None:
            # decided on the text, so no digit string is too long for int()
            d = digit.lstrip("0") or "0"
            if len(d) > 1 or int(d) >= self.p:
                raise ParseError(f"prime-subfield coefficient must be in 0..{self.p - 1}", m.start(1))
            return int(d)
        if self.coeff.m == 1:
            raise ParseError("generator literal needs an extension field", m.start(1))
        k = m.group(3)
        return self.coeff.exp[(read_int(k, m.start(3)) if k else 1) % (self.q - 1)]


class FieldElem:
    """An element of a TitsField: a FiniteElem or a SeriesElem.

    The base holds what both modes share; each subclass does its own
    arithmetic, so no operation asks for the field's mode.
    """

    __slots__ = ("field",)

    def _require_same_field(self, other: "FieldElem") -> None:
        if self.field is not other.field:
            raise ValueError("elements belong to different fields")

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + (-other)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inv()

    def add_product(self, sign: int, *factors: "FieldElem") -> "FieldElem":
        """self + sign * (the product of factors, formed left to right), for a
        sign of 1 or -1: the next summand of a sum written left to right, as
        `self + a * b * c` or `self - a * b * c` would form it."""
        prod = factors[0]
        for x in factors[1:]:
            prod = prod * x
        return self + prod if sign > 0 else self - prod

    def __str__(self) -> str:
        return self.emit()

    def __repr__(self) -> str:
        f = self.field
        if self.prec is None:
            return f"<{self.emit()}>"
        e, g = f.unkey(self.prec)
        return f"<{self.emit()} +O(t^({f.e_text[e]}{f.f_text[g]}))>"


class FiniteElem(FieldElem):
    """An element of a finite field, held as its coefficient index k.

    A finite field builds each of its elements once (`TitsField.elems`), so
    equality is identity.  Each element holds its own rows of the field's
    sum and product tables (`add_row[j]` is self plus the element of index
    j, `mul_row[j]` self times it), its negation and its theta image, so
    `+`, `*`, unary `-` and `theta` are one list index or one attribute
    read; inversion and powers go through the field's log tables.
    """

    __slots__ = ("k", "add_row", "mul_row", "neg", "theta_image")
    # read alike on both element classes (precision, support-cap counters)
    terms = prec = None

    def __init__(self, field: TitsField, k: int) -> None:
        self.field = field
        self.k = k

    def __add__(self, other: "FieldElem") -> "FieldElem":
        # a row indexed by another field's k would answer wrongly, not raise
        if other.field is not self.field:
            raise ValueError("elements belong to different fields")
        return self.add_row[other.k]

    def __neg__(self) -> "FieldElem":
        return self.neg

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        if other.field is not self.field:
            raise ValueError("elements belong to different fields")
        return self.mul_row[other.k]

    def add_product(self, sign: int, *factors: "FieldElem") -> "FieldElem":
        """self + sign * the product of factors, walked through the rows."""
        f = self.field
        prod = f.elems[1]  # one
        for x in factors:
            if x.field is not f:
                raise ValueError("elements belong to different fields")
            prod = prod.mul_row[x.k]
        return self.add_row[(prod.neg if sign < 0 else prod).k]

    def __pow__(self, e: int) -> "FieldElem":
        return self.twisted_pow(e, 0)

    def theta(self) -> "FieldElem":
        """Apply the Tits endomorphism."""
        return self.theta_image

    def twisted_pow(self, em: int, en: int) -> "FieldElem":
        """Compute self^em * theta(self)^en for integer exponents."""
        f = self.field
        return f.elems[f.coeff.twisted_pow(self.k, em, en)]

    def inv(self) -> "FieldElem":
        f = self.field
        return f.elems[f.coeff.inv(self.k)]

    def is_zero(self) -> bool:
        return self.k == 0

    def is_nonzero(self) -> bool:
        return self.k != 0

    def val(self) -> ExtVal:
        """The trivial valuation: infinity at zero, 0 elsewhere."""
        return INFINITY if self.k == 0 else ExtVal.of(0)

    def agrees(self, other: "FieldElem") -> bool:
        self._require_same_field(other)
        return self is other

    def emit(self) -> str:
        return self.field.coeff_names[self.k]


class SeriesElem(FieldElem):
    """A finitely supported series {exponent key: coefficient index} of a hahn field.

    The exponent (e + f*sqrt(p))/D of each term is stored as its kernel key
    (`srlab._kernel_py`), one integer that orders exactly as the exponents
    do and adds as they do, so a product adds keys and a comparison is one
    integer compare.  `prec` is the key of the upper truncation exponent of
    an inexact element and None for an exact one; every operation propagates
    it, and every term of an inexact element lies below it.
    """

    # _span bounds max(|e|, |f|) over the exponents of the support and of
    # prec.  Operations pass __init__ a bound found by small-int arithmetic
    # (add under *, max under +, times p under theta), and __init__, the one
    # place that checks the key limit, scans the element exactly when that
    # bound reaches it, so an exponent raises ResourceBoundError exactly
    # when it reaches the limit.  _low is the least support exponent as a
    # lattice pair, or None while it is not known: it is filled on first use
    # or carried over where an operation knows it, and an empty support is
    # answered from `terms`.  _items, the support's items in increasing key
    # order, is left unset until first use; the bounded product, the
    # support-cap cut and inversion fill it (`emit` sorts bare keys).
    __slots__ = ("terms", "prec", "_span", "_low", "_items")

    def __init__(
        self,
        field: TitsField,
        terms: dict[int, int],
        prec: int | None = None,
        span: int = 0,
        low: Lat | None = None,
    ) -> None:
        if span >= _KEY_LIMIT:
            span = kernel.key_span(terms if prec is None else [*terms, prec], field.p)
        self.field = field
        self.terms = terms
        self.prec = prec
        self._span = span
        self._low = low

    # --- helpers ---

    def _sorted(self) -> list[tuple[int, int]]:
        """The support's (key, coefficient) items in increasing key order."""
        try:
            return self._items
        except AttributeError:
            items = self._items = sorted(self.terms.items())
            return items

    def _capped(self, terms: dict[int, int], prec: int | None, span: int) -> "SeriesElem":
        # the uncut result goes through the key-limit check first, because
        # a cut is ordered exactly only below the limit
        f = self.field
        out = SeriesElem(f, terms, prec, span)
        cap = f.cfg.support_cap
        if prec is not None and len(terms) > cap:
            # every term lies below prec, so the first cut term is the new bound
            items = sorted(terms.items())
            kept = items[:cap]
            out = SeriesElem(f, dict(kept), items[cap][0], out._span)
            out._items = kept
        return out

    # --- arithmetic ---

    def __add__(self, other: "FieldElem") -> "FieldElem":
        f = self.field
        if other.field is not f:
            raise ValueError("elements belong to different fields")
        # each operand's terms lie below its own precision, so only the
        # operand less precise than the sum can hold terms to drop
        ta, tb = self.terms, other.terms
        prec, op = self.prec, other.prec
        if prec is not op:
            if prec is None or (op is not None and op < prec):
                ta, prec = kernel.ser_trunc(ta, op), op
            elif op is None or prec < op:
                tb = kernel.ser_trunc(tb, prec)
        terms = kernel.ser_add(ta, tb, f.q, f.coeff.addf)
        span = self._span if self._span >= other._span else other._span
        return self._capped(terms, prec, span)

    def __neg__(self) -> "FieldElem":
        f = self.field
        return SeriesElem(
            f, kernel.ser_neg(self.terms, f.coeff.negf), self.prec, self._span, self._low
        )

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        f = self.field
        if other.field is not f:
            raise ValueError("elements belong to different fields")
        pa, pb = self.prec, other.prec
        addf, mulf = f.coeff.addf, f.coeff.mulf
        span = self._span + other._span
        if pa is None and pb is None:
            ta, tb = self.terms, other.terms
            la, lb = self._low, other._low
            if len(ta) == 1 == len(tb) and la is not None and lb is not None:
                # two exact monomials: one key sum, and the least exponent is known
                ((ka, ca),) = ta.items()
                ((kb, cb),) = tb.items()
                low = (la[0] + lb[0], la[1] + lb[1])
                return SeriesElem(f, {ka + kb: mulf[ca * f.q + cb]}, None, span, low)
            # a square passes one item view twice, which the kernel squares in one pass
            ia = ta.items()
            terms = kernel.ser_mul(ia, ia if other is self else tb.items(), f.q, addf, mulf, None)
            return SeriesElem(f, terms, None, span)
        ia, ib = self._sorted(), other._sorted()
        prec = _product_prec(ia, pa, ib, pb, None)
        terms = kernel.ser_mul(ia, ib, f.q, addf, mulf, prec)
        return self._capped(terms, prec, span)

    def add_product(self, sign: int, *factors: "FieldElem") -> "FieldElem":
        """self + sign * the product of factors, with the product formed only
        below self's precision `need`, which bounds the sum's.

        The product of the first factors is formed below need less the least
        exponents of the factors after them (its precision when a support is
        empty), one bounded product per factor.  Every bound is an exponent
        and is checked at the key limit.  A product left exact by exact
        factors is not cut at the support cap, as `*` leaves it uncut.  So
        every term below the sum's precision, that precision and every
        support-cap cut fall where `self + a * b * c` puts them: the sum is
        the same element.  An exact sum or an exact zero factor takes the
        plain path.  Product terms above the sum's precision are never
        formed, so they are not checked at the key limit.
        """
        f = self.field
        need = self.prec
        lows = []
        for x in factors:
            if x.field is not f:
                raise ValueError("elements belong to different fields")
            if x.terms:
                lows.append(x._sorted()[0][0])
            elif x.prec is None:
                need = None  # an exact zero
            else:
                lows.append(x.prec)
        if need is None:
            return FieldElem.add_product(self, sign, *factors)
        # the bound of each partial product with its span, from the last back
        bound, span = need, self._span
        bounds = [(bound, span)]
        for x, lo in zip(factors[:1:-1], lows[:1:-1]):
            bound -= lo
            span += x._span
            if span >= _KEY_LIMIT:
                span = kernel.key_span((bound,), f.p)
            bounds.append((bound, span))
        q, addf, mulf = f.q, f.coeff.addf, f.coeff.mulf
        acc = factors[0]
        exact = acc.prec is None
        for x, (bound, span) in zip(factors[1:], reversed(bounds)):
            ia, ib = acc._sorted(), x._sorted()
            prec = _product_prec(ia, acc.prec, ib, x.prec, bound)
            terms = kernel.ser_mul(ia, ib, q, addf, mulf, prec)
            if acc._span + x._span > span:
                span = acc._span + x._span
            exact = exact and x.prec is None
            acc = SeriesElem(f, terms, prec, span) if exact else self._capped(terms, prec, span)
        return self + acc if sign > 0 else self - acc

    def __pow__(self, e: int) -> "FieldElem":
        f = self.field
        if e == 0:
            return f.one()
        if e == f.p and self.prec is None:
            # the Frobenius is additive in characteristic p, so an exact p-th
            # power maps each term c t^g to c^p t^(pg): keys are linear, so
            # p k keys pg, and no two images meet.  It is the product's
            # element, which an exact product never cuts at the support cap.
            p, cp, low = e, f.coeff.twisted_pow, self._low
            if low is not None:
                low = (p * low[0], p * low[1])
            terms = {p * k: cp(c, p, 0) for k, c in self.terms.items()}
            return SeriesElem(f, terms, None, self._span * p, low)
        # every other power is a left-to-right product.  It starts from the
        # first factor: a leading one * x would return x's own terms and
        # precision, at most cut to the support cap
        base = self if e > 0 else self.inv()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def theta(self) -> "FieldElem":
        """Apply the Tits endomorphism: it maps the exponent e + f*sqrt(p) to
        p*f + e*sqrt(p), which keeps their order."""
        f = self.field
        p = f.p
        terms, low, prec = self.terms, self._low, self.prec
        if low is not None:
            low = (p * low[1], low[0])
        if low is not None and len(terms) == 1:
            # one known exponent: key its image directly
            (c,) = terms.values()
            terms = {kernel.exp_key(*low, p): f.coeff.thetaf[c]}
        else:
            terms = kernel.ser_theta(terms, p, f.coeff.thetaf)
        if prec is not None:
            prec = kernel.key_theta(prec, p)
        return SeriesElem(f, terms, prec, self._span * p, low)

    def twisted_pow(self, em: int, en: int) -> "FieldElem":
        """Compute self^em * theta(self)^en for integer exponents."""
        if not en:
            return self**em
        twisted = self.theta() ** en
        return self**em * twisted if em else twisted

    def inv(self) -> "FieldElem":
        f = self.field
        if not self.terms:
            if self.prec is None:
                raise DivisionByZeroError("inverse of zero")
            raise InsufficientPrecisionError(
                "cannot invert an element with empty certified support"
            )
        q, coeff = f.q, f.coeff
        prec, span = self.prec, self._span
        if len(self.terms) == 1:
            ((g, c),) = self.terms.items()
            low = self._low
            if low is not None:
                low = (-low[0], -low[1])
            if prec is not None:
                # t^g + O(t^prec) inverts to t^-g + O(t^(prec - 2g))
                prec -= 2 * g
                span *= 3
            return SeriesElem(f, {-g: coeff.invf[c]}, prec, span, low)
        # self = c t^g (1 + x); invert the unit 1 + x by a geometric series
        # in -x, whose exponents k - g keep their order.  A power of -x has
        # span at most its number of factors times that of -x, and every
        # cut of the working bound `rel` is a key of the accumulated sum.
        addf, mulf = coeff.addf, coeff.mulf
        items = self._sorted()
        g, c = items[0]
        cinv = coeff.invf[c]
        neg_x = [(k - g, coeff.negf[mulf[cc * q + cinv]]) for k, cc in items[1:]]
        step = 2 * span
        if step >= _KEY_LIMIT:
            kernel.key_span((k for k, _c in neg_x), f.p)
        if prec is None:
            rel, rel_span = f.prec_key, f.prec_span
        else:
            rel, rel_span = prec - g, step
            if rel_span >= _KEY_LIMIT:
                rel_span = kernel.key_span((rel,), f.p)
        cap = f.cfg.support_cap
        acc: dict[int, int] = {0: 1}
        power = {k: c for k, c in neg_x if k < rel}
        power_span = step
        rounds = 0
        # acc and power lie below rel, so only the cap cuts their sum, and
        # it lowers rel to its first dropped key; the bounded product forms
        # nothing from power's terms past rel, as neg_x's keys are positive
        while power:
            acc = kernel.ser_add(acc, power, q, addf)
            if len(acc) > cap:
                kept = sorted(acc.items())
                rel = kept[cap][0]
                acc = dict(kept[:cap])
            power = kernel.ser_mul(sorted(power.items()), neg_x, q, addf, mulf, rel)
            power_span += step
            if power_span >= _KEY_LIMIT:
                power_span = kernel.key_span(power, f.p)
            rounds += 1
            if rounds > 10000:
                raise ResourceBoundError("geometric inversion did not terminate")
        terms = {k - g: mulf[cc * q + cinv] for k, cc in acc.items()}
        return SeriesElem(f, terms, rel - g, max(power_span, rel_span) + span)

    # --- predicates and views ---

    def is_zero(self) -> bool:
        """True for certified zero; raises when truncation hides the answer."""
        if self.terms:
            return False
        if self.prec is None:
            return True
        raise InsufficientPrecisionError(
            "element is zero below its precision but not certified zero"
        )

    def is_nonzero(self) -> bool:
        return bool(self.terms)

    def val(self) -> ExtVal:
        """The t-adic valuation as an extended exact value."""
        if self.terms:
            f = self.field
            low = self._low
            if low is None:
                low = self._low = kernel.ser_min(self.terms, f.p)
            return ExtVal.from_ints(low[0], low[1], f.D, f.p)
        if self.prec is None:
            return INFINITY
        raise InsufficientPrecisionError("valuation of an uncertified zero")

    def agrees(self, other: "FieldElem") -> bool:
        """Equality up to the common certified precision."""
        self._require_same_field(other)
        prec, op = self.prec, other.prec
        if prec is None or (op is not None and op < prec):
            prec = op
        if prec is None:
            return self.terms == other.terms
        return kernel.ser_trunc(self.terms, prec) == kernel.ser_trunc(other.terms, prec)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesElem) or self.field is not other.field:
            return NotImplemented
        return self.terms == other.terms and self.prec == other.prec

    def emit(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        f = self.field
        names, e_text, f_text = f.coeff_names, f.e_text, f.f_text
        keys = sorted(terms)
        return "+".join([
            f"{names[terms[k]]}*t^({e_text[e]}{f_text[g]})"
            for k, (e, g) in zip(keys, kernel.key_lats(keys, f.p))
        ])


def _product_prec(
    ia: list, pa: int | None, ib: list, pb: int | None, prec: int | None
) -> int | None:
    """The least of `prec` (None for no bound) and the precision below which
    the product of two supports, given as sorted items with their
    precisions, is certified: each factor's precision plus the other's least
    exponent, or its precision when its support is empty."""
    if pa is not None:
        lo = ib[0][0] if ib else pb
        if lo is not None and (prec is None or pa + lo < prec):
            prec = pa + lo
    if pb is not None:
        lo = ia[0][0] if ia else pa
        if lo is not None and (prec is None or pb + lo < prec):
            prec = pb + lo
    return prec
