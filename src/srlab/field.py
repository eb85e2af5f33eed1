"""Fields of characteristic 2 or 3 carrying a Tits endomorphism.

Two modes share one element interface.  In finite mode the field is
F_{p^m} with m odd, presented through exp/log tables, and the twisting
endomorphism is x -> x^{p^{n+1}} where m = 2n + 1; the valuation is trivial.
In hahn mode elements are finitely supported series sum c_i * t^{g_i} with
exponents g_i in (1/D) Z[sqrt(p)] and coefficients in F_{p^m}; inexact
elements carry an upper truncation exponent (their precision) and every
operation propagates it honestly.

Finite elements are interned per field: a finite TitsField builds its q
elements once, as `elems`, and every factory and operation returns one of
them by a table lookup, so finite arithmetic allocates nothing.  Elements of
either mode are immutable and may be shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import kernel
from .errors import (
    ConfigError,
    DivisionByZeroError,
    InsufficientPrecisionError,
    ParseError,
    ResourceBoundError,
)
from .scalar import INFINITY, ExtVal, QuadExt, parse_quad

Lat = tuple[int, int]

_DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (0, 1),
    (3, 1): (0, 1),
    (2, 3): (1, 1, 0, 1),      # x^3 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (3, 3): (1, 2, 0, 1),      # x^3 + 2x + 1
    (3, 5): (1, 2, 0, 0, 0, 1),  # x^5 + 2x + 1
}

_MAX_ORDER = 243

# Marks a hahn element whose least support exponent is not computed yet.
_UNSET = object()


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], p: int, mod: tuple[int, ...]) -> list[int]:
    m = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce by the monic modulus
    for d in range(len(out) - 1, m - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for k in range(m):
                out[d - m + k] = (out[d - m + k] - c * mod[k]) % p
    return _poly_trim(out)


class CoeffField:
    """F_{p^m} with element indices encoding base-p digit polynomials."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None) -> None:
        if p not in (2, 3):
            raise ConfigError(f"characteristic must be 2 or 3, got {p}")
        if m < 1 or m % 2 == 0:
            raise ConfigError(f"coefficient degree must be odd and positive, got {m}")
        q = p**m
        if q > _MAX_ORDER:
            raise ConfigError(f"field order {q} exceeds the supported bound {_MAX_ORDER}")
        if modulus is None:
            modulus = _DEFAULT_MODULI.get((p, m))
            if modulus is None:
                raise ConfigError(f"no default modulus for p={p}, m={m}")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[m] != 1:
            raise ConfigError("modulus must be monic of degree m")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self.n = (m - 1) // 2

        def to_digits(k: int) -> list[int]:
            out = []
            for _ in range(m):
                out.append(k % p)
                k //= p
            return out

        def from_digits(d: list[int]) -> int:
            out = 0
            for c in reversed(d[:m] + [0] * (m - len(d))):
                out = out * p + c
            return out

        digs = [to_digits(k) for k in range(q)]
        self.addf = [0] * (q * q)
        for x in range(q):
            for y in range(x, q):
                s = from_digits([(a + b) % p for a, b in zip(digs[x], digs[y])])
                self.addf[x * q + y] = s
                self.addf[y * q + x] = s
        self.negf = [from_digits([(-a) % p for a in digs[x]]) for x in range(q)]

        # F_p[x]/(modulus) has an element of multiplicative order q - 1
        # exactly when the modulus is irreducible, so the search for a
        # generator also certifies the modulus; its walk fills exp and log.
        for cand in range(1, q):
            cp = _poly_trim(digs[cand][:])
            power = [1]
            walk = []
            for _ in range(q - 1):
                walk.append(from_digits(power))
                power = _poly_mulmod(power, cp, p, modulus)
                if power == [1]:
                    break
            if power == [1] and len(walk) == q - 1:
                break
        else:
            raise ConfigError("modulus is reducible")
        self.generator = cand
        self.exp = walk
        self.log = [0] * q
        for k, val in enumerate(walk):
            self.log[val] = k

        self.mulf = [0] * (q * q)
        for x in range(1, q):
            lx = self.log[x]
            for y in range(1, q):
                self.mulf[x * q + y] = self.exp[(lx + self.log[y]) % (q - 1)]
        self.invf = [0] * q
        for x in range(1, q):
            self.invf[x] = self.exp[(-self.log[x]) % (q - 1)]
        te = p ** (self.n + 1)
        self.theta_exp = te
        self.thetaf = [0] * q
        self.frobf = [0] * q
        for x in range(1, q):
            self.thetaf[x] = self.exp[(self.log[x] * te) % (q - 1)]
            self.frobf[x] = self.exp[(self.log[x] * p) % (q - 1)]

    def add(self, x: int, y: int) -> int:
        return self.addf[x * self.q + y]

    def mul(self, x: int, y: int) -> int:
        return self.mulf[x * self.q + y]

    def neg(self, x: int) -> int:
        return self.negf[x]

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


@dataclass(frozen=True)
class FieldCfg:
    """Configuration of a field with a Tits endomorphism."""

    char: int
    mode: str = "hahn"
    m: int = 1
    denom: int = 2
    precision: int = 40
    support_cap: int = 64


def _lmin(a: Lat | None, b: Lat | None, p: int) -> Lat | None:
    if a is None:
        return b
    if b is None:
        return a
    return a if kernel.lat_cmp(a[0], a[1], b[0], b[1], p) <= 0 else b


def _ladd(a: Lat, b: Lat) -> Lat:
    return (a[0] + b[0], a[1] + b[1])


def _lneg(a: Lat) -> Lat:
    return (-a[0], -a[1])


class TitsField:
    """A field in one of the two modes, with element factories and parsing."""

    def __init__(self, cfg: FieldCfg) -> None:
        if cfg.mode not in ("finite", "hahn"):
            raise ConfigError(f"mode must be 'finite' or 'hahn', got {cfg.mode!r}")
        if cfg.denom < 1:
            raise ConfigError("exponent denominator must be positive")
        if cfg.precision <= 0:
            raise ConfigError("precision must be positive")
        if cfg.support_cap < 8:
            raise ConfigError("support cap must be at least 8")
        self.cfg = cfg
        self.coeff = CoeffField(cfg.char, cfg.m)
        self.p = cfg.char
        self.q = self.coeff.q
        self.D = cfg.denom
        self.mode = cfg.mode
        self.prec_lat: Lat = (cfg.precision * cfg.denom, 0)
        self.elems: list[FieldElem] | None = (
            [FieldElem(self, k=k) for k in range(self.q)] if self.mode == "finite" else None
        )

    # --- factories ---

    def zero(self) -> "FieldElem":
        if self.elems is not None:
            return self.elems[0]
        return FieldElem(self, terms={}, prec=None)

    def one(self) -> "FieldElem":
        return self.from_coeff(1)

    def from_coeff(self, k: int) -> "FieldElem":
        if not 0 <= k < self.q:
            raise ValueError(f"coefficient index out of range: {k}")
        if self.elems is not None:
            return self.elems[k]
        return FieldElem(self, terms={(0, 0): k} if k else {}, prec=None)

    def lat(self, exp: QuadExt | Fraction | int) -> Lat:
        """Lattice pair of an exponent, validating membership in (1/D)Z[sqrt p]."""
        if not isinstance(exp, QuadExt):
            exp = QuadExt(exp)
        if exp.p is not None and exp.p != self.p:
            raise ConfigError(f"exponent over sqrt({exp.p}) in a sqrt({self.p}) field")
        e, re = divmod(exp.a * self.D, exp.den)
        f, rf = divmod(exp.b * self.D, exp.den)
        if re or rf:
            raise ConfigError(f"exponent {exp} is not a multiple of 1/{self.D}")
        return (e, f)

    def unlat(self, lat: Lat) -> QuadExt:
        return QuadExt.from_ints(lat[0], lat[1], self.D, self.p)

    def monomial(self, exp: QuadExt | Fraction | int, coeff: int = 1) -> "FieldElem":
        if self.mode == "finite":
            raise ConfigError("monomials exist only in hahn mode")
        if not 0 <= coeff < self.q:
            raise ValueError(f"coefficient index out of range: {coeff}")
        terms = {self.lat(exp): coeff} if coeff else {}
        return FieldElem(self, terms=terms, prec=None)

    # --- parsing and emission ---

    def parse(self, text: str) -> "FieldElem":
        """Parse an element literal; hahn results are stamped with cfg.precision."""
        if self.elems is not None:
            return self.elems[self._parse_coeff(text.strip(), 0)]
        s = text.strip()
        if not s:
            raise ParseError("empty element literal", 0)
        if s == "0":
            return FieldElem(self, terms={}, prec=self.prec_lat)
        terms: dict[Lat, int] = {}
        pos = 0
        depth = 0
        start = 0
        chunks: list[tuple[str, int]] = []
        for pos, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError("unbalanced ')'", pos)
            elif ch == "+" and depth == 0:
                chunks.append((s[start:pos], start))
                start = pos + 1
        if depth != 0:
            raise ParseError("unbalanced '('", len(s) - 1)
        chunks.append((s[start:], start))
        for chunk, off in chunks:
            lat, c = self._parse_term(chunk, off)
            prev = terms.get(lat, 0)
            summed = self.coeff.add(prev, c)
            if summed:
                terms[lat] = summed
            else:
                terms.pop(lat, None)
        terms = kernel.ser_trunc(terms, self.prec_lat, self.p)
        return FieldElem(self, terms=terms, prec=self.prec_lat)

    def _parse_term(self, chunk: str, off: int) -> tuple[Lat, int]:
        t = chunk.strip()
        shift = off + (len(chunk) - len(chunk.lstrip()))
        star = t.find("*t^(")
        if star < 0:
            raise ParseError("term must look like coef*t^(exponent)", shift)
        coeff = self._parse_coeff(t[:star].strip(), shift)
        rest = t[star + 4 :]
        if not rest.endswith(")"):
            raise ParseError("missing ')' after exponent", off + len(chunk) - 1)
        exp_text = rest[:-1]
        exp = parse_quad(exp_text, offset=shift + star + 4, radicand=self.p)
        try:
            lat = self.lat(exp)
        except ConfigError as err:
            raise ParseError(str(err), shift + star + 4) from None
        return lat, coeff

    def _parse_coeff(self, text: str, off: int) -> int:
        if not text:
            raise ParseError("empty coefficient", off)
        if text == "g":
            if self.coeff.m == 1:
                raise ParseError("generator literal needs an extension field", off)
            return self.coeff.exp[1]
        if text.startswith("g^"):
            if self.coeff.m == 1:
                raise ParseError("generator literal needs an extension field", off)
            try:
                k = int(text[2:])
            except ValueError:
                raise ParseError("malformed generator power", off + 2) from None
            return self.coeff.exp[k % (self.q - 1)]
        try:
            v = int(text)
        except ValueError:
            raise ParseError(f"malformed coefficient {text!r}", off) from None
        if not 0 <= v < self.p:
            raise ParseError(f"prime-subfield coefficient must be in 0..{self.p - 1}", off)
        return v

    def coeff_str(self, k: int) -> str:
        if k < self.p:
            return str(k)
        lg = self.coeff.log[k]
        return "g" if lg == 1 else f"g^{lg}"

    # --- ordering helper ---

    def lat_sorted(self, terms: dict[Lat, int]) -> list[tuple[Lat, int]]:
        return kernel.ser_sorted(terms, self.p)


class FieldElem:
    """An element of a TitsField in either mode."""

    # _low caches the least support exponent of a hahn element (None when
    # the support is empty); it is filled on first use.
    __slots__ = ("field", "k", "terms", "prec", "_low")

    def __init__(
        self,
        field: TitsField,
        k: int | None = None,
        terms: dict[Lat, int] | None = None,
        prec: Lat | None = None,
    ) -> None:
        self.field = field
        if field.mode == "finite":
            if k is None:
                raise ValueError("finite-mode element needs a coefficient index")
            self.k = k
            self.terms = None
            self.prec = None
        else:
            if terms is None:
                raise ValueError("hahn-mode element needs a term dict")
            self.k = None
            self.terms = terms
            self.prec = prec
            self._low = _UNSET

    # --- helpers ---

    def _require_same_field(self, other: "FieldElem") -> None:
        if self.field is not other.field:
            raise ValueError("elements belong to different fields")

    def _min_exp(self) -> Lat | None:
        """Least support exponent of a hahn element, None for empty support."""
        low = self._low
        if low is _UNSET:
            low = self._low = kernel.ser_min(self.terms, self.field.p)
        return low

    def _nu_low(self) -> Lat | None:
        """Least support exponent, falling back to the precision bound."""
        m = self._min_exp()
        return m if m is not None else self.prec

    def _capped(self, terms: dict[Lat, int], prec: Lat | None) -> "FieldElem":
        cap = self.field.cfg.support_cap
        if prec is not None and len(terms) > cap:
            ordered = self.field.lat_sorted(terms)
            cut = ordered[cap][0]
            prec = _lmin(prec, cut, self.field.p)
            terms = kernel.ser_trunc(terms, prec, self.field.p)
        return FieldElem(self.field, terms=terms, prec=prec)

    # --- arithmetic ---

    def __add__(self, other: "FieldElem") -> "FieldElem":
        f = self.field
        if other.field is not f:
            raise ValueError("elements belong to different fields")
        if f.elems is not None:
            return f.elems[f.coeff.addf[self.k * f.q + other.k]]
        prec = _lmin(self.prec, other.prec, f.p)
        terms = kernel.ser_add(self.terms, other.terms, f.q, f.coeff.addf, prec, f.p)
        return self._capped(terms, prec)

    def __neg__(self) -> "FieldElem":
        f = self.field
        if f.elems is not None:
            return f.elems[f.coeff.negf[self.k]]
        return FieldElem(f, terms=kernel.ser_neg(self.terms, f.coeff.negf), prec=self.prec)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + (-other)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        f = self.field
        if other.field is not f:
            raise ValueError("elements belong to different fields")
        if f.elems is not None:
            return f.elems[f.coeff.mulf[self.k * f.q + other.k]]
        prec = None
        if self.prec is not None:
            lo = other._nu_low()
            prec = _ladd(self.prec, lo) if lo is not None else None
        if other.prec is not None:
            lo = self._nu_low()
            cand = _ladd(other.prec, lo) if lo is not None else None
            prec = _lmin(prec, cand, f.p)
        terms = kernel.ser_mul(self.terms, other.terms, f.q, f.coeff.addf, f.coeff.mulf, prec, f.p)
        return self._capped(terms, prec)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inv()

    def __pow__(self, e: int) -> "FieldElem":
        if self.field.elems is not None:
            return self.twisted_pow(e, 0)
        if e == 0:
            return self.field.one()
        # the product starts from the first factor: a leading one * x would
        # return x's own terms and precision, at most cut to the support cap
        base = self if e > 0 else self.inv()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def theta(self) -> "FieldElem":
        """Apply the Tits endomorphism."""
        f = self.field
        if f.elems is not None:
            return f.elems[f.coeff.thetaf[self.k]]
        terms = kernel.ser_theta(self.terms, f.p, f.coeff.thetaf)
        prec = None if self.prec is None else (f.p * self.prec[1], self.prec[0])
        return FieldElem(f, terms=terms, prec=prec)

    def frob(self) -> "FieldElem":
        """Apply the Frobenius, the square of the Tits endomorphism."""
        return self.theta().theta()

    def twisted_pow(self, em: int, en: int) -> "FieldElem":
        """Compute self^em * theta(self)^en for integer exponents."""
        f = self.field
        if f.elems is not None:
            return f.elems[f.coeff.twisted_pow(self.k, em, en)]
        if not en:
            return self**em
        twisted = self.theta() ** en
        return self**em * twisted if em else twisted

    def inv(self) -> "FieldElem":
        f = self.field
        if f.elems is not None:
            return f.elems[f.coeff.inv(self.k)]
        if not self.terms:
            if self.prec is None:
                raise DivisionByZeroError("inverse of zero")
            raise InsufficientPrecisionError(
                "cannot invert an element with empty certified support"
            )
        p, q = f.p, f.q
        g = self._min_exp()
        c = self.terms[g]
        cinv = f.coeff.inv(c)
        if len(self.terms) == 1:
            prec = None if self.prec is None else _ladd(self.prec, _lneg(_ladd(g, g)))
            return FieldElem(f, terms={_lneg(g): cinv}, prec=prec)
        # self = c t^g (1 + x); invert the unit by a geometric series
        neg_x: dict[Lat, int] = {}
        for key, coef in self.terms.items():
            if key == g:
                continue
            neg_x[_ladd(key, _lneg(g))] = f.coeff.neg(f.coeff.mul(coef, cinv))
        if self.prec is None:
            rel = f.prec_lat
        else:
            rel = _ladd(self.prec, _lneg(g))
        cap = f.cfg.support_cap
        acc: dict[Lat, int] = {(0, 0): 1}
        power: dict[Lat, int] = dict(neg_x)
        rounds = 0
        while power:
            acc = kernel.ser_add(acc, power, q, f.coeff.addf, rel, p)
            if len(acc) > cap:
                ordered = f.lat_sorted(acc)
                rel = ordered[cap][0]
                acc = kernel.ser_trunc(acc, rel, p)
                power = kernel.ser_trunc(power, rel, p)
            power = kernel.ser_mul(power, neg_x, q, f.coeff.addf, f.coeff.mulf, rel, p)
            rounds += 1
            if rounds > 10000:
                raise ResourceBoundError("geometric inversion did not terminate")
        shift = _lneg(g)
        terms = {}
        for key, coef in acc.items():
            terms[_ladd(key, shift)] = f.coeff.mul(coef, cinv)
        return FieldElem(f, terms=terms, prec=_ladd(rel, shift))

    # --- predicates and views ---

    def is_zero(self) -> bool:
        """True for certified zero; raises when truncation hides the answer."""
        if self.field.mode == "finite":
            return self.k == 0
        if self.terms:
            return False
        if self.prec is None:
            return True
        raise InsufficientPrecisionError(
            "element is zero below its precision but not certified zero"
        )

    def is_nonzero(self) -> bool:
        if self.field.mode == "finite":
            return self.k != 0
        return bool(self.terms)

    def val(self) -> ExtVal:
        """The t-adic valuation as an extended exact value."""
        f = self.field
        if f.mode == "finite":
            return INFINITY if self.k == 0 else ExtVal.of(0)
        m = self._min_exp()
        if m is not None:
            return ExtVal(f.unlat(m))
        if self.prec is None:
            return INFINITY
        raise InsufficientPrecisionError("valuation of an uncertified zero")

    def agrees(self, other: "FieldElem") -> bool:
        """Equality up to the common certified precision."""
        self._require_same_field(other)
        f = self.field
        if f.mode == "finite":
            return self.k == other.k
        prec = _lmin(self.prec, other.prec, f.p)
        if prec is None:
            return self.terms == other.terms
        return kernel.ser_trunc(self.terms, prec, f.p) == kernel.ser_trunc(
            other.terms, prec, f.p
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElem) or self.field is not other.field:
            return NotImplemented
        if self.field.mode == "finite":
            return self.k == other.k
        return self.terms == other.terms and self.prec == other.prec

    def __hash__(self) -> int:
        if self.field.mode == "finite":
            return hash((id(self.field), self.k))
        raise TypeError("hahn elements are unhashable")

    def emit(self) -> str:
        f = self.field
        if f.mode == "finite":
            return f.coeff_str(self.k)
        if not self.terms:
            return "0"
        parts = []
        for lat, c in f.lat_sorted(self.terms):
            parts.append(f"{f.coeff_str(c)}*t^({f.unlat(lat)})")
        return "+".join(parts)

    def __str__(self) -> str:
        return self.emit()

    def __repr__(self) -> str:
        tag = "" if self.prec is None else f" +O(t^{self.field.unlat(self.prec)})"
        return f"<{self.emit()}{tag}>"
