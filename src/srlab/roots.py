"""Root systems of ranks one, two, and four, and their foldings.

Each system is a list of integer root vectors with an integer Gram form.
At construction it tabulates the Gram products, the angles, negation and
the chamber involution, so index operations are lookups and integer
arithmetic.  The roots strictly between two roots are read off the angle
table, once per pair, and their coefficients follow from the sine rule.
Exact values over sqrt(2) or sqrt(3) appear only in those coefficients and
in the unit vectors, which folding uses.  Folding glues each root to its
image under the chamber involution and returns the ray system fixed by it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .errors import ConfigError, UnsupportedAngleError
from .scalar import QuadExt

Vec = tuple[QuadExt, ...]
IntVec = tuple[int, ...]

_ZERO = QuadExt(0)
_ONE = QuadExt(1)
_HALF = QuadExt(Fraction(1, 2))

# (sign of <u, v>, 4 cos^2) -> angle in degrees
_ANGLES = {
    (1, 4): 0, (1, 3): 30, (1, 2): 45, (1, 1): 60, (0, 0): 90,
    (-1, 1): 120, (-1, 2): 135, (-1, 3): 150, (-1, 4): 180,
}
# angle in degrees -> 4 cos^2
_COS2 = {deg: c for (_, c), deg in _ANGLES.items()}


def dot(u: Vec, v: Vec) -> QuadExt:
    return sum((x * y for x, y in zip(u, v)), _ZERO)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(x + y for x, y in zip(u, v))


def same_ray(u: Vec, v: Vec) -> bool:
    """True when u and v point in the same direction (positive multiple)."""
    d = dot(u, v)
    if d.sign() <= 0:
        return False
    return d * d == dot(u, u) * dot(v, v)


def angle_from_gram(g: int, ni: int, nj: int) -> int:
    """Angle in degrees between vectors with product g and squared norms ni, nj."""
    num = 4 * g * g
    angle = _ANGLES.get(((g > 0) - (g < 0), num // (ni * nj)))
    if angle is None or num % (ni * nj):
        raise UnsupportedAngleError(f"no root-system angle has cos^2 {g * g}/{ni * nj}")
    return angle


@functools.lru_cache(maxsize=None)
def _sqrt(r: Fraction) -> QuadExt:
    """Exact square root of a positive rational in Q, Q(sqrt 2) or Q(sqrt 3)."""
    s = r.numerator * r.denominator
    for f in (1, 2, 3):
        root = isqrt(s // f)
        if s % f == 0 and root * root == s // f:
            c = Fraction(root, r.denominator)
            return QuadExt(0, c, f) if f > 1 else QuadExt(c)
    raise ConfigError(f"sqrt({r}) is not in Q(sqrt 2) or Q(sqrt 3)")


@functools.lru_cache(maxsize=None)
def _sine_ratio(a: int, t: int) -> QuadExt:
    """The exact value sin(a)/sin(t) for root-system angles a and t in degrees."""
    return _sqrt(Fraction(4 - _COS2[a], 4 - _COS2[t]))


class RootSystem:
    """A reduced root system given by integer vectors and an integer form.

    `form` is the Gram matrix of the coordinate basis, up to a positive
    factor; `frame` lists that basis in orthonormal coordinates (the
    standard basis when omitted) and only serves the exact unit vectors.
    The chamber involution is the isometry permuting the roots that
    reverses the list `tau_refs`; a root is fixed by its angles to those
    roots, so it is read off the angle table.
    """

    def __init__(
        self,
        kind: str,
        vectors: Sequence[IntVec],
        form: Sequence[Sequence[int]],
        tau_refs: Sequence[int],
        frame: Sequence[Vec] | None = None,
    ) -> None:
        self.kind = kind
        self.count = len(vectors)
        self.tau_refs = list(tau_refs)
        self._vectors = list(vectors)
        self._index = {v: k for k, v in enumerate(vectors)}
        images = [tuple(sum(m * x for m, x in zip(row, v)) for row in form) for v in vectors]
        self._gram = [[sum(a * b for a, b in zip(u, w)) for w in images] for u in vectors]
        norms = [self._gram[k][k] for k in range(self.count)]
        self._norms = norms
        self._angle = [
            [angle_from_gram(g, norms[i], norms[j]) for j, g in enumerate(row)]
            for i, row in enumerate(self._gram)
        ]
        self._neg = [self._index[tuple(-x for x in v)] for v in vectors]
        self._classes = [0 if n == norms[0] else 1 for n in norms]
        self._units = [self._unit_vector(v, frame) for v in vectors]
        self._tau = self._build_involution()
        self._intervals: dict[tuple[int, int], list[tuple[int, QuadExt, QuadExt]]] = {}

    @staticmethod
    def _unit_vector(v: IntVec, frame: Sequence[Vec] | None) -> Vec:
        if frame is None:
            x: Vec = tuple(QuadExt(c) for c in v)
        else:
            x = tuple(dot(tuple(QuadExt(c) for c in v), col) for col in zip(*frame))
        scale = _sqrt(1 / dot(x, x).as_fractions()[0])
        return tuple(c * scale for c in x)

    def _build_involution(self) -> list[int]:
        refs = self.tau_refs
        by_angles = {tuple(row[r] for r in refs): k for k, row in enumerate(self._angle)}
        if len(by_angles) != self.count:
            raise ConfigError("the involution's reference roots do not tell the roots apart")
        tau = []
        for row in self._angle:
            image = by_angles.get(tuple(row[r] for r in reversed(refs)))
            if image is None:
                raise ConfigError("chamber involution does not permute the roots")
            tau.append(image)
        if any(tau[tau[k]] != k for k in range(self.count)):
            raise ConfigError("chamber involution is not an involution")
        return tau

    def unit(self, idx: int) -> Vec:
        return self._units[idx]

    def negate_idx(self, idx: int) -> int:
        return self._neg[idx]

    def reflect_idx(self, mirror: int, idx: int) -> int:
        cartan, rem = divmod(2 * self._gram[idx][mirror], self._norms[mirror])
        if rem:
            raise ValueError("reflection left the root set")
        r = self._vectors[mirror]
        return self._index[tuple(x - cartan * y for x, y in zip(self._vectors[idx], r))]

    def length_class(self, idx: int) -> int:
        return self._classes[idx]

    def chamber_involution_idx(self, idx: int) -> int:
        return self._tau[idx]

    def angle_deg(self, i: int, j: int) -> int:
        return self._angle[i][j]

    def interval(self, i: int, j: int) -> list[tuple[int, QuadExt, QuadExt]]:
        """Roots strictly between root i and root j, closest to i first.

        Each entry is (idx, p, q) with unit(idx) == p*unit(i) + q*unit(j),
        p > 0 and q > 0 exactly.
        """
        out = self._intervals.get((i, j))
        if out is not None:
            return out
        t = self._angle[i][j]
        if t in (0, 180):
            raise ValueError("interval endpoints must not be parallel")
        # root k lies on the arc from i to j when its angles to them add up to t
        angles = zip(range(self.count), self._angle[i], self._angle[j])
        hits = sorted([(a, k) for k, a, b in angles if a + b == t and a and b])
        # sine rule: unit(k) = sin(t-a)/sin(t)*unit(i) + sin(a)/sin(t)*unit(j), a = angle(i, k)
        out = [(k, _sine_ratio(t - a, t), _sine_ratio(a, t)) for a, k in hits]
        self._intervals[(i, j)] = out
        return out

    def interval_pairs(self) -> list[tuple[int, int]]:
        """Ordered non-opposite pairs of distinct roots with a nonempty interval."""
        return [
            (i, j)
            for i in range(self.count)
            for j in range(self.count)
            if i != j and self._angle[i][j] != 180 and self.interval(i, j)
        ]

    def fold(self) -> "FoldedSystem":
        """Glue each root with its chamber-involution image into rays."""
        rays: list[Vec] = []
        projection: dict[int, int] = {}
        for k in range(self.count):
            w = vec_add(self.unit(k), self.unit(self.chamber_involution_idx(k)))
            if all(not x for x in w):
                raise ConfigError("chamber involution negates a root; cannot fold")
            for r, ray in enumerate(rays):
                if same_ray(w, ray):
                    projection[k] = r
                    break
            else:
                projection[k] = len(rays)
                rays.append(w)
        return FoldedSystem(self, rays, projection)


class Rank2System(RootSystem):
    """A dihedral root system with 2n roots, root k at angle k*pi/n.

    `half` lists the roots at angles 0, pi/n, ..., pi - pi/n; the others are
    their negatives.  The chamber involution swaps roots 0 and 1.
    """

    def __init__(
        self,
        kind: str,
        half: Sequence[IntVec],
        form: Sequence[Sequence[int]],
        frame: Sequence[Vec] | None = None,
    ) -> None:
        self.n = len(half)
        vectors = list(half) + [tuple(-x for x in v) for v in half]
        super().__init__(kind, vectors, form, (0, 1), frame)

    def position_root(self, pos: int) -> int:
        """Root at word position pos (1-based); positions 1..n are positive."""
        if not 1 <= pos <= self.n:
            raise ValueError(f"position must be in 1..{self.n}, got {pos}")
        return (pos - self.n // 2) % self.count

    def root_position(self, idx: int) -> int | None:
        """Inverse of position_root, or None for a negative root."""
        pos = (idx + self.n // 2 - 1) % self.count + 1
        return pos if 1 <= pos <= self.n else None


class F4System(RootSystem):
    """The 48 roots of the rank-4 system with two root lengths, scaled by 2:
    24 long roots 2(+-e_i +- e_j) and 24 short roots 2(+-e_i) and
    (+-1, +-1, +-1, +-1).  The chamber involution reverses its simple roots,
    listed long, long, short, short."""

    def __init__(self) -> None:
        def basis(i: int, val: int) -> IntVec:
            return tuple(val if k == i else 0 for k in range(4))

        vectors: list[IntVec] = []
        for i in range(4):
            for j in range(i + 1, 4):
                for si in (2, -2):
                    for sj in (2, -2):
                        vectors.append(tuple(a + b for a, b in zip(basis(i, si), basis(j, sj))))
        for i in range(4):
            for s in (2, -2):
                vectors.append(basis(i, s))
        for mask in range(16):
            vectors.append(tuple(-1 if mask & (1 << k) else 1 for k in range(4)))
        simple_roots = ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))
        simple = [vectors.index(v) for v in simple_roots]
        identity = [[int(a == b) for b in range(4)] for a in range(4)]
        super().__init__("F4", vectors, identity, simple)


def _cyclic_cmp_key(coords: Sequence[tuple[QuadExt, QuadExt]]):
    """Sort key for rays by angle from the first basis direction."""

    def half(xy: tuple[QuadExt, QuadExt]) -> int:
        x, y = xy
        sy = y.sign()
        if sy > 0 or (sy == 0 and x.sign() > 0):
            return 0
        return 1

    def cmp(i: int, j: int) -> int:
        a, b = coords[i], coords[j]
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        return -cross.sign()

    return functools.cmp_to_key(cmp)


class FoldedSystem:
    """Rays obtained by gluing roots along the chamber involution."""

    def __init__(self, parent: RootSystem, rays: list[Vec], projection: dict[int, int]) -> None:
        # order the rays by angle within the fixed plane of the involution
        basis = self._fixed_basis(parent)
        coords = [self._plane_coords(w, basis) for w in rays]
        order = sorted(range(len(rays)), key=_cyclic_cmp_key(coords))
        rank = {old: new for new, old in enumerate(order)}
        self.rays = [rays[k] for k in order]
        self.projection = {root: rank[r] for root, r in projection.items()}
        self.count = len(self.rays)
        mult = [0] * self.count
        for r in self.projection.values():
            mult[r] += 1
        self.multiplicities = mult
        # every exact product of two rays, read by the angle and reflection checks
        self.gram = [[dot(u, v) for v in self.rays] for u in self.rays]
        self.kind = "I8" if self.count == 16 else "A1"
        if self.kind == "A1" and self.count != 2:
            raise ConfigError(f"unexpected folded ray count {self.count}")

    @staticmethod
    def _fixed_basis(parent: RootSystem) -> tuple[Vec, Vec]:
        if isinstance(parent, Rank2System):
            return (_ONE, _ZERO), (_ZERO, _ONE)
        # the first two simple roots plus their images span the fixed plane
        unit, tau = parent.unit, parent.chamber_involution_idx
        e, f = (vec_add(unit(r), unit(tau(r))) for r in parent.tau_refs[:2])
        return e, f

    @staticmethod
    def _plane_coords(w: Vec, basis: tuple[Vec, Vec]) -> tuple[QuadExt, QuadExt]:
        """Coordinates of w's projection in the basis (e, f), by Cramer's rule."""
        e, f = basis
        ee, ef, ff = dot(e, e), dot(e, f), dot(f, f)
        we, wf = dot(w, e), dot(w, f)
        det = ee * ff - ef * ef
        return (we * ff - wf * ef) / det, (wf * ee - we * ef) / det

    def ray(self, idx: int) -> Vec:
        return self.rays[idx % self.count]

    def multiplicity(self, idx: int) -> int:
        return self.multiplicities[idx % self.count]

    def reflect_idx(self, mirror: int, idx: int) -> int:
        return (2 * mirror + self.count // 2 - idx) % self.count

    def cos2_between(self, i: int, j: int) -> QuadExt:
        """Exact squared cosine between rays i and j."""
        g, i, j = self.gram, i % self.count, j % self.count
        return (g[i][j] * g[i][j]) / (g[i][i] * g[j][j])

    def preimages(self, idx: int) -> list[int]:
        idx %= self.count
        return sorted(k for k, r in self.projection.items() if r == idx)


_ID2 = [[1, 0], [0, 1]]
# hexagonal coordinates: basis vectors of equal length at 60 degrees
_HEX_FRAME = ((_ONE, _ZERO), (_HALF, QuadExt(0, Fraction(1, 2), 3)))


@functools.cache
def get_system(kind: str) -> RootSystem:
    """Shared instance of the root system named A1, B2, G2, or F4."""
    if kind == "A1":
        return Rank2System("A1", [(1, 0)], _ID2)
    if kind == "B2":
        return Rank2System("B2", [(1, 0), (1, 1), (0, 1), (-1, 1)], _ID2)
    if kind == "G2":
        half = [(1, 0), (1, 1), (0, 1), (-1, 2), (-1, 1), (-2, 1)]
        return Rank2System("G2", half, [[2, 1], [1, 2]], _HEX_FRAME)
    if kind == "F4":
        return F4System()
    raise ConfigError(f"unknown root system kind {kind!r}")
