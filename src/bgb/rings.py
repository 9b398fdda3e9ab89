"""Coefficient rings (Z, Q, F_p, F_p^2) and dense polynomial arithmetic.

Ring elements are plain values: Python ints for Z and for F_p (canonical
representatives in [0, p)), Fraction for Q, pairs for F_p^2.  A ring
object carries the arithmetic; polynomials store their ring next to a
coefficient vector.  Values are immutable after construction.

The zero polynomial is an empty coefficient vector, and degree queries on
it raise, so callers must branch explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class NonInvertibleError(ArithmeticError):
    """Inversion of a non-unit; reducing modulo a prime that divides a
    denominator signals an unlucky prime."""


@dataclass(frozen=True)
class IntegerRing:
    zero = 0
    one = 1

    def of(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a == 1 or a == -1

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        raise NonInvertibleError("%r is not a unit in Z" % (a,))

    def __repr__(self):
        return "ZZ"


@dataclass(frozen=True)
class RationalField:
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NonInvertibleError("division by zero in Q")
        return 1 / a

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """F_p; elements are ints in [0, p)."""

    p: int
    zero = 0
    one = 1

    def of(self, n):
        return n % self.p

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        try:
            return pow(a, -1, self.p)
        except ValueError:
            raise NonInvertibleError("%d is not invertible mod %d" % (a, self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


class QuadraticExtension:
    """Degree-2 extension of F_p, used for rank-profile evaluation points.

    Elements are pairs (a, b) for a + b*w with w^2 = c1*w + c0.  For odd p
    the modulus is w^2 - nu with nu a quadratic non-residue; for p = 2 it
    is w^2 + w + 1.
    """

    zero = (0, 0)
    one = (1, 0)

    def __init__(self, p):
        self.p = p
        if p == 2:
            self.c0, self.c1 = 1, 1
        else:
            nu = 2
            while pow(nu, (p - 1) // 2, p) != p - 1:
                nu += 1
            self.c0, self.c1 = nu, 0

    def of(self, n):
        return (n % self.p, 0)

    def embed(self, a):
        """Lift an F_p element into the extension."""
        return (a % self.p, 0)

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def neg(self, a):
        p = self.p
        return ((-a[0]) % p, (-a[1]) % p)

    def mul(self, a, b):
        p = self.p
        cross = a[0] * b[1] + a[1] * b[0]
        ww = a[1] * b[1]
        return ((a[0] * b[0] + ww * self.c0) % p, (cross + ww * self.c1) % p)

    def is_unit(self, a):
        return a != (0, 0)

    def inv(self, a):
        # Solve (a0 + a1 w)(x + y w) = 1.
        a0, a1 = a
        det = (a0 * (a0 + a1 * self.c1) - a1 * a1 * self.c0) % self.p
        if det == 0:
            raise NonInvertibleError("zero divisor in GF(%d^2)" % self.p)
        d = pow(det, -1, self.p)
        return ((a0 + a1 * self.c1) * d % self.p, (-a1) * d % self.p)

    def __eq__(self, other):
        return isinstance(other, QuadraticExtension) and self.p == other.p

    def __hash__(self):
        return hash(("quadext", self.p))

    def __repr__(self):
        return "GF(%d^2)" % self.p


ZZ = IntegerRing()
QQ = RationalField()


def GF(p):
    return PrimeField(p)


class UniPoly:
    """Dense univariate polynomial in x; coeffs[i] is the x^i coefficient."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        n = len(coeffs)
        zero = ring.zero
        while n and coeffs[n - 1] == zero:
            n -= 1
        self.ring = ring
        self.coeffs = tuple(coeffs[:n])

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def const(cls, ring, c):
        return cls(ring, (ring.of(c),))

    @classmethod
    def x_pow(cls, ring, n, c=1):
        return cls(ring, (ring.zero,) * n + (ring.of(c),))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """x-degree; -1 for the zero polynomial (internal convention)."""
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __add__(self, other):
        assert self.ring == other.ring
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = R.add(out[i], c)
        return UniPoly(R, out)

    def __sub__(self, other):
        assert self.ring == other.ring
        R = self.ring
        a, b = self.coeffs, other.coeffs
        out = list(a) + [R.zero] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = R.sub(out[i], c)
        return UniPoly(R, out)

    def __neg__(self):
        R = self.ring
        return UniPoly(R, [R.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        assert self.ring == other.ring
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly(R, ())
        out = [R.zero] * (len(a) + len(b) - 1)
        add, mul = R.add, R.mul
        for i, ai in enumerate(a):
            if ai == R.zero:
                continue
            for j, bj in enumerate(b):
                out[i + j] = add(out[i + j], mul(ai, bj))
        return UniPoly(R, out)

    def scale(self, c):
        R = self.ring
        if c == R.zero:
            return UniPoly(R, ())
        return UniPoly(R, [R.mul(c, a) for a in self.coeffs])

    def shift(self, n):
        """Multiply by x^n."""
        if not self.coeffs:
            return self
        return UniPoly(self.ring, (self.ring.zero,) * n + self.coeffs)

    def divrem(self, other):
        """Euclidean division; the divisor's leading coefficient must be a unit."""
        assert self.ring == other.ring
        R = self.ring
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        inv_lc = R.inv(other.lc)  # raises NonInvertibleError on non-units
        rem = list(self.coeffs)
        db = other.degree
        q = [R.zero] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == R.zero:
                continue
            f = R.mul(c, inv_lc)
            q[i - db] = f
            for j, bc in enumerate(other.coeffs):
                rem[i - db + j] = R.sub(rem[i - db + j], R.mul(f, bc))
        return UniPoly(R, q), UniPoly(R, rem)

    def __mod__(self, other):
        return self.divrem(other)[1]

    def monic(self):
        if self.is_zero:
            return self
        R = self.ring
        if self.lc == R.one:
            return self
        return self.scale(R.inv(self.lc))

    def eval(self, a, ring=None):
        """Horner evaluation; `ring` lets coefficients embed into an extension."""
        R = ring if ring is not None else self.ring
        emb = (lambda c: c) if ring is None else ring.embed
        acc = R.zero
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, a), emb(c))
        return acc

    def truncate(self, k):
        """Reduce modulo x^k."""
        return UniPoly(self.ring, self.coeffs[:k])

    def valuation(self):
        """Largest v with x^v dividing self; raises on zero."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no x-valuation")
        v = 0
        while self.coeffs[v] == self.ring.zero:
            v += 1
        return v

    def inverse_mod_xk(self, k):
        """Inverse in ring[x]/x^k; the constant term must be a unit."""
        R = self.ring
        if self.is_zero:
            raise NonInvertibleError("zero is not invertible mod x^k")
        u0 = self.coeffs[0]
        i0 = R.inv(u0)
        out = [R.zero] * k
        out[0] = i0
        for n in range(1, k):
            s = R.zero
            for i in range(1, min(n, len(self.coeffs) - 1) + 1):
                s = R.add(s, R.mul(self.coeffs[i], out[n - i]))
            out[n] = R.neg(R.mul(i0, s))
        return UniPoly(R, out)

    def map_coeffs(self, fn, ring):
        return UniPoly(ring, [fn(c) for c in self.coeffs])

    def __repr__(self):
        return "UniPoly(%r, %r)" % (self.ring, list(self.coeffs))


class BiPoly:
    """Dense bivariate polynomial; rows[i] is the UniPoly coefficient of y^i."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        n = len(rows)
        while n and rows[n - 1].is_zero:
            n -= 1
        self.ring = ring
        self.rows = tuple(rows[:n])

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def const(cls, ring, c):
        return cls(ring, (UniPoly(ring, (ring.of(c),)),))

    @classmethod
    def from_terms(cls, ring, terms):
        """Build from a {(x_exp, y_exp): coefficient} mapping."""
        if not terms:
            return cls.zero(ring)
        ny = max(b for (_, b) in terms) + 1
        rows = []
        for b in range(ny):
            nx = [a for (a, bb) in terms if bb == b]
            row = [ring.zero] * (max(nx) + 1 if nx else 0)
            for (a, bb), c in terms.items():
                if bb == b:
                    row[a] = ring.of(c)
            rows.append(UniPoly(ring, row))
        return cls(ring, rows)

    @classmethod
    def monomial(cls, ring, c, a, b):
        rows = [UniPoly.zero(ring)] * b + [UniPoly.x_pow(ring, a, c)]
        return cls(ring, rows)

    @property
    def is_zero(self):
        return not self.rows

    @property
    def deg_y(self):
        if not self.rows:
            raise ValueError("zero polynomial has no y-degree")
        return len(self.rows) - 1

    @property
    def deg_x(self):
        if not self.rows:
            raise ValueError("zero polynomial has no x-degree")
        return max(r.degree for r in self.rows if not r.is_zero)

    @property
    def total_degree(self):
        if not self.rows:
            raise ValueError("zero polynomial has no degree")
        return max(i + r.degree for i, r in enumerate(self.rows) if not r.is_zero)

    def row(self, i):
        if i < len(self.rows):
            return self.rows[i]
        return UniPoly.zero(self.ring)

    def coeff(self, a, b):
        if b >= len(self.rows):
            return self.ring.zero
        r = self.rows[b].coeffs
        return r[a] if a < len(r) else self.ring.zero

    def lt(self):
        """Leading term for lex with y > x: ((x_exp, y_exp), coefficient)."""
        n = self.deg_y
        top = self.rows[n]
        return (top.degree, n), top.lc

    def terms(self):
        """Yield ((x_exp, y_exp), coeff), nonzero only, in decreasing lex order."""
        zero = self.ring.zero
        for b in range(len(self.rows) - 1, -1, -1):
            cs = self.rows[b].coeffs
            for a in range(len(cs) - 1, -1, -1):
                if cs[a] != zero:
                    yield (a, b), cs[a]

    def __eq__(self, other):
        return (isinstance(other, BiPoly) and self.ring == other.ring
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __add__(self, other):
        assert self.ring == other.ring
        a, b = self.rows, other.rows
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, r in enumerate(b):
            out[i] = out[i] + r
        return BiPoly(self.ring, out)

    def __sub__(self, other):
        assert self.ring == other.ring
        z = UniPoly.zero(self.ring)
        n = max(len(self.rows), len(other.rows))
        out = []
        for i in range(n):
            x = self.rows[i] if i < len(self.rows) else z
            y = other.rows[i] if i < len(other.rows) else z
            out.append(x - y)
        return BiPoly(self.ring, out)

    def __neg__(self):
        return BiPoly(self.ring, [-r for r in self.rows])

    def __mul__(self, other):
        assert self.ring == other.ring
        if self.is_zero or other.is_zero:
            return BiPoly.zero(self.ring)
        z = UniPoly.zero(self.ring)
        out = [z] * (len(self.rows) + len(other.rows) - 1)
        for i, ri in enumerate(self.rows):
            if ri.is_zero:
                continue
            for j, rj in enumerate(other.rows):
                if rj.is_zero:
                    continue
                out[i + j] = out[i + j] + ri * rj
        return BiPoly(self.ring, out)

    def scale(self, c):
        if c == self.ring.zero:
            return BiPoly.zero(self.ring)
        return BiPoly(self.ring, [r.scale(c) for r in self.rows])

    def mul_monomial(self, a, b, c=None):
        """Multiply by c * x^a * y^b."""
        if self.is_zero:
            return self
        rows = [UniPoly.zero(self.ring)] * b + [r.shift(a) for r in self.rows]
        out = BiPoly(self.ring, rows)
        if c is not None and c != self.ring.one:
            out = out.scale(c)
        return out

    def monic(self):
        if self.is_zero:
            return self
        _, c = self.lt()
        if c == self.ring.one:
            return self
        return self.scale(self.ring.inv(c))

    def eval(self, a, b):
        """Value at the point (x, y) = (a, b)."""
        R = self.ring
        acc = R.zero
        for r in reversed(self.rows):
            acc = R.add(R.mul(acc, b), r.eval(a))
        return acc

    def map_coeffs(self, fn, ring):
        return BiPoly(ring, [r.map_coeffs(fn, ring) for r in self.rows])

    def __str__(self):
        return format_bipoly(self)

    def __repr__(self):
        return "BiPoly(%r, %s)" % (self.ring, format_bipoly(self))


_DIGIT_CHUNK = 4000    # below CPython's default int <-> str limit of 4300 digits
_CHUNK_BOUND = 10 ** _DIGIT_CHUNK


def int_to_str(n):
    """Decimal string of an int of any length, converted in chunks small
    enough for str()."""
    if n < 0:
        return "-" + int_to_str(-n)
    if n < _CHUNK_BOUND:
        return str(n)
    m = n.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(n, 10 ** m)
    return int_to_str(hi) + int_to_str(lo).zfill(m)


def str_to_int(digits):
    """The int of a decimal digit string of any length, converted in chunks
    small enough for int()."""
    if len(digits) <= _DIGIT_CHUNK:
        return int(digits)
    m = len(digits) // 2
    return str_to_int(digits[:-m]) * 10 ** m + str_to_int(digits[-m:])


def _coeff_str(c):
    if isinstance(c, Fraction):
        num = int_to_str(c.numerator)
        return num if c.denominator == 1 else num + "/" + int_to_str(c.denominator)
    return int_to_str(c) if isinstance(c, int) else str(c)


def format_bipoly(f):
    """Render with terms in decreasing lex order, e.g. 'x^4 - 1/2*x'."""
    if f.is_zero:
        return "0"
    parts = []
    signed = isinstance(f.ring, (IntegerRing, RationalField))
    for (a, b), c in f.terms():
        if signed and c < 0:
            sign, mag = "-", -c
        else:
            sign, mag = "+", c
        factors = []
        if a:
            factors.append("x" if a == 1 else "x^%d" % a)
        if b:
            factors.append("y" if b == 1 else "y^%d" % b)
        if not factors or mag != 1:
            factors.insert(0, _coeff_str(mag))
        parts.append((sign, "*".join(factors)))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, term in parts[1:]:
        out += (" - " if sign == "-" else " + ") + term
    return out


def height(v):
    """Natural-log height: log|n| for ints, max(log|num|, log den) for
    rationals, the max over coefficients for polynomials over Z or Q."""
    if isinstance(v, BiPoly):
        hs = [height(c) for _, c in v.terms()]
        if not hs:
            raise ValueError("height of the zero polynomial is undefined")
        return max(hs)
    if isinstance(v, Fraction):
        if v == 0:
            raise ValueError("height of zero is undefined")
        return max(math.log(abs(v.numerator)), math.log(v.denominator))
    if v == 0:
        raise ValueError("height of zero is undefined")
    return math.log(abs(v))


def reduce_mod(f, ring):
    """Map a BiPoly over Z into a modular ring, trimming vanished rows."""
    return f.map_coeffs(ring.of, ring)


def rational_mod(c, ring):
    """Reduce a Fraction into F_p; raises NonInvertibleError when p divides
    the denominator."""
    return ring.mul(ring.of(c.numerator), ring.inv(ring.of(c.denominator)))
