"""p-adic lifting of a Groebner basis, rational reconstruction, witness test.

The whole basis shares one membership system: "g equals its leading term
plus an unknown combination c of the standard monomials, AND g lies in the
column span of the extended Sylvester matrix of the generators".  The ideal
holds exactly one such element per leading term, the reduced basis element,
so c comes out zero above lt(g) by itself.  The system matrix has integer
entries fixed once; init_lift echelonizes it modulo p, together with one
consistency system over the staircase, and every doubling step runs a
Hensel/Dixon solve (Dixon, Numer. Math. 1982) of the exact residual
against that single factorization, digit by digit, for every element.  A
digit that fails its consistency rows means the prime is unlucky and the
caller restarts with fresh primes.

The lifted basis exists only as these integer vectors: each element is its
leading term plus sum c_m * m over the standard monomials m, with c
canonical mod p^k, and reconstruct_basis reads the basis over Q from c.

All mod-p linear algebra goes through one kernel, _ModRREF: a single numpy
elimination whose dtype is chosen from p, int64 for p < 2^31 (the practical
default) and Python-int objects for larger primes (paper mode, or wider
practical primes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .rings import QQ, BiPoly, GF, rational_mod, NonInvertibleError

_INT64_MAX_P = 1 << 31   # below it, a product of two residues fits int64
_MAX_CELLS = 3_000_000


class UnluckyPrimeError(RuntimeError):
    """The modular data cannot be lifted; restart with a fresh prime."""


def staircase_of(lts):
    """Standard monomials under a zero-dimensional staircase of leading terms."""
    n0 = max(n for _, n in lts)
    out = []
    for b in range(n0):
        ms = [m for m, n in lts if n <= b]
        if not ms:
            raise UnluckyPrimeError("leading terms do not reach y-degree %d" % b)
        for a in range(min(ms)):
            out.append((a, b))
    return out


class _ModRREF:
    """Reduced row echelon form mod p of an integer matrix, with the row
    transform T retained so later right-hand sides reuse the elimination.

    One elimination runs on a numpy array whose dtype follows p: int64 when
    p < 2^31, so that the product of two residues fits a word, and object
    (Python ints) for larger primes."""

    def __init__(self, rows, p):
        self.p = p
        self.dtype = np.int64 if p < _INT64_MAX_P else object
        self.R = R = len(rows)
        self.C = C = len(rows[0]) if R else 0
        A = np.zeros((R, C + R), dtype=self.dtype)
        # reduced as Python ints first: raw entries need not fit a word
        A[:, :C] = np.array(rows, dtype=object).reshape(R, C) % p
        A[np.arange(R), C + np.arange(R)] = 1
        pivcols = []
        r = 0
        for c in range(C):
            if r == R:
                break
            nz = np.flatnonzero(A[r:, c])
            if nz.size == 0:
                continue
            s = r + int(nz[0])
            if s != r:
                A[[r, s]] = A[[s, r]]
            # rows r.. vanish left of column c, so updates start at c
            inv = pow(int(A[r, c]), -1, p)
            if inv != 1:
                A[r, c:] = A[r, c:] * inv % p
            col = A[:, c].copy()
            col[r] = 0
            nzr = np.flatnonzero(col)
            if nzr.size:
                A[nzr, c:] = (A[nzr, c:] - np.outer(col[nzr], A[r, c:])) % p
            pivcols.append(c)
            r += 1
        self.rank = r
        self.pivcols = pivcols
        self.T = A[:, C:]

    def dot(self, M, vec):
        """M . vec mod p for M with entries in [0, p) and this dtype.  In
        int64 vec is split into 16-bit halves, which keeps every partial sum
        below 2^63 while M has fewer than 2^16 columns (a T that wide would
        hold 2^32 words)."""
        p = self.p
        v = (np.array(vec, dtype=object) % p).astype(self.dtype)
        if self.dtype is object:
            return M @ v % p
        return (M @ (v >> 16) % p * 65536 + M @ (v & 0xFFFF)) % p

    def transform(self, vec):
        """T . vec mod p as a list of ints."""
        return self.dot(self.T, vec).tolist()

    def solve_transformed(self, u):
        """Solution x of A x = rhs given u = T . rhs; None if inconsistent."""
        p = self.p
        if any(x % p for x in u[self.rank:]):
            return None
        x = [0] * self.C
        for i, c in enumerate(self.pivcols):
            x[c] = u[i] % p
        return x


@dataclass
class _ElementSystem:
    lt: tuple
    w: list               # cofactor unknowns, canonical mod p^k
    c: list               # staircase unknowns, canonical mod p^k
    rh: list              # exact integer residual (e_lt - M w + C c) / p^k


class _MembershipSystem:
    """The one linear system every basis element solves: [M | -C] (w, c) =
    e_lt, where M is the Sylvester-membership matrix (columns are the
    coefficients of x^a y^b f_j, rows are monomials) and C holds the unit
    columns of the standard monomials.  Its solution is the element of the
    ideal with leading term lt whose other terms lie on the staircase: the
    reduced basis element, so c vanishes above lt by itself."""

    def __init__(self, gens, p, D_w, X, stair):
        self.p = p
        d_y = max(g.deg_y for g in gens)
        self.NX = X + max(g.deg_x for g in gens) + 1
        self.R = (d_y + D_w) * self.NX
        # the (row, coefficient) pairs of each column, x^a y^b f_j
        self.cols = [[((gb + b) * self.NX + ga + a, int(coef))
                      for (ga, gb), coef in gens[j].terms()]
                     for j in range(len(gens))
                     for b in range(D_w)
                     for a in range(X + 1)]
        self.W = len(self.cols)
        rows = [[0] * self.W for _ in range(self.R)]
        for cidx, col in enumerate(self.cols):
            for r, coef in col:
                rows[r][cidx] = coef
        self.rref = rref = _ModRREF(rows, p)
        self.stair_rows = [self.row_of(m) for m in stair]
        self.tcols = rref.T[:, self.stair_rows]
        # consistency rows of T pin c; full column rank makes c unique
        self.small = _ModRREF(self.tcols[rref.rank:], p)

    def row_of(self, mon):
        return mon[1] * self.NX + mon[0]

    def solve_digit(self, rh):
        """Solve M w - C c = rh mod p: c from the consistency rows of
        u = T . rh, then w from its pivot rows once the staircase columns are
        folded in.  Returns (w, c), or None when rh is inconsistent."""
        rref = self.rref
        u = rref.transform(rh)
        c = self.small.solve_transformed(
            self.small.transform([-x for x in u[rref.rank:]]))
        if c is None:
            return None
        up = (np.array(u, dtype=rref.dtype) + rref.dot(self.tcols, c)) % self.p
        w = rref.solve_transformed(up.tolist())
        return None if w is None else (w, c)

    def residual(self, rh, w, c):
        """(rh - M w + C c) / p, exactly; raises if p does not divide it."""
        out = list(rh)
        for col, wj in zip(self.cols, w):
            if wj:
                for r, coef in col:
                    out[r] -= coef * wj
        for r, cm in zip(self.stair_rows, c):
            out[r] += cm
        p = self.p
        for i, x in enumerate(out):
            q, rem = divmod(x, p)
            if rem:
                raise UnluckyPrimeError("membership residual not divisible by p")
            out[i] = q
        return out


@dataclass
class LiftState:
    """The lift at precision p^k.  Basis element i is elements[i].lt plus
    the staircase monomials (in increasing lex order, as staircase_of gives
    them) weighted by elements[i].c, canonical mod p^k; the unit ideal is a
    trivial state with no elements."""
    p: int
    k: int
    staircase: list
    trivial: bool
    sys: object = None
    elements: list = field(default_factory=list)


def init_lift(F, p, G1):
    """Set up the lift at precision k = 1 from the basis G1 of <F> mod p.

    F has integer coefficients; G1 is over GF(p).  Raises UnluckyPrimeError
    when the membership systems cannot be assembled consistently, which is
    also how an inconsistent G1 is detected.
    """
    if len(G1) == 1 and G1[0].lt()[0] == (0, 0):
        return LiftState(p=p, k=1, staircase=[], trivial=True)
    lts = [g.lt()[0] for g in G1]
    if not any(n == 0 for _, n in lts) or not any(
            m == 0 and n > 0 for m, n in lts):
        raise UnluckyPrimeError("modular basis is not zero-dimensional")
    stair = staircase_of(lts)
    n0 = max(n for _, n in lts)
    m_top = max(m for m, _ in lts)
    d_y = max(g.deg_y for g in F)
    d_x = max(g.deg_x for g in F)
    D0 = max(1, d_y, n0 + 1 - d_y)
    X0 = m_top + d_x + 2
    for level in range(4):
        D_w = D0 << level
        X = X0 << level
        R = (d_y + D_w) * (X + d_x + 1)
        if level > 0 and R * (R + len(F) * D_w * (X + 1)) > _MAX_CELLS:
            break
        sys = _MembershipSystem(F, p, D_w, X, stair)
        if sys.small.rank < len(stair):
            continue  # window too narrow to pin the staircase; escalate
        elements = []
        for g in G1:
            lt = g.lt()[0]
            e_lt = [0] * sys.R
            e_lt[sys.row_of(lt)] = 1
            sol = sys.solve_digit(e_lt)
            if sol is None:
                break  # window too narrow to hold the element; escalate
            w, c = sol
            if any(g.coeff(*mon) != coef for mon, coef in zip(stair, c)):
                raise UnluckyPrimeError(
                    "solved element disagrees with the given modular basis")
            elements.append(_ElementSystem(lt, w, c, sys.residual(e_lt, w, c)))
        else:
            return LiftState(p=p, k=1, staircase=stair, trivial=False,
                             sys=sys, elements=elements)
    raise UnluckyPrimeError("membership system inconsistent at every window level")


def lift_step(state):
    """Advance from precision k to 2k: Dixon-solve k more p-adic digits of
    every element's (w, c).  The new c agrees with the old one mod p^k
    (nested-precision law)."""
    if state.trivial:
        return LiftState(p=state.p, k=2 * state.k, staircase=[], trivial=True)
    p, k = state.p, state.k
    sys = state.sys
    pk = p ** k
    mod2 = pk * pk
    new_elements = []
    for elem in state.elements:
        rh = elem.rh
        Dw = [0] * sys.W
        Dc = [0] * len(elem.c)
        scale = 1
        for _ in range(k):
            sol = sys.solve_digit(rh)
            if sol is None:
                raise UnluckyPrimeError("digit inconsistent mod %d" % p)
            dw, dc = sol
            rh = sys.residual(rh, dw, dc)
            for j, x in enumerate(dw):
                if x:
                    Dw[j] += scale * x
            for j, x in enumerate(dc):
                if x:
                    Dc[j] += scale * x
            scale *= p
        new_elements.append(_ElementSystem(
            elem.lt,
            [(a + pk * b) % mod2 for a, b in zip(elem.w, Dw)],
            [(a + pk * b) % mod2 for a, b in zip(elem.c, Dc)],
            rh))
    return LiftState(p=p, k=2 * k, staircase=state.staircase, trivial=False,
                     sys=sys, elements=new_elements)


def rational_reconstruct(alpha, p, k):
    """The unique (eta, theta) with |eta| < p^(k/2)/2, 0 < theta <= p^(k/2),
    gcd(theta, p) = 1, gcd(eta, theta) = 1 and eta = theta * alpha mod p^k;
    None when no such pair exists."""
    m = p ** k
    alpha %= m
    s = math.isqrt(m)  # p^(k/2) for even k
    r0, r1 = m, alpha
    t0, t1 = 0, 1
    while 2 * r1 >= s:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    eta, theta = (r1, t1) if t1 > 0 else (-r1, -t1)
    if theta == 0 or theta > s or 2 * abs(eta) >= s:
        return None
    if math.gcd(theta, p) != 1 or math.gcd(eta, theta) != 1:
        return None
    return eta, theta


def reconstruct_basis(state):
    """Rational reconstruction of every element's staircase coefficients c,
    walked in decreasing lex order below its leading term, whose
    coefficient is 1; None as soon as one coefficient fails.

    The coefficients of one element mostly share their denominators, so
    each is first tried against den, the lcm of the denominators already
    found: two fractions with |numerator| < s/2 and denominator <= s,
    s = isqrt(p^k), that agree mod p^k are equal, so when coef * den mod p^k
    lands in that box it gives the answer without a Euclid run."""
    if state.trivial:
        return [BiPoly.const(QQ, 1)]
    p, k = state.p, state.k
    m = p ** k
    s = math.isqrt(m)
    out = []
    for e in state.elements:
        terms = {e.lt: 1}
        den = 1
        for mon, coef in zip(reversed(state.staircase), reversed(e.c)):
            if not coef:
                continue
            num = coef * den % m
            if num > m // 2:
                num -= m
            if 2 * abs(num) < s and den <= s:
                terms[mon] = Fraction(num, den)
                continue
            rec = rational_reconstruct(coef, p, k)
            if rec is None:
                return None
            terms[mon] = Fraction(rec[0], rec[1])
            den = math.lcm(den, rec[1])
        out.append(BiPoly.from_terms(QQ, terms))
    return out


def verify_with_witness(G_rec, p_prime, G1_prime):
    """True iff every denominator is invertible mod p' and the reduction of
    G_rec equals the witness basis polynomial by polynomial."""
    if len(G_rec) != len(G1_prime):
        return False
    field = GF(p_prime)
    for g, wit in zip(G_rec, G1_prime):
        try:
            red = g.map_coeffs(lambda c: rational_mod(c, field), field)
        except NonInvertibleError:
            return False
        if red != wit:
            return False
    return True
