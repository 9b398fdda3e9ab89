"""Buchberger reference implementation for lex (x < y) over Q or F_p.

Deliberately plain, with one copy of each piece for both fields: one
S-polynomial, one top-to-bottom reduction, one pair loop (normal selection,
coprime-leading-term criterion), then interreduction to the unique reduced
minimal basis.  Working elements are dicts of Python ints, where p is the
characteristic: over F_p (p > 0) they are monic residues, and over Q (p = 0)
primitive integer polynomials with a positive leading coefficient.  Over Q
the arithmetic is fraction-free, since a Fraction per term costs a gcd at
every operation.  Reduction scales by a reducer's leading coefficient and
divides out the content instead, and carries one rational scalar so that a
normal form stays exact.  The reduction takes terms in decreasing lex order
from a heap, so it never searches for a leading term.  This is the trusted
baseline the engine modules are tested against; it imports nothing from
them, so clarity beats speed.  Use it only at desk scale.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import chain

from .rings import BiPoly, PrimeField, RationalField


def _char(ring):
    if isinstance(ring, PrimeField):
        return ring.p
    assert isinstance(ring, RationalField), "the oracle works over Q or F_p"
    return 0


def _ints(f, p):
    """f as a dict of ints and the scalar it carries: f = s * dict."""
    d = dict(f.terms())
    if p:
        return d, 1
    den = math.lcm(*(c.denominator for c in d.values()))
    P = {m: c.numerator * (den // c.denominator) for m, c in d.items()}
    return P, Fraction(1, den)


def _from_ints(ring, d, s):
    return BiPoly.from_terms(ring, {m: c * s for m, c in d.items()})


def _divides(m1, m2):
    return m1[0] <= m2[0] and m1[1] <= m2[1]


def _element(f, p):
    """The nonzero polynomial f as a normalized (dict, lt) working element."""
    return _normalize(_ints(f, p)[0], p)


def _normalize(d, p):
    """(canonical associate of the nonzero dict d, its leading monomial):
    monic over F_p, primitive with a positive leading coefficient over Z."""
    lt = max(d, key=lambda mn: (mn[1], mn[0]))
    if p:
        inv = pow(d[lt], -1, p)
        return {m: c * inv % p for m, c in d.items()}, lt
    cont = math.gcd(*d.values())
    if d[lt] < 0:
        cont = -cont
    return {m: c // cont for m, c in d.items()}, lt


def _spoly(f, g, p):
    """Fraction-free S-polynomial lc(g)*m_f*f - lc(f)*m_g*g (mod p), with
    both leading coefficients divided by their gcd first."""
    (fd, flt), (gd, glt) = f, g
    lcm = (max(flt[0], glt[0]), max(flt[1], glt[1]))
    lf, lg = fd[flt], gd[glt]
    h = math.gcd(lf, lg)
    lf, lg = lf // h, lg // h
    out = {(a + lcm[0] - flt[0], b + lcm[1] - flt[1]): c * lg
           for (a, b), c in fd.items()}
    for (a, b), c in gd.items():
        tgt = (a + lcm[0] - glt[0], b + lcm[1] - glt[1])
        out[tgt] = out.get(tgt, 0) - c * lf
    if p:
        out = {m: c % p for m, c in out.items()}
    return {m: c for m, c in out.items() if c}


def _reduce(P, reducers, p):
    """Full reduction of the int dict P by normalized (dict, lt) reducers,
    each term going to the first reducer whose leading monomial divides it.

    Returns (r, s): the remainder is s * r, with s = 1 over F_p.  Terms are
    popped in decreasing lex order from a heap that holds each monomial
    once: a reduction step adds only monomials below the one it removes,
    so a monomial never comes back once popped."""
    P = dict(P)
    heap = [(-b, -a) for a, b in P]
    heapq.heapify(heap)
    out = {}
    s = 1
    while heap:
        nb, na = heapq.heappop(heap)
        mon = (-na, -nb)
        c = P.pop(mon)
        if not c:
            continue
        for gd, glt in reducers:
            if glt[0] <= -na and glt[1] <= -nb:
                break
        else:
            out[mon] = c
            continue
        l = gd[glt]
        if l != 1:  # over Z only: scale by l, then divide out the content
            h = math.gcd(l, c)
            l, c = l // h, c // h
            if l != 1:
                for m in P:
                    P[m] *= l
                for m in out:
                    out[m] *= l
                s = Fraction(s, l)
        da, db = -na - glt[0], -nb - glt[1]
        for (a, b), gc in gd.items():
            if (a, b) == glt:
                continue
            tgt = (a + da, b + db)
            if tgt not in P:
                heapq.heappush(heap, (-tgt[1], -tgt[0]))
            nv = P.get(tgt, 0) - c * gc
            P[tgt] = nv % p if p else nv
        if l != 1:
            cont = 0
            for v in chain(P.values(), out.values()):
                cont = math.gcd(cont, v)
                if cont == 1:
                    break
            if cont > 1:
                P = {m: v // cont for m, v in P.items()}
                out = {m: v // cont for m, v in out.items()}
                s *= cont
    return out, s


def normal_form(f, G):
    """Remainder of f under multivariate division by the basis G."""
    p = _char(f.ring)
    reducers = [_element(g, p) for g in G if not g.is_zero]
    P, s = _ints(f, p)
    r, t = _reduce(P, reducers, p)
    return _from_ints(f.ring, r, s * t)


def buchberger(F):
    """The reduced minimal lexicographic Groebner basis of <F>, x < y.

    Plain Buchberger over Q or F_p with the coprime criterion and normal
    pair selection (smallest lcm first, by total degree and then lex),
    which keeps intermediate elements small.  It stops once the element
    added last is a constant, since the unit ideal's reduced basis is [1]."""
    ring = F[0].ring
    p = _char(ring)
    G = []
    heap = []

    def add(g):
        j = len(G)
        glt = g[1]
        for i, (_, flt) in enumerate(G):
            lcm = (max(flt[0], glt[0]), max(flt[1], glt[1]))
            heapq.heappush(heap, (lcm[0] + lcm[1], lcm[1], lcm[0], i, j))
        G.append(g)

    for f in F:
        if not f.is_zero:
            add(_element(f, p))
    while heap and G[-1][1] != (0, 0):
        _, _, _, i, j = heapq.heappop(heap)
        flt, glt = G[i][1], G[j][1]
        # first Buchberger criterion: coprime leading terms reduce to zero
        if min(flt[0], glt[0]) == 0 and min(flt[1], glt[1]) == 0:
            continue
        r, _ = _reduce(_spoly(G[i], G[j], p), G, p)
        if r:
            add(_normalize(r, p))
    return _interreduce(ring, G, p)


def _interreduce(ring, G, p):
    """Reduced minimal basis from normalized (dict, lt) elements of a
    Groebner basis, sorted by decreasing leading monomial."""
    minimal = []
    for d, lt in G:
        if not any(_divides(olt, lt) for _, olt in G if olt != lt):
            if all(olt != lt for _, olt in minimal):
                minimal.append((d, lt))
    reduced = []
    for d, lt in minimal:
        tail = dict(d)
        l = tail.pop(lt)
        r, s = _reduce(tail, [h for h in minimal if h[1] != lt], p)
        if l != 1:
            s = Fraction(s, l)
        lead = BiPoly.monomial(ring, ring.one, lt[0], lt[1])
        reduced.append((lt, lead + _from_ints(ring, r, s)))
    reduced.sort(key=lambda e: (e[0][1], e[0][0]), reverse=True)
    return [g for _, g in reduced]


def interreduce(basis):
    """Minimalize and reduce: the canonical form of a Groebner basis."""
    ring = basis[0].ring
    p = _char(ring)
    G = [_element(g, p) for g in basis if not g.is_zero]
    return _interreduce(ring, G, p)


def primary_at_origin_oracle(F, d):
    """Basis of the <x, y>-primary component, via F plus x^(d^2), y^(d^2)."""
    ring = F[0].ring
    e = d * d
    gens = list(F) + [BiPoly.monomial(ring, ring.one, e, 0),
                      BiPoly.monomial(ring, ring.one, 0, e)]
    return buchberger(gens)


def is_zero_dimensional(G):
    """A reduced lex basis cuts out finitely many points iff it contains a
    pure x polynomial and a polynomial monic in y."""
    if not G:
        return False
    if any(g.lt()[0] == (0, 0) for g in G):
        return True  # unit ideal: empty variety, trivially finite
    has_pure_x = any(g.lt()[0][1] == 0 for g in G)
    has_monic_y = any(g.lt()[0][0] == 0 and g.lt()[0][1] > 0 for g in G)
    return has_pure_x and has_monic_y


def ideal_degree(G):
    """Number of standard monomials under the basis staircase."""
    lts = [g.lt()[0] for g in G]
    n0 = max(b for _, b in lts)
    count = 0
    for b in range(n0):
        ms = [a for a, bb in lts if bb <= b]
        if not ms:
            continue
        count += min(ms)
    return count
