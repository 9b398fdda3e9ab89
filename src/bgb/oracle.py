"""Buchberger reference implementation for lex (x < y) over a field.

Deliberately plain: S-polynomials with the coprime-leading-term criterion
and full reduction, then interreduction to the unique reduced minimal
basis.  This is the trusted baseline the engine modules are tested
against, so clarity beats speed; use it only at desk scale.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rings import BiPoly, RationalField


def _to_dict(f):
    return {mon: c for mon, c in f.terms()}


def _from_dict(ring, d):
    return BiPoly.from_terms(ring, d) if d else BiPoly.zero(ring)


def _lt(d):
    """Leading monomial of a nonzero term dict, lex with y > x."""
    return max(d, key=lambda mn: (mn[1], mn[0]))


def _divides(m1, m2):
    return m1[0] <= m2[0] and m1[1] <= m2[1]


def _primitive_int(d):
    """Integer dict proportional to d with content 1 and positive lead."""
    den = 1
    for c in d.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    P = {mon: int(c * den) for mon, c in d.items()}
    cont = 0
    for v in P.values():
        cont = math.gcd(cont, v)
    if P[_lt(P)] < 0:
        cont = -cont
    if cont not in (0, 1):
        P = {mon: v // cont for mon, v in P.items()}
    return P


def _nf_rational(fd, reducers):
    """Exact normal form over Q: the working polynomial is an integer dict
    times a rational multiplier, so the inner loop never touches Fractions.
    `reducers` are primitive integer dicts with positive leading terms."""
    if not fd:
        return {}
    den = 1
    for c in fd.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    P = {mon: int(c * den) for mon, c in fd.items()}
    mu = Fraction(1, den)
    out = {}
    while P:
        mon = _lt(P)
        c = P.pop(mon)
        if not c:
            continue
        hit = None
        for gd, glt in reducers:
            if _divides(glt, mon):
                hit = (gd, glt)
                break
        if hit is None:
            out[mon] = c * mu
            continue
        gd, glt = hit
        l = gd[glt]
        da, db = mon[0] - glt[0], mon[1] - glt[1]
        if l != 1:
            for m2 in P:
                P[m2] *= l
            mu /= l
        for (a, b), gc in gd.items():
            if (a, b) == glt:
                continue
            tgt = (a + da, b + db)
            nv = P.get(tgt, 0) - c * gc
            if nv:
                P[tgt] = nv
            else:
                P.pop(tgt, None)
        cont = 0
        for v in P.values():
            cont = math.gcd(cont, v)
            if cont == 1:
                break
        if cont > 1:
            P = {m2: v // cont for m2, v in P.items()}
            mu *= cont
    return out


def normal_form(f, G):
    """Remainder of f under multivariate division by the basis G."""
    ring = f.ring
    if isinstance(ring, RationalField):
        reducers = []
        for g in G:
            if not g.is_zero:
                gd = _primitive_int(_to_dict(g))
                reducers.append((gd, _lt(gd)))
        return _from_dict(ring, _nf_rational(_to_dict(f), reducers))
    gs = [(_to_dict(g), _lt(_to_dict(g))) for g in G if not g.is_zero]
    return _from_dict(ring, _nf_dict(ring, _to_dict(f), gs))


def _nf_int(P, reducers):
    """Top reduction of an integer dict against primitive integer reducers;
    the result is primitive and zero exactly when the true remainder is."""
    P = dict(P)
    out = {}
    while P:
        mon = _lt(P)
        c = P.pop(mon)
        if not c:
            continue
        hit = None
        for gd, glt in reducers:
            if _divides(glt, mon):
                hit = (gd, glt)
                break
        if hit is None:
            out[mon] = c
            continue
        gd, glt = hit
        l = gd[glt]
        da, db = mon[0] - glt[0], mon[1] - glt[1]
        if l != 1:
            for m2 in P:
                P[m2] *= l
            for m2 in out:
                out[m2] *= l
        for (a, b), gc in gd.items():
            if (a, b) == glt:
                continue
            tgt = (a + da, b + db)
            nv = P.get(tgt, 0) - c * gc
            if nv:
                P[tgt] = nv
            else:
                P.pop(tgt, None)
        cont = 0
        for v in P.values():
            cont = math.gcd(cont, v)
            if cont == 1:
                break
        for v in out.values():
            if cont == 1:
                break
            cont = math.gcd(cont, v)
        if cont > 1:
            P = {m2: v // cont for m2, v in P.items()}
            out = {m2: v // cont for m2, v in out.items()}
    if out and out[_lt(out)] < 0:
        out = {m2: -v for m2, v in out.items()}
    return out


def _spoly(ring, fd, gd):
    flt, glt = _lt(fd), _lt(gd)
    lcm = (max(flt[0], glt[0]), max(flt[1], glt[1]))
    out = {}
    finv = ring.inv(fd[flt])
    ginv = ring.inv(gd[glt])
    for (a, b), c in fd.items():
        tgt = (a + lcm[0] - flt[0], b + lcm[1] - flt[1])
        out[tgt] = ring.add(out.get(tgt, ring.zero), ring.mul(c, finv))
    for (a, b), c in gd.items():
        tgt = (a + lcm[0] - glt[0], b + lcm[1] - glt[1])
        nc = ring.sub(out.get(tgt, ring.zero), ring.mul(c, ginv))
        if nc == ring.zero:
            out.pop(tgt, None)
        else:
            out[tgt] = nc
    return {m: c for m, c in out.items() if c != ring.zero}


def _spoly_int(fd, gd):
    """Integer S-polynomial lc(g).shift(f) - lc(f).shift(g), made primitive."""
    flt, glt = _lt(fd), _lt(gd)
    lcm = (max(flt[0], glt[0]), max(flt[1], glt[1]))
    out = {}
    lf, lg = fd[flt], gd[glt]
    for (a, b), c in fd.items():
        tgt = (a + lcm[0] - flt[0], b + lcm[1] - flt[1])
        out[tgt] = out.get(tgt, 0) + c * lg
    for (a, b), c in gd.items():
        tgt = (a + lcm[0] - glt[0], b + lcm[1] - glt[1])
        nv = out.get(tgt, 0) - c * lf
        if nv:
            out[tgt] = nv
        else:
            out.pop(tgt, None)
    cont = 0
    for v in out.values():
        cont = math.gcd(cont, v)
        if cont == 1:
            break
    if cont > 1:
        out = {m: v // cont for m, v in out.items()}
    return out


def _buchberger_rational(F):
    """Buchberger over Q on an integer-primitive working basis; exact monic
    reduction is deferred to the final interreduction."""
    ring = F[0].ring
    basis = []
    for f in F:
        if not f.is_zero:
            basis.append(_primitive_int(_to_dict(f)))
    if not basis:
        return []
    red = [(gd, _lt(gd)) for gd in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        fd, gd = basis[i], basis[j]
        flt, glt = _lt(fd), _lt(gd)
        if flt[0] + glt[0] == max(flt[0], glt[0]) and flt[1] + glt[1] == max(flt[1], glt[1]):
            continue
        r = _nf_int(_spoly_int(fd, gd), red)
        if r:
            basis.append(r)
            red.append((r, _lt(r)))
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    polys = [_from_dict(ring, {m: Fraction(v) for m, v in gd.items()})
             for gd in basis]
    return interreduce(polys)


def _nf_dict(ring, work, gs):
    """Field-coefficient normal form on term dicts against cached reducers."""
    work = dict(work)
    out = {}
    while work:
        mon = _lt(work)
        c = work.pop(mon)
        if c == ring.zero:
            continue
        hit = None
        for gd, glt in gs:
            if _divides(glt, mon):
                hit = (gd, glt)
                break
        if hit is None:
            out[mon] = c
            continue
        gd, glt = hit
        f_scale = ring.mul(c, ring.inv(gd[glt]))
        da, db = mon[0] - glt[0], mon[1] - glt[1]
        for (a, b), gc in gd.items():
            if (a, b) == glt:
                continue
            tgt = (a + da, b + db)
            cur = work.get(tgt, ring.zero)
            nc = ring.sub(cur, ring.mul(f_scale, gc))
            if nc == ring.zero:
                work.pop(tgt, None)
            else:
                work[tgt] = nc
    return out


def buchberger(F):
    """The reduced minimal lexicographic Groebner basis of <F>, x < y.

    Plain Buchberger with the coprime-criterion and normal pair selection
    (smallest lcm first), which keeps intermediate elements small."""
    ring = F[0].ring
    assert ring.is_field, "the oracle works over field coefficients"
    if isinstance(ring, RationalField):
        return _buchberger_rational(F)
    dicts = [_to_dict(f.monic()) for f in F if not f.is_zero]
    if not dicts:
        return []
    import heapq
    gs = [(d, _lt(d)) for d in dicts]

    def push_pairs(heap, upto, j):
        _, glt = gs[j]
        for i in range(upto):
            flt = gs[i][1]
            lcm = (max(flt[0], glt[0]), max(flt[1], glt[1]))
            heapq.heappush(heap, (lcm[0] + lcm[1], lcm[1], lcm[0], i, j))

    heap = []
    for j in range(len(gs)):
        push_pairs(heap, j, j)
    while heap:
        _, _, _, i, j = heapq.heappop(heap)
        fd, flt = gs[i]
        gd, glt = gs[j]
        # first Buchberger criterion: coprime leading terms reduce to zero
        if flt[0] + glt[0] == max(flt[0], glt[0]) and flt[1] + glt[1] == max(flt[1], glt[1]):
            continue
        r = _nf_dict(ring, _spoly(ring, fd, gd), gs)
        if r:
            lc = r[_lt(r)]
            if lc != ring.one:
                inv = ring.inv(lc)
                r = {m: ring.mul(inv, c) for m, c in r.items()}
            gs.append((r, _lt(r)))
            push_pairs(heap, len(gs) - 1, len(gs) - 1)
    return interreduce([_from_dict(ring, d) for d, _ in gs])


def interreduce(basis):
    """Minimalize and reduce: the canonical form of a Groebner basis."""
    ring = basis[0].ring
    items = [(g.lt()[0], g.monic()) for g in basis if not g.is_zero]
    minimal = []
    for lt, g in items:
        if not any(_divides(olt, lt) for olt, _ in items if olt != lt):
            if all(olt != lt for olt, _ in minimal):
                minimal.append((lt, g))
    reduced = []
    for lt, g in minimal:
        others = [h for olt, h in minimal if olt != lt]
        tail = normal_form(g - BiPoly.monomial(ring, ring.one, lt[0], lt[1]), others)
        reduced.append(BiPoly.monomial(ring, ring.one, lt[0], lt[1]) + tail)
    reduced.sort(key=lambda g: (g.lt()[0][1], g.lt()[0][0]), reverse=True)
    return reduced


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
