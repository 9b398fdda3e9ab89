import random
from fractions import Fraction

from bgb import oracle
from bgb.driver import parse_system
from bgb.rings import ZZ, QQ, BiPoly, reduce_mod


def pp(s, ring=ZZ):
    """Parse a single polynomial string over the requested ring."""
    [f] = parse_system(s)
    if ring is ZZ:
        return f
    if ring is QQ:
        return f.map_coeffs(Fraction, QQ)
    return reduce_mod(f, ring)


def ppl(s, ring=ZZ):
    """Parse one polynomial per line."""
    return [pp(line, ring) for line in s.strip().splitlines()]


def random_bipoly(rng, ring, max_dx, max_dy, density=0.8, bound=None):
    terms = {}
    for b in range(max_dy + 1):
        for a in range(max_dx + 1):
            if rng.random() < density:
                if bound is None:
                    c = rng.randrange(ring.p)
                else:
                    c = rng.randint(-bound, bound)
                if c:
                    terms[(a, b)] = c
    return BiPoly.from_terms(ring, terms)


def random_noether_system(rng, field, t, d_y, max_dx, max_tries=200):
    """Random F_p system where f_1 has a nonzero constant y^d_y coefficient
    and the ideal is zero-dimensional (oracle-checked)."""
    for _ in range(max_tries):
        F = []
        for i in range(t):
            f = random_bipoly(rng, field, max_dx, d_y if i == 0 else rng.randint(0, d_y))
            F.append(f)
        lead = dict(F[0].terms()) if not F[0].is_zero else {}
        lead = {mn: c for mn, c in lead.items() if mn[1] < d_y}
        lead[(0, d_y)] = rng.randrange(1, field.p)  # constant y^d_y coefficient
        F[0] = BiPoly.from_terms(field, lead)
        if any(f.is_zero for f in F):
            continue
        G = oracle.buchberger(F)
        if G and oracle.is_zero_dimensional(G):
            return F, G
    raise RuntimeError("could not generate a zero-dimensional Noether system")


def random_degree_system(rng, t, d, bound=10, density=0.65, max_tries=400):
    """Random integer system of total degree <= d, zero-dimensional over Q
    by the Buchberger oracle; returns (F over Z, oracle basis over Q).

    Generators past the second are u*f1 + v*f2 with random linear u, v:
    a third independent random generator nearly always makes the ideal the
    unit ideal, whose basis [1] tests little."""
    for _ in range(max_tries):
        F = []
        for _ in range(min(t, 2)):
            terms = {}
            for b in range(d + 1):
                for a in range(d + 1 - b):
                    if rng.random() < density:
                        c = rng.randint(-bound, bound)
                        if c:
                            terms[(a, b)] = c
            if terms:
                F.append(BiPoly.from_terms(ZZ, terms))
        if len(F) != min(t, 2):
            continue
        for _ in range(t - 2):
            u, v = (_random_linear(rng) for _ in range(2))
            F.append(u * F[0] + v * F[1])
        if any(f.is_zero or f.total_degree < 1 for f in F):
            continue
        FQ = [f.map_coeffs(Fraction, QQ) for f in F]
        G = oracle.buchberger(FQ)
        if G and oracle.is_zero_dimensional(G):
            return F, G
    raise RuntimeError("could not generate a zero-dimensional system")


def _random_linear(rng):
    """a*x + b*y + c with nonzero a, b, c in [-3, 3]."""
    return BiPoly.from_terms(ZZ, {m: rng.choice([-3, -2, -1, 1, 2, 3])
                                  for m in ((1, 0), (0, 1), (0, 0))})


def gb_equal(A, B):
    return len(A) == len(B) and all(a == b for a, b in zip(A, B))
