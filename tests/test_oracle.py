import random
from fractions import Fraction

from bgb.oracle import (buchberger, ideal_degree, is_zero_dimensional,
                        normal_form, primary_at_origin_oracle)
from bgb.rings import QQ, GF, BiPoly
from conftest import gb_equal, pp, ppl, random_bipoly

F5 = GF(5)
F7 = GF(7)


def test_buchberger_examples():
    assert gb_equal(buchberger(ppl("y - x\nx^2", QQ)), ppl("y - x\nx^2", QQ))
    assert gb_equal(buchberger(ppl("y^2 - x\nx^2 - y", QQ)),
                    ppl("y - x^2\nx^4 - x", QQ))
    assert gb_equal(buchberger(ppl("y\ny + 1", QQ)), [pp("1", QQ)])
    # (generators, reduced basis), the same over Q and over F_7
    cases = [
        ("1\nx", "1"),                                  # unit ideal
        ("x - 1\nx - 2", "1"),
        ("y^2 - 1\n2*y^2 + y - 3", "y - 1"),            # free of x
        ("x^2 - 1\nx^3 - 1", "x - 1"),                  # free of y
        ("x^2 - 3\ny^2 - 2", "y^2 - 2\nx^2 - 3"),
        ("x^2 + y - 1\nx^2 + y - 1", "y + x^2 - 1"),    # duplicated
        ("0\ny - x\n0\nx^2", "y - x\nx^2"),           # zero generators
        # negative and non-primitive leading coefficients
        ("-2*y + 4*x\n3*x^2 - 6", "y - 2*x\nx^2 - 2"),
        ("-2*y^2 + 2*x\n3*x^2 - 3*y", "y - x^2\nx^4 - x"),
        ("6*y^2 - 4*x\n-9*x^2 + 6*y", "2*y - 3*x^2\n27*x^4 - 8*x"),
    ]
    for K in (QQ, F7):
        for gens, want in cases:
            want = [g.monic() for g in ppl(want, K)]
            assert gb_equal(buchberger(ppl(gens, K)), want), (gens, K)
    # non-monic over F_7: 3y - x -> y - 5x, 2x^2 - 1 -> x^2 - 4
    assert gb_equal(buchberger(ppl("3*y - x\n2*x^2 - 1", F7)),
                    ppl("y - 5*x\nx^2 - 4", F7))


def _random_poly(rng, K, max_dx, max_dy, density=0.7):
    return random_bipoly(rng, K, max_dx, max_dy, density=density,
                         bound=9 if K is QQ else None)


def test_normal_form_examples():
    for K in (QQ, F7):
        G = ppl("y - x\nx^2", K)
        assert normal_form(pp("x^2", K), G).is_zero
        G2 = ppl("y - x^2\nx^4 - x", K)
        assert normal_form(pp("y^2", K), G2) == pp("x", K)
        assert normal_form(pp("x", K), ppl("y\nx^2", K)) == pp("x", K)
        # G as non-monic (over Q also non-primitive) multiples of itself
        G3 = ppl("-6*y + 6*x^2\n4*x^4 - 4*x", K)
        assert normal_form(pp("y^2", K), G3) == pp("x", K)
        assert normal_form(pp("3*y^3 + 2*x*y", K), G3) == pp("5*x^3", K)

    # for r = nf(f, G): no term of r lies above lt(G), f - r is in the
    # ideal and r is its own normal form; a wrong scalar over Q fails this
    rng = random.Random(62)
    for K in (QQ, F7):
        for _ in range(10):
            F = [_random_poly(rng, K, 2, 2) for _ in range(2)]
            if any(f.is_zero for f in F):
                continue
            G = buchberger(F)
            scales = [K.of(-6), K.of(Fraction(3, 4)) if K is QQ else K.of(3)]
            Gs = [g * BiPoly.const(K, scales[i % 2]) for i, g in enumerate(G)]
            f = _random_poly(rng, K, 3, 3)
            r = normal_form(f, Gs)
            lts = [g.lt()[0] for g in G]
            assert not any(a <= m and b <= n for (m, n), _ in r.terms()
                           for a, b in lts)
            assert normal_form(f - r, Gs).is_zero
            assert normal_form(r, Gs) == r


def test_reducedness_and_minimality():
    for K in (F5, QQ):
        rng = random.Random(60)
        for _ in range(20):
            F = [_random_poly(rng, K, 2, 2) for _ in range(2)]
            if any(f.is_zero for f in F):
                continue
            G = buchberger(F)
            if not G:
                continue
            lts = [g.lt()[0] for g in G]
            for i, g in enumerate(G):
                assert g.lt()[1] == K.one  # monic
                for (a, b), _ in g.terms():
                    for j, (m, n) in enumerate(lts):
                        if (a, b) == g.lt()[0]:
                            assert not (j != i and m <= a and n <= b)
                        else:
                            assert not (m <= a and n <= b)
            # normal form of g against the others keeps its leading term
            for i, g in enumerate(G):
                others = G[:i] + G[i + 1:]
                assert normal_form(g, others).lt() == g.lt()


def test_ideal_membership_consistency():
    for K in (F5, QQ):
        rng = random.Random(61)
        for _ in range(15):
            F = [_random_poly(rng, K, 2, 2) for _ in range(2)]
            if any(f.is_zero for f in F):
                continue
            G = buchberger(F)
            q = [_random_poly(rng, K, 2, 1, density=0.8) for _ in range(2)]
            combo = q[0] * F[0] + q[1] * F[1]
            assert normal_form(combo, G).is_zero


def test_primary_oracle_examples():
    F = ppl("y - x^2\nx^3 - x^2", QQ)
    assert gb_equal(primary_at_origin_oracle(F, 3), ppl("y\nx^2", QQ))
    assert gb_equal(primary_at_origin_oracle(ppl("x\ny", QQ), 1), ppl("y\nx", QQ))
    assert gb_equal(primary_at_origin_oracle(ppl("x - 1\ny - 1", QQ), 1),
                    [pp("1", QQ)])


def test_zero_dimensional_predicate():
    assert is_zero_dimensional(ppl("y - x\nx^2", QQ))
    assert not is_zero_dimensional([pp("x^2", QQ)])
    assert not is_zero_dimensional([pp("y*x", QQ), pp("x^2", QQ)])
    assert is_zero_dimensional([pp("1", QQ)])


def test_ideal_degree():
    assert ideal_degree(ppl("y - x^2\nx^4 - x", QQ)) == 4
    assert ideal_degree(ppl("y\nx", QQ)) == 1
    assert ideal_degree(ppl("y^2\nx*y\nx^2", QQ)) == 3
