import math
import random

import pytest
from fractions import Fraction

from bgb.rings import (ZZ, QQ, GF, BiPoly, UniPoly, NonInvertibleError,
                       height, int_to_str, reduce_mod, str_to_int)
from conftest import pp, random_bipoly

RINGS = [ZZ, QQ, GF(5), GF(32003)]


def _rand_elem(rng, ring):
    if ring is ZZ:
        return rng.randint(-50, 50)
    if ring is QQ:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    return rng.randrange(ring.p)


@pytest.mark.parametrize("ring", RINGS)
def test_ring_axioms(ring):
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (_rand_elem(rng, ring) for _ in range(3))
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.mul(a, ring.one) == a


@pytest.mark.parametrize("ring", [QQ, GF(5), GF(32003)])
def test_field_inverses(ring):
    rng = random.Random(3)
    for _ in range(100):
        a = _rand_elem(rng, ring)
        if a == ring.zero:
            continue
        assert ring.mul(a, ring.inv(a)) == ring.one
    with pytest.raises(NonInvertibleError):
        ring.inv(ring.zero)


def test_height_examples():
    assert height(1) == 0.0
    assert abs(height(-8) - math.log(8)) < 1e-12
    assert abs(height(Fraction(3, 7)) - math.log(7)) < 1e-12
    assert abs(height(pp("3*x - 7*y")) - math.log(7)) < 1e-12
    with pytest.raises(ValueError):
        height(0)
    with pytest.raises(ValueError):
        height(BiPoly.zero(ZZ))


def test_height_multiplicative_bound():
    rng = random.Random(5)
    for _ in range(60):
        f = random_bipoly(rng, ZZ, 3, 3, bound=9)
        if f.is_zero:
            continue
        c = rng.randint(2, 50)
        nterms = sum(1 for _ in f.terms())
        assert height(f.scale(c)) <= height(c) + height(f) + math.log(nterms) + 1e-9


def test_reduce_mod_examples():
    assert reduce_mod(pp("x^2 - y"), GF(5)) == pp("x^2 + 4*y", GF(5))
    # leading row vanishes: 2y^2 - x mod 2 = x
    assert reduce_mod(pp("2*y^2 - x"), GF(2)) == pp("x", GF(2))
    assert reduce_mod(pp("7*x + 3"), GF(7)) == pp("3", GF(7))


def test_poly_arithmetic_examples():
    assert pp("y - x") * pp("y + x") == pp("y^2 - x^2")
    q, r = pp("x^3", QQ).rows[0].divrem(pp("x^2 - 1", QQ).rows[0])
    assert q == pp("x", QQ).rows[0] and r == pp("x", QQ).rows[0]
    # the divisor 2*x has a non-unit leading coefficient over Z
    with pytest.raises(NonInvertibleError):
        UniPoly(ZZ, (0, 0, 1)).divrem(UniPoly(ZZ, (0, 2)))


def test_divrem_law():
    rng = random.Random(13)
    F = GF(101)
    for _ in range(100):
        f = UniPoly(F, [rng.randrange(101) for _ in range(rng.randint(0, 8))])
        g = UniPoly(F, [rng.randrange(101) for _ in range(rng.randint(1, 5))])
        if g.is_zero:
            continue
        q, r = f.divrem(g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_zero_poly_degree_errors():
    z = BiPoly.zero(QQ)
    with pytest.raises(ValueError):
        z.deg_y
    with pytest.raises(ValueError):
        z.deg_x


def test_bipoly_eval_and_str():
    f = pp("2*x*y - 3")
    assert f.eval(2, 5) == 17
    assert str(f) == "2*x*y - 3"
    assert str(pp("x^4 - 2*y")) == "-2*y + x^4"  # decreasing lex, y major
    assert str(pp("x^4 - y*y")) == "-y^2 + x^4"
    assert str(BiPoly.zero(ZZ)) == "0"
    # coefficients past CPython's 4300-digit int <-> str limit
    num, den = 10 ** 5000 + 1, 3 ** 9000
    f = BiPoly.from_terms(QQ, {(1, 0): 1, (0, 0): Fraction(-num, den)})
    assert str(f) == "x - 1" + "0" * 4999 + "1/" + int_to_str(den)


def test_int_str_conversions():
    rng = random.Random(13)
    for digits in (1, 9, 4000, 4001, 4300, 4301, 9000, 20000):
        s = str(rng.randint(1, 9)) + "".join(
            rng.choice("0123456789") for _ in range(digits - 1))
        n = str_to_int(s)
        assert n.bit_length() >= 3 * (digits - 1)
        assert int_to_str(n) == s and int_to_str(-n) == "-" + s
        if digits <= 4300:
            assert n == int(s)
    assert str_to_int("0" * 5000 + "12") == 12
    assert int_to_str(10 ** 8000) == "1" + "0" * 8000


def test_unipoly_inverse_mod_xk():
    F = GF(7)
    rng = random.Random(2)
    for _ in range(40):
        k = rng.randint(1, 6)
        coeffs = [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(k - 1)]
        u = UniPoly(F, coeffs)
        v = u.inverse_mod_xk(k)
        assert (u * v).truncate(k) == UniPoly(F, (1,))
