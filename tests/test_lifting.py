import math
import random
from fractions import Fraction

import pytest

from bgb import oracle
from bgb.lifting import (_MAX_CELLS, LiftState, UnluckyPrimeError, _ModRREF,
                         init_lift, lift_step,
                         rational_reconstruct, reconstruct_basis, staircase_of,
                         verify_with_witness)
from bgb.rings import ZZ, QQ, GF, BiPoly, Zpk, reduce_mod
from conftest import gb_equal, pp, ppl, random_degree_system


def _modular_gb(F, p):
    return oracle.buchberger([reduce_mod(f, GF(p)) for f in F])


class _RefRREF:
    """Pure-Python reduced row echelon form mod p with the row transform T:
    the reference the numpy kernel must match exactly."""

    def __init__(self, rows, p):
        self.p = p
        self.R = R = len(rows)
        self.C = C = len(rows[0]) if rows else 0
        A = [[x % p for x in row] + [0] * R for row in rows]
        for i in range(R):
            A[i][C + i] = 1
        pivcols = []
        r = 0
        for c in range(C):
            if r == R:
                break
            s = next((i for i in range(r, R) if A[i][c]), None)
            if s is None:
                continue
            A[r], A[s] = A[s], A[r]
            inv = pow(A[r][c], -1, p)
            if inv != 1:
                A[r] = [(x * inv) % p for x in A[r]]
            piv = A[r]
            for i in range(R):
                f = A[i][c]
                if f and i != r:
                    A[i] = [(x - f * y) % p for x, y in zip(A[i], piv)]
            pivcols.append(c)
            r += 1
        self.rank = r
        self.pivcols = pivcols
        self.T = [row[C:] for row in A]

    def transform(self, vec):
        p = self.p
        idx = [j for j, x in enumerate(vec) if x]
        return [sum(self.T[i][j] * vec[j] for j in idx) % p for i in range(self.R)]

    def solve_transformed(self, u):
        p = self.p
        if any(x % p for x in u[self.rank:]):
            return None
        x = [0] * self.C
        for i, c in enumerate(self.pivcols):
            x[c] = u[i] % p
        return x


def _random_matrix(rng, R, C, rank, p):
    """R x C integer matrix of rank at most `rank`, with negative entries,
    entries at least p and entries at least 2^63."""
    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-(1 << 70), 1 << 70)
        if kind == 1:
            return rng.randint(-p, 3 * p)
        return rng.randint(-9, 9)
    basis = [[entry() for _ in range(C)] for _ in range(rank)]
    rows = []
    for _ in range(R):
        coefs = [rng.randint(-3, 3) for _ in range(rank)]
        rows.append([sum(a * b[j] for a, b in zip(coefs, basis)) + p * entry()
                     for j in range(C)])
    return rows


def _assert_kernel_matches(rng, rows, p, vectors=3):
    got, want = _ModRREF(rows, p), _RefRREF(rows, p)
    assert (got.rank, got.pivcols) == (want.rank, want.pivcols)
    assert got.T.tolist() == want.T
    for _ in range(vectors):
        vec = [rng.randint(-(1 << 80), 1 << 80) for _ in range(want.R)]
        u = want.transform(vec)
        assert got.transform(vec) == u
        assert got.solve_transformed(u) == want.solve_transformed(u)
        # a right-hand side in the span is consistent
        x = [rng.randrange(p) for _ in range(want.C)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        u = want.transform(rhs)
        assert got.transform(rhs) == u
        assert got.solve_transformed(u) == want.solve_transformed(u) is not None


@pytest.mark.parametrize("p", [2, 7, (1 << 31) - 1, (1 << 61) - 1, (1 << 100) - 15])
def test_kernel_matches_reference(p):
    rng = random.Random(p % 1000003)
    shapes = [(0, 0), (1, 1), (3, 3), (6, 6), (9, 4), (4, 9), (12, 12),
              (15, 7), (7, 15), (20, 20)]
    for R, C in shapes:
        for rank in sorted({0, min(R, C) // 2, min(R, C)}):
            _assert_kernel_matches(rng, _random_matrix(rng, R, C, rank, p), p)


def test_kernel_matches_reference_near_cell_limit():
    # at the int64 edge p = 2^31 - 1, with as many rows as the cell budget
    # allows; 70 live rows give T rows with dozens of nonzero residues, so
    # T . v overflows int64 unless the dot product splits its operands
    p = (1 << 31) - 1
    rng = random.Random(31)
    C = 60
    R = next(r for r in range(2000, 0, -1) if r * (r + C) <= _MAX_CELLS)
    rows = [[0] * C for _ in range(R)]
    live = _random_matrix(rng, C + 10, C, C, p)
    for i, row in zip(rng.sample(range(R), C + 10), live):
        rows[i] = row
    _assert_kernel_matches(rng, rows, p, vectors=1)


def test_staircase():
    assert staircase_of([(0, 1), (2, 0)]) == [(0, 0), (1, 0)]
    assert staircase_of([(0, 2), (1, 1), (2, 0)]) == [(0, 0), (1, 0), (0, 1)]


def test_init_examples():
    F = ppl("y - x\nx^2")
    st = init_lift(F, 5, _modular_gb(F, 5))
    assert st.staircase == [(0, 0), (1, 0)]
    assert len(st.elements) == 2 and st.k == 1
    # unit ideal: early exit
    F = ppl("y\ny + 1")
    st = init_lift(F, 5, _modular_gb(F, 5))
    assert st.trivial and [str(b) for b in st.basis] == ["1"]
    # inconsistent G1: swap in a basis that is not the basis mod p
    F = ppl("y - x\nx^2")
    bogus = ppl("y - 2*x\nx^2", GF(5))
    with pytest.raises(UnluckyPrimeError):
        init_lift(F, 5, bogus)


def test_lift_e_example():
    F = ppl("2*y^2 - x\nx^2 - y")
    G1 = _modular_gb(F, 7)
    assert gb_equal(G1, ppl("y - x^2\nx^4 + 3*x", GF(7)))  # -1/2 = 3 mod 7
    st = init_lift(F, 7, G1)
    st = lift_step(st)
    assert st.k == 2
    xcoef = st.basis[1].coeff(1, 0)
    assert xcoef == 24  # -1/2 mod 49
    assert (2 * 24) % 49 == 49 - 1


def test_lift_integer_basis_fixed():
    F = ppl("y - x\nx^2")
    st = init_lift(F, 5, _modular_gb(F, 5))
    for _ in range(3):
        st = lift_step(st)
        assert gb_equal([b.map_coeffs(int, ZZ) for b in st.basis], ppl("y + %d*x\nx^2" % (st.ring.modulus - 1)))


def test_lift_p2_divides_denominator():
    F = ppl("2*y^2 - x\nx^2 - y")
    G1 = _modular_gb(F, 2)
    with pytest.raises(UnluckyPrimeError):
        st = init_lift(F, 2, G1)
        for _ in range(4):
            st = lift_step(st)


def _zeros_above_lt(st, size):
    """Every basis element solves the one shared system over the whole
    staircase; its solution is the reduced element, so c vanishes on the
    standard monomials lex-above lt.  Returns how many such zeros it saw."""
    assert len(st.elements) == size  # the benchmark counts digits from it
    seen = 0
    for e in st.elements:
        lt = (e.lt[1], e.lt[0])
        for (a, b), c in zip(st.staircase, e.c):
            if (b, a) > lt:
                assert c == 0
                seen += 1
    return seen


def test_nested_precision_law():
    rng = random.Random(70)
    seen = 0
    for _ in range(6):
        F, G = random_degree_system(rng, 2, 3)
        p = 10007
        G1 = _modular_gb(F, p)
        try:
            st = init_lift(F, p, G1)
        except UnluckyPrimeError:
            continue
        seen += _zeros_above_lt(st, len(G1))
        prev = st
        for _ in range(3):
            nxt = lift_step(prev)
            seen += _zeros_above_lt(nxt, len(G1))
            m_prev = prev.ring.modulus
            for a, b in zip(nxt.basis, prev.basis):
                for mon, coef in b.terms():
                    assert a.coeff(*mon) % m_prev == coef
            prev = nxt
    assert seen  # one system has a staircase monomial above a leading term


def test_fixed_point_law():
    F = ppl("2*y^2 - x\nx^2 - y")
    st = init_lift(F, 7, _modular_gb(F, 7))
    st = lift_step(lift_step(st))
    rec = reconstruct_basis(st)
    assert rec is not None
    ring = st.ring
    from bgb.rings import rational_mod
    for g, gk in zip(rec, st.basis):
        back = g.map_coeffs(lambda c: rational_mod(c, ring), ring)
        assert back == gk


def _box_search(alpha, p, k):
    m = p ** k
    s = math.isqrt(m)
    hits = []
    for theta in range(1, s + 1):
        if theta % p == 0:
            continue
        eta = (theta * alpha) % m
        if eta > m // 2:
            eta -= m
        if 2 * abs(eta) < s and math.gcd(abs(eta), theta) == 1:
            if (eta - theta * alpha) % m == 0:
                hits.append((eta, theta))
    uniq = sorted(set(hits))
    return uniq[0] if len(uniq) == 1 else (uniq and "ambiguous" or None)


def test_rational_reconstruct_examples():
    assert rational_reconstruct(2, 11, 2) == (2, 1)
    assert rational_reconstruct(81, 11, 2) == (1, 3)
    # 2*60 = 120 = -1 mod 121: the admissible box does contain (-1, 2)
    assert _box_search(60, 11, 2) == (-1, 2)
    assert rational_reconstruct(60, 11, 2) == (-1, 2)
    assert rational_reconstruct(0, 11, 2) == (0, 1)
    # residues with no admissible pair fail
    assert _box_search(14, 5, 2) is None
    assert rational_reconstruct(14, 5, 2) is None


def test_rational_reconstruct_against_box_search():
    rng = random.Random(71)
    for _ in range(300):
        p = rng.choice([5, 7, 11])
        k = rng.choice([2, 4])
        alpha = rng.randrange(p ** k)
        want = _box_search(alpha, p, k)
        got = rational_reconstruct(alpha, p, k)
        if want is None or want == "ambiguous":
            assert got is None or want == "ambiguous"
        else:
            assert got == want


def test_reconstruction_threshold_law():
    rng = random.Random(72)
    p = 13
    for _ in range(100):
        eta = rng.randint(-40, 40)
        theta = rng.randint(1, 40)
        g = math.gcd(abs(eta), theta)
        if g:
            eta //= g
            theta //= g
        if theta % p == 0 or g == 0:
            continue
        b = max(math.log(abs(eta)) if eta else 0.0, math.log(theta))
        k = 2
        while p ** (k // 2) <= 2 * math.exp(b):
            k *= 2
        alpha = (eta * pow(theta, -1, p ** k)) % p ** k
        assert rational_reconstruct(alpha, p, k) == (eta, theta)


def _euclid_basis(basis, p, k):
    """reconstruct_basis as one Euclid run per coefficient: the reference."""
    out = []
    for g in basis:
        terms = {}
        for mon, coef in g.terms():
            rec = rational_reconstruct(int(coef), p, k)
            if rec is None:
                return None
            terms[mon] = Fraction(*rec)
        out.append(BiPoly.from_terms(QQ, terms))
    return out


def test_reconstruct_basis_matches_euclid():
    # the shared-denominator shortcut must give exactly what one Euclid run
    # per coefficient gives, on residues of fractions just inside and just
    # outside the reconstruction box and on random residues
    rng = random.Random(74)
    for p in (2, 3, 7, 10007, (1 << 31) - 1):
        for k in (1, 2, 3, 4, 7, 8, 16):
            m = p ** k
            s = math.isqrt(m)

            def fraction_residue(den):
                return rng.randint(-s // 2 - 1, s // 2 + 1) * pow(den, -1, m) % m

            def coprime_den():
                while True:
                    den = rng.randint(1, s + 1)
                    if den % p:
                        return den

            for kind in ("shared", "mixed", "random"):
                for _ in range(12):
                    den = coprime_den()
                    terms = {}
                    for i in range(rng.randint(1, 8)):
                        if kind == "random" or (kind == "mixed" and rng.randrange(2)):
                            terms[(i, 0)] = rng.randrange(m)
                        else:
                            terms[(i, 0)] = fraction_residue(
                                den if rng.randrange(4) else coprime_den())
                    basis = [BiPoly.from_terms(Zpk(p, k), terms)]
                    st = LiftState(p=p, k=k, basis=basis, staircase=[],
                                   trivial=False)
                    assert reconstruct_basis(st) == _euclid_basis(basis, p, k)


def test_verify_with_witness():
    F = ppl("2*y^2 - x\nx^2 - y")
    G = oracle.buchberger([f.map_coeffs(Fraction, QQ) for f in F])
    p2 = 11
    G1p = _modular_gb(F, p2)
    assert verify_with_witness(G, p2, G1p)
    # denominator divisible by the witness prime
    bad = [BiPoly.from_terms(QQ, {(0, 1): 1, (0, 0): Fraction(1, p2)})]
    assert not verify_with_witness(bad, p2, ppl("y", GF(p2)))
    # an early (spurious) reconstruction is rejected: y - 23x at p=5, k=2
    F2 = ppl("y - 23*x\nx^2 - 1")
    st = init_lift(F2, 5, _modular_gb(F2, 5))
    st = lift_step(st)
    rec = reconstruct_basis(st)
    assert rec is not None
    assert rec[0].coeff(1, 0) == 2  # -23 mod 25 = 2 reconstructs small: spurious
    assert not verify_with_witness(rec, 7, _modular_gb(F2, 7))
    # two more doublings recover the true coefficient
    st = lift_step(lift_step(st))
    rec = reconstruct_basis(st)
    assert rec is not None
    assert rec[0].coeff(1, 0) == -23


def test_end_to_end_random_lifts():
    rng = random.Random(73)
    done = 0
    while done < 8:
        F, G_true = random_degree_system(rng, 2, 3)
        p = 32003
        G1 = _modular_gb(F, p)
        try:
            st = init_lift(F, p, G1)
        except UnluckyPrimeError:
            continue
        for _ in range(6):
            st = lift_step(st)
            rec = reconstruct_basis(st)
            if rec is not None and gb_equal(rec, G_true):
                break
        else:
            raise AssertionError("lift did not reach the true basis")
        done += 1
