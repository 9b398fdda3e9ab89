"""Groebner bases from matrix normal forms.

The pipeline is: extended Sylvester matrix -> squarify -> Hermite (or
Howell, mod x^k) normal form -> detaching basis -> minimalization.  A
basis is a plain list of monic BiPoly sorted by strictly decreasing
y-degree; {1} encodes the unit ideal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from . import normal_forms, sylvester
from .rings import BiPoly, UniPoly


class NotZeroDimensionalError(ValueError):
    """The detaching scan found no monic-in-y column."""


class DeltaCase(Enum):
    NOETHER = "noether"
    TWO_GEN = "two_gen"
    GENERAL = "general"


@dataclass(frozen=True)
class DeltaBound:
    case: DeltaCase
    value: int


def delta_bound(case, d, d_y=None):
    """Cofactor-degree window guaranteeing the detaching basis is in the
    Sylvester column span; which bound applies depends on hypotheses."""
    dp = max(d, 3)
    if case is DeltaCase.NOETHER:
        if d_y is None:
            raise ValueError("the Noether-position bound needs d_y")
        return DeltaBound(case, d_y)
    if case is DeltaCase.TWO_GEN:
        return DeltaBound(case, 2 * dp * dp + dp)
    return DeltaBound(case, 16 * dp ** 4 + 2 * dp * dp + 2 * dp)


def detaching_from_hermite(H, d_y, D, up_to=None):
    """Detaching basis read off the nonzero columns of a Hermite form.

    Scans the nonzero columns last to first, stopping at the first
    polynomial monic in y (or at y-degree `up_to` if given); returns
    [A_0, A_1, ...] indexed by y-degree.
    """
    n = d_y + D
    cols = [c for c in H.cols if any(not e.is_zero for e in c)]
    out = []
    for idx in range(len(cols) - 1, -1, -1):
        poly = sylvester.pi_n_inverse(cols[idx], None)
        i = len(out)
        if poly.is_zero or poly.deg_y != i:
            raise NotZeroDimensionalError(
                "expected a column of y-degree %d in the detaching scan" % i)
        out.append(poly)
        if up_to is not None:
            if i == up_to:
                return out
            continue
        top = poly.rows[poly.deg_y]
        if top.degree == 0:  # monic in y: pivot is the constant 1
            return out
    raise NotZeroDimensionalError(
        "no monic-in-y column: ideal not zero-dimensional or D too small")


def minimalize(A):
    """Reduced minimal basis from a detaching basis: drop every entry whose
    leading term is a multiple of another entry's leading term."""
    lts = [a.lt()[0] for a in A]
    keep = []
    for i, lt in enumerate(lts):
        if any(j != i and lts[j][0] <= lt[0] and lts[j][1] <= lt[1] for j in range(len(lts))):
            continue
        keep.append(A[i].monic())
    keep.sort(key=lambda g: g.lt()[0][1], reverse=True)
    return keep


def hermite_groebner_basis(F, D, rng=None):
    """Reduced minimal lex basis of <F> over F_p via the Hermite form of the
    squarified extended Sylvester matrix; needs D >= Delta(F) and D >= d_y."""
    rng = rng if rng is not None else random.Random(0)
    S = sylvester.build_extended_sylvester(F, D)
    for attempt in range(8):
        sq = sylvester.squarify(S, rng)
        H = normal_forms.hermite_form(sq.cols, sq.nrows)
        top = normal_forms.HermiteNF(
            cols=[c[:S.nrows] for c in H.cols], nrows=S.nrows, pivot_rows=[])
        pivots = [r for c in top.cols
                  for r in [normal_forms._first_nonzero(c)] if r is not None]
        if len(pivots) == S.nrows and len(set(pivots)) == S.nrows:
            A = detaching_from_hermite(top, S.d_y, D)
            if A[0].deg_y == 0 and A[0].rows[0].degree == 0:
                return [BiPoly.const(F[0].ring, 1)]  # unit ideal
            return minimalize(A)
        # rank profile was wrong for this evaluation point; resample
    raise NotZeroDimensionalError(
        "Hermite form shows a rank-deficient Sylvester matrix")


def howell_groebner_basis(F, k, D):
    """Reduced minimal lex basis of <F, x^k> over F_p, from the Howell form
    of the extended Sylvester matrix reduced mod x^k."""
    S = sylvester.build_extended_sylvester(F, D)
    ring = S.ring
    cols_mod = [[e.truncate(k) for e in col] for col in S.cols]
    B = normal_forms.howell_form(cols_mod, S.nrows, k)
    lifted = [[UniPoly(ring, e.coeffs) for e in col] for col in B.cols
              if any(not e.is_zero for e in col)]
    n = S.nrows
    if lifted:
        r = next(i for i, e in enumerate(lifted[-1]) if not e.is_zero)
    else:
        r = -1  # everything vanished mod x^k; only the x^k multiples remain
    zero = UniPoly.zero(ring)
    xk = UniPoly.x_pow(ring, k)
    for row in range(r + 1, n):
        col = [zero] * n
        col[row] = xk
        lifted.append(col)
    H = normal_forms.HermiteNF(cols=lifted, nrows=n, pivot_rows=[])
    A = detaching_from_hermite(H, S.d_y, D)
    if A[0].deg_y == 0 and A[0].rows[0].degree == 0:
        return [BiPoly.const(ring, 1)]
    return minimalize(A)


def groebner_basis_at_zero(F, D=None):
    """Basis of the <x, y>-primary component of <F> over F_p, assuming the
    x-projection of V(F) is one-to-one; doubles k until x^k leaves the
    output."""
    d = max(f.total_degree for f in F)
    d_y = max(f.deg_y for f in F)
    if D is None:
        D = max(d, d_y, 1)
    cap = 2 * d * d
    k = 1
    while True:
        G = howell_groebner_basis(F, k, D)
        pure = next(g for g in G if g.lt()[0][1] == 0)
        if pure.lt()[0][0] < k:
            return G
        if k > cap:
            raise NotZeroDimensionalError(
                "x-power did not stabilize below k = 2 d^2; "
                "projection not one-to-one or input not zero-dimensional")
        k *= 2
