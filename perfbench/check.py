"""Independent checker for the benchmark: proves an emitted basis is the
unique right answer using exact rational arithmetic from the standard
library only.  It never imports the program under test and reads the
emitted text with its own parser.

A polynomial is a dict {(a, b): coefficient} for the monomial x^a y^b;
the monomial order is lex with x < y, so (a, b) is compared as (b, a).

Full basis of <F> (t >= 2, f_1 and f_2 of degrees d_1, d_2 whose
top-degree forms have a nonzero resultant, so dim Q[x,y]/<F> = d_1*d_2):
  1. the output is a reduced lex basis: monic, no non-leading term
     divisible by a leading term, and the S-polynomials of neighbours in
     y-degree order reduce to 0 (in two variables the chain criterion
     makes these pairs sufficient);
  2. every f in F reduces to 0, so <G> contains <F>;
  3. the staircase of G has d_1*d_2 monomials.
A Groebner basis of an ideal that contains <F> and has the same finite
colength is a basis of <F>, and the reduced basis is unique.

Primary component at the origin (f_1, f_2 with lowest-degree forms of
degrees m_1, m_2 and a nonzero resultant, so the intersection multiplicity
at the origin is m_1*m_2): reducedness as above, F, x^N and y^N reduce to
0 for N = m_1*m_2, and the staircase has m_1*m_2 monomials.  <G> then
contains <F> + <x,y>^(2N-1), which is the primary component, and has its
colength.
"""

from __future__ import annotations

from fractions import Fraction


class CheckError(AssertionError):
    """The emitted text is not the right answer; the message says why."""


# ------------------------------------------------------------------ text

def format_poly(p):
    """Render an integer or rational polynomial in the input grammar,
    terms in decreasing lex order."""
    if not p:
        return "0"
    out = []
    for (a, b) in sorted(p, key=lambda m: (m[1], m[0]), reverse=True):
        c = p[(a, b)]
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        factors = []
        if a:
            factors.append("x" if a == 1 else "x^%d" % a)
        if b:
            factors.append("y" if b == 1 else "y^%d" % b)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not out:
            out.append(("-" if sign == "-" else "") + term)
        else:
            out.append(" %s %s" % (sign, term))
    return "".join(out)


def _int(digits):
    """int() of a digit string of any length: CPython refuses to convert
    more than 4300 digits at once, and a basis may hold longer numbers."""
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def parse_poly(text):
    """Parse one line of sums of terms `c*x^a*y^b` with integer or `n/d`
    coefficients, the shape both the generator and the program write."""
    s = text.replace(" ", "")
    if not s:
        raise CheckError("empty polynomial line")
    poly = {}
    i = 0
    n = len(s)
    while i < n:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        elif i:
            raise CheckError("expected a sign at column %d of %r" % (i + 1, text[:80]))
        coef = Fraction(1)
        a = b = 0
        seen = False
        while True:
            if i < n and s[i].isdigit():
                j = i
                while j < n and s[j].isdigit():
                    j += 1
                num = _int(s[i:j])
                if j < n and s[j] == "/":
                    k = j + 1
                    while k < n and s[k].isdigit():
                        k += 1
                    if k == j + 1:
                        raise CheckError("bad fraction in %r" % text[:80])
                    coef *= Fraction(num, _int(s[j + 1:k]))
                    j = k
                else:
                    coef *= num
                i = j
            elif i < n and s[i] in "xy":
                var = s[i]
                i += 1
                e = 1
                if i < n and s[i] == "^":
                    j = i + 1
                    while j < n and s[j].isdigit():
                        j += 1
                    if j == i + 1:
                        raise CheckError("bad exponent in %r" % text[:80])
                    e = int(s[i + 1:j])
                    i = j
                if var == "x":
                    a += e
                else:
                    b += e
            else:
                raise CheckError("unexpected input at column %d of %r" % (i + 1, text[:80]))
            seen = True
            if i < n and s[i] == "*":
                i += 1
                continue
            break
        if not seen:
            raise CheckError("empty term in %r" % text[:80])
        c = poly.get((a, b), 0) + sign * coef
        if c:
            poly[(a, b)] = c
        else:
            poly.pop((a, b), None)
    return poly


def parse_system(text):
    return [parse_poly(line) for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


# ------------------------------------------------------------ arithmetic

def _key(m):
    return (m[1], m[0])


def lead(p):
    return max(p, key=_key)


def _divides(m, n):
    return m[0] <= n[0] and m[1] <= n[1]


def _sub_multiple(work, c, shift, g):
    """work -= c * x^shift[0] y^shift[1] * g, in place."""
    da, db = shift
    for (a, b), gc in g.items():
        m = (a + da, b + db)
        v = work.get(m, 0) - c * gc
        if v:
            work[m] = v
        else:
            work.pop(m, None)


def reduce_poly(f, G):
    """Full normal form of f modulo the monic polynomials G."""
    tails = []
    for g in G:
        lt = lead(g)
        tails.append((lt, {m: c for m, c in g.items() if m != lt}))
    work = {m: Fraction(c) for m, c in f.items() if c}
    rem = {}
    while work:
        m = lead(work)
        c = work.pop(m)
        for lt, tail in tails:
            if _divides(lt, m):
                _sub_multiple(work, c, (m[0] - lt[0], m[1] - lt[1]), tail)
                break
        else:
            rem[m] = c
    return rem


def _spoly(f, g):
    lf, lg = lead(f), lead(g)
    lcm = (max(lf[0], lg[0]), max(lf[1], lg[1]))
    out = {}
    for m, c in f.items():
        out[(m[0] + lcm[0] - lf[0], m[1] + lcm[1] - lf[1])] = c
    _sub_multiple(out, 1, (lcm[0] - lg[0], lcm[1] - lg[1]), g)
    return out


def staircase_size(lts):
    """Number of monomials under the staircase; None when it is infinite."""
    if not any(b == 0 for _, b in lts) or not any(a == 0 for a, _ in lts):
        return None
    top = min(b for a, b in lts if a == 0)
    return sum(min(a for a, b in lts if b <= j) for j in range(top))


def _det(rows):
    """Exact determinant by Gaussian elimination over Q."""
    A = [[Fraction(x) for x in r] for r in rows]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        inv = 1 / A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] * inv
            if f:
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


def form_resultant(f, g, which):
    """Resultant of the binary forms of f and g of top ('top') or lowest
    ('low') total degree, with their formal degrees: nonzero iff the two
    forms share no factor.  Returns (resultant, deg f form, deg g form)."""
    pick = max if which == "top" else min
    df = pick(a + b for a, b in f)
    dg = pick(a + b for a, b in g)
    # coefficient vectors of x^df, x^(df-1) y, ..., y^df
    cf = [f.get((df - i, i), 0) for i in range(df + 1)]
    cg = [g.get((dg - i, i), 0) for i in range(dg + 1)]
    n = df + dg
    rows = []
    for s in range(dg):
        rows.append([0] * s + cf + [0] * (n - df - 1 - s))
    for s in range(df):
        rows.append([0] * s + cg + [0] * (n - dg - 1 - s))
    if n == 0:
        return 1, df, dg
    return _det(rows), df, dg


def expected_colength(F, task):
    """dim of the quotient that the resultant condition pins, or None."""
    res, d1, d2 = form_resultant(F[0], F[1], "top" if task == "full" else "low")
    return d1 * d2 if res else None


# ---------------------------------------------------------------- checks

def check_reduced(G):
    if not G:
        raise CheckError("empty basis")
    lts = []
    for g in G:
        if not g:
            raise CheckError("zero polynomial in the basis")
        lt = lead(g)
        if g[lt] != 1:
            raise CheckError("basis element is not monic")
        lts.append(lt)
    if len(set(lts)) != len(lts):
        raise CheckError("two basis elements share a leading term")
    for g, lt in zip(G, lts):
        for m in g:
            for other in lts:
                if (m != lt or other != lt) and _divides(other, m):
                    raise CheckError("basis is not reduced: a term is divisible "
                                     "by another leading term")
    order = sorted(range(len(G)), key=lambda i: _key(lts[i]))
    for i, j in zip(order, order[1:]):
        if reduce_poly(_spoly(G[i], G[j]), G):
            raise CheckError("an S-polynomial does not reduce to 0: "
                             "not a Groebner basis")
    return lts


def check_basis(input_text, output_text, task):
    """Raise CheckError unless output_text is the reduced lex basis of the
    input system (task 'full') or of its primary component at the origin
    (task 'primary')."""
    F = parse_system(input_text)
    G = parse_system(output_text)
    if len(F) < 2:
        raise CheckError("input needs two generators")
    expected = expected_colength(F, task)
    if expected is None:
        raise CheckError("input fails the resultant condition; "
                         "the colength is not known")
    lts = check_reduced(G)
    gens = list(F)
    if task == "primary":
        gens += [{(expected, 0): 1}, {(0, expected): 1}]
    for f in gens:
        if reduce_poly(f, G):
            raise CheckError("an input generator does not reduce to 0")
    got = staircase_size(lts)
    if got != expected:
        raise CheckError("staircase has %s monomials, expected %d"
                         % (got, expected))
