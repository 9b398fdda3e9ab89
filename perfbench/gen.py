"""Seeded generator of the benchmark's input systems (standard library only).

Every system is drawn from the workload seed and kept only when it meets
the resultant condition that pins the colength the checker expects; a
rejected draw is never a system the program failed on, because the
generator does not run the program.  Each system also carries its own
solver seed, so every pass of a run draws the same primes for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from check import form_resultant, format_poly


@dataclass(frozen=True)
class System:
    label: str        # e.g. "d4.t3#1"
    task: str         # "full" or "primary"
    text: str         # what the program parses
    seed: int         # solver seed (fixes primes and coordinate changes)
    delta: int        # colength pinned by the resultant condition
    digits: int       # decimal digits of the input coefficients (1: |c| <= 10)
    t: int            # number of generators


SMALL = 10   # |coeff| bound of the ladder and primary systems


def _coef(rng, bound):
    while True:
        c = rng.randint(-bound, bound)
        if c:
            return c


def _dense(rng, lo, hi, bound):
    """All monomials of total degree lo..hi, with nonzero coefficients."""
    return {(a, s - a): _coef(rng, bound)
            for s in range(lo, hi + 1) for a in range(s + 1)}


def _linear(rng):
    return {(1, 0): _coef(rng, 3), (0, 1): _coef(rng, 3), (0, 0): _coef(rng, 3)}


def _mul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (e, f), g in q.items():
            m = (a + e, b + f)
            out[m] = out.get(m, 0) + c * g
    return {m: c for m, c in out.items() if c}


def _add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _pair(rng, lo1, hi1, lo2, hi2, bound, task):
    """f_1, f_2 whose top forms (and, for the primary task, lowest forms)
    have a nonzero resultant; returns them with the pinned colength."""
    while True:
        f1 = _dense(rng, lo1, hi1, bound)
        f2 = _dense(rng, lo2, hi2, bound)
        top, d1, d2 = form_resultant(f1, f2, "top")
        if not top:
            continue
        if task == "full":
            return f1, f2, d1 * d2
        low, m1, m2 = form_resultant(f1, f2, "low")
        if low:
            return f1, f2, m1 * m2


def _system(rng, label, task, polys, delta, digits):
    text = "".join(format_poly(p) + "\n" for p in polys)
    return System(label=label, task=task, text=text, seed=rng.randrange(1 << 31),
                  delta=delta, digits=digits, t=len(polys))


# Make-up of each workload; see README.md for why each was chosen.
LADDER = [(3, 2, 7), (4, 2, 1), (5, 2, 1), (3, 3, 2)]   # (d, t, count)
TALL = [(2, 50, 2), (2, 100, 2), (2, 200, 4), (3, 50, 2), (3, 100, 1)]  # (d, digits, count)
TALL_FAULT = (3, 150)        # output above CPython's 4300-digit str limit
TALL_FAULT_SEED = 20231222   # fixed: this system does not depend on --seed
PRIMARY = [(2, 2, 4, 4, 2), (2, 3, 4, 4, 2), (3, 3, 4, 4, 1), (2, 2, 3, 6, 1)]
# (m_1, m_2, deg f_1, deg f_2, count)


def ladder(rng):
    out = []
    for d, t, count in LADDER:
        for i in range(count):
            f1, f2, delta = _pair(rng, 0, d, 0, d, SMALL, "full")
            polys = [f1, f2]
            if t == 3:
                polys.append(_add(_mul(_linear(rng), f1), _mul(_linear(rng), f2)))
            out.append(_system(rng, "d%d.t%d#%d" % (d, t, i), "full", polys,
                               delta, 1))
    return out


def _tall_one(rng, d, digits, label):
    f1, f2, delta = _pair(rng, 0, d, 0, d, 10 ** digits - 1, "full")
    return _system(rng, label, "full", [f1, f2], delta, digits)


def tall(rng):
    out = [_tall_one(rng, d, digits, "d%d.h%d#%d" % (d, digits, i))
           for d, digits, count in TALL for i in range(count)]
    d, digits = TALL_FAULT
    out.append(_tall_one(random.Random(TALL_FAULT_SEED), d, digits,
                         "d%d.h%d.fixed" % (d, digits)))
    return out


def primary(rng):
    out = []
    for m1, m2, e1, e2, count in PRIMARY:
        for i in range(count):
            f1, f2, delta = _pair(rng, m1, e1, m2, e2, SMALL, "primary")
            out.append(_system(rng, "m%d%d.deg%d%d#%d" % (m1, m2, e1, e2, i),
                               "primary", [f1, f2], delta, 1))
    return out


WORKLOADS = {"ladder": ladder, "tall": tall, "primary": primary}


def generate(workload, seed):
    """The systems of one workload for one seed, always the same for the
    same (workload, seed), in a seeded order: the host's speed drifts over
    seconds, and systems of one size spread through a pass sample more of
    it than a block of them would."""
    rng = random.Random("%s:%d" % (workload, seed))
    systems = WORKLOADS[workload](rng)
    rng.shuffle(systems)
    return systems
