"""End-to-end pipeline: randomized modular Groebner bases, p-adic lifting,
rational reconstruction, second-prime verification; plus the input grammar
and report emission used by the CLI.

A run samples a coordinate change and two primes, computes the modular
bases through the Hermite engine in Noether position, changes coordinates
back, lifts the first basis p-adically, and accepts a rational
reconstruction only when it reduces to the second basis.  Random failures
(singular gamma, non-Noether reduction, unlucky primes, witness rejection)
are converted into bounded resampling rounds.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field

from . import bounds as bounds_mod
from . import coords, groebner_engine, lifting, oracle, primes
from .groebner_engine import DeltaCase, NotZeroDimensionalError
from .rings import (ZZ, QQ, BiPoly, GF, NonInvertibleError, height,
                    reduce_mod, str_to_int)
from .sylvester import RankDeficientError


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


class PositiveDimensionalError(RuntimeError):
    """Every attempt saw a rank-deficient system: the input ideal does not
    look zero-dimensional."""


class RetriesExhaustedError(RuntimeError):
    def __init__(self, message, failures):
        super().__init__(message)
        self.failures = failures


@dataclass
class DriverConfig:
    P: int = 20
    mode: str = "practical"            # "paper" or "practical"
    practical_prime_bits: int = 31     # below 2^31 the int64 kernel runs
    seed: int = None
    forced_p: int = None
    forced_p2: int = None
    task: str = "full_gb"              # or "primary_at_origin"
    max_rounds: int = 16

    def __post_init__(self):
        if self.P < 1:
            raise ValueError("security parameter P must be at least 1")
        if self.mode not in ("paper", "practical"):
            raise ValueError("mode must be 'paper' or 'practical'")
        if self.forced_p is not None and self.forced_p == self.forced_p2:
            raise ValueError("forced primes must be distinct")


@dataclass
class RunReport:
    basis: list
    p: int
    p_prime: int
    precision_k: int
    iterations: int
    rounds: int
    delta: int
    basis_size: int
    height_nats: float
    gamma: coords.Coords2x2
    task: str
    seed: int                          # drawn by the run when none was given
    bound_report: object = None
    timings: dict = field(default_factory=dict)


# ---------------------------------------------------------------- parsing

_TOKEN_CHARS = {"+": "plus", "-": "minus", "*": "times", "^": "pow",
                "(": "lparen", ")": "rparen"}


def _tokenize(text, lineno):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            break
        if ch in _TOKEN_CHARS:
            out.append((_TOKEN_CHARS[ch], ch, i + 1))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", str_to_int(text[i:j]), i + 1))
            i = j
            continue
        if ch in ("x", "y"):
            out.append(("var", ch, i + 1))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, lineno, i + 1)
    return out


class _LineParser:
    def __init__(self, tokens, lineno):
        self.toks = tokens
        self.pos = 0
        self.lineno = lineno

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else ("end", None, -1)

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1]),
                             self.lineno, tok[2])
        self.pos += 1
        return tok

    def parse_expr(self):
        sign = 1
        if self.peek()[0] == "minus":
            self.take()
            sign = -1
        acc = self.parse_term()
        if sign < 0:
            acc = -acc
        while self.peek()[0] in ("plus", "minus"):
            op = self.take()[0]
            term = self.parse_term()
            acc = acc + term if op == "plus" else acc - term
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek()[0] in ("int", "var", "lparen", "times"):
            if self.peek()[0] == "times":
                self.take()
            acc = acc * self.parse_factor()
        return acc

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek()[0] == "pow":
            self.take()
            tok = self.take("int")
            e = tok[1]
            out = BiPoly.const(ZZ, 1)
            for _ in range(e):
                out = out * base
            return out
        return base

    def parse_atom(self):
        kind, value, col = self.peek()
        if kind == "int":
            self.take()
            return BiPoly.const(ZZ, value)
        if kind == "var":
            self.take()
            return BiPoly.from_terms(ZZ, {(1, 0) if value == "x" else (0, 1): 1})
        if kind == "lparen":
            self.take()
            inner = self.parse_expr()
            self.take("rparen")
            return inner
        if kind == "minus":
            self.take()
            return -self.parse_atom()
        raise ParseError("expected a term, found %r" % (value,), self.lineno, col)


def parse_system(text):
    """One integer polynomial per line; '#' comments and blank lines ignored."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        parser = _LineParser(tokens, lineno)
        poly = parser.parse_expr()
        extra = parser.peek()
        if extra[0] != "end":
            raise ParseError("trailing input %r" % (extra[1],), lineno, extra[2])
        out.append(poly)
    return out


# ------------------------------------------------------------- the pipeline

class _RoundFailure(Exception):
    def __init__(self, kind, detail):
        super().__init__(detail)
        self.kind = kind  # "dimension" | "luck"


def _gamma_mod(gamma, ring):
    return coords.Coords2x2(*(ring.of(g) for g in gamma.entries()))


def _modular_basis(F, gamma, p, d, task, rng):
    """Steps 3-7 for one prime: transform, Noether check, Hermite (or
    Howell-at-zero) engine, change coordinates back."""
    fld = GF(p)
    det = fld.of(gamma.det())
    if not fld.is_unit(det):
        raise _RoundFailure("luck", "gamma singular mod %d" % p)
    gam_p = _gamma_mod(gamma, fld)
    Fp = [reduce_mod(f, fld) for f in F]
    if any(f.is_zero for f in Fp):
        raise _RoundFailure("luck", "a generator vanishes mod %d" % p)
    H = [coords.apply_coords(f, gam_p) for f in Fp]
    if H[0].coeff(0, d) == fld.zero:
        raise _RoundFailure("luck", "coefficient of y^%d lost mod %d" % (d, p))
    try:
        if task == "primary_at_origin":
            B = groebner_engine.groebner_basis_at_zero(H, D=d)
        else:
            B = groebner_engine.hermite_groebner_basis(H, d, rng)
        # F itself generates the same (or for the primary task, a smaller)
        # ideal: passing it along only accelerates the recomputation
        return coords.change_coordinates_groebner(B, gamma.inverse_mod(fld),
                                                  extra_generators=Fp)
    except (NotZeroDimensionalError, RankDeficientError) as e:
        raise _RoundFailure("dimension", str(e))
    except NonInvertibleError as e:
        raise _RoundFailure("luck", str(e))


def _pick_primes(cfg, rng, report):
    if cfg.mode == "paper":
        if report is None:
            raise ValueError("paper mode needs computable interval bounds")
        first = (report.B + 1, 2 * report.B)
        second = (report.B_prime + 1, 2 * report.B_prime)
    else:
        first = second = (1 << (cfg.practical_prime_bits - 1),
                          (1 << cfg.practical_prime_bits) - 1)
    p = primes.random_prime_in(*first, rng)
    for _ in range(64):
        pp = primes.random_prime_in(*second, rng)
        if pp != p:
            break
    else:
        raise RuntimeError("could not draw two distinct primes")
    if cfg.forced_p is not None:
        p = cfg.forced_p
    if cfg.forced_p2 is not None:
        pp = cfg.forced_p2
    if p == pp:
        raise RuntimeError("primes p and p' must be distinct")
    return p, pp


def _delta_case(F):
    d_y = max(f.deg_y for f in F)
    if any(not f.row(d_y).is_zero and f.row(d_y).degree == 0 for f in F
           if f.deg_y == d_y):
        return DeltaCase.NOETHER
    return DeltaCase.TWO_GEN if len(F) == 2 else DeltaCase.GENERAL


def _height_cap(F, cfg):
    t = len(F)
    d = max(f.total_degree for f in F)
    d_y = max(f.deg_y for f in F)
    h = max(height(f) for f in F)
    case = _delta_case(F)
    try:
        return bounds_mod.height_bound_H(case, t, d, d_y, h)
    except (OverflowError, ValueError):
        return float("inf")


def _run(F, cfg):
    if len(F) < 2:
        raise ValueError("need at least two generators")
    if any(f.is_zero for f in F):
        F = [f for f in F if not f.is_zero]
        if len(F) < 2:
            raise ValueError("need at least two nonzero generators")
    seed = cfg.seed
    if seed is None:
        seed = random.SystemRandom().getrandbits(63)
    rng = random.Random(seed)
    # a maximal-degree generator is reindexed first: the Noether check
    # targets the transform of h_1
    d = max(f.total_degree for f in F)
    top = next(i for i, f in enumerate(F) if f.total_degree == d)
    F = [F[top]] + F[:top] + F[top + 1:]
    t = len(F)
    h = max(height(f) for f in F)
    try:
        breport = bounds_mod.prime_interval_bounds(
            bounds_mod.BoundContext(t=t, d=d, d_y=max(f.deg_y for f in F),
                                    h=h, P=cfg.P))
    except OverflowError:
        if cfg.mode == "paper":
            raise
        breport = None
    b_cap = _height_cap(F, cfg)
    k_cap = 1 << (max(3, math.ceil(math.log2(8 * max(b_cap, 1.0)))) + 1) \
        if math.isfinite(b_cap) else 1 << 30
    timings = {"modular": 0.0, "lifting": 0.0,
               "reconstruction": 0.0, "verification": 0.0}
    failures = []
    for rnd in range(cfg.max_rounds):
        gamma = coords.sample_gamma(cfg.P, d, rng)
        try:
            p, pp = _pick_primes(cfg, rng, breport)
        except primes.NoPrimeInIntervalError as e:
            raise RuntimeError("prime sampling failed: %s" % e)
        t0 = time.perf_counter()
        try:
            G1 = _modular_basis(F, gamma, p, d, cfg.task, rng)
            G1p = _modular_basis(F, gamma, pp, d, cfg.task, rng)
        except _RoundFailure as e:
            failures.append((e.kind, str(e)))
            continue
        finally:
            timings["modular"] += time.perf_counter() - t0
        lift_gens = F
        if cfg.task == "primary_at_origin":
            if not (len(G1) == 1 and G1[0].lt()[0] == (0, 0)):
                eta = len(lifting.staircase_of([g.lt()[0] for g in G1]))
                lift_gens = F + [BiPoly.monomial(ZZ, 1, eta, 0),
                                 BiPoly.monomial(ZZ, 1, 0, eta)]
        t0 = time.perf_counter()
        try:
            state = lifting.init_lift(lift_gens, p, G1)
        except lifting.UnluckyPrimeError as e:
            failures.append(("luck", str(e)))
            timings["lifting"] += time.perf_counter() - t0
            continue
        timings["lifting"] += time.perf_counter() - t0
        iterations = 0
        accepted = None
        while state.k <= k_cap:
            t0 = time.perf_counter()
            try:
                state = lifting.lift_step(state)
            except lifting.UnluckyPrimeError as e:
                failures.append(("luck", str(e)))
                break
            finally:
                timings["lifting"] += time.perf_counter() - t0
            iterations += 1
            t0 = time.perf_counter()
            G_rec = lifting.reconstruct_basis(state)
            timings["reconstruction"] += time.perf_counter() - t0
            if G_rec is None:
                continue
            t0 = time.perf_counter()
            ok = lifting.verify_with_witness(G_rec, pp, G1p)
            timings["verification"] += time.perf_counter() - t0
            if ok:
                accepted = G_rec
                break
        if accepted is None:
            if state.k > k_cap:
                failures.append(("luck", "precision cap reached without verification"))
            continue
        if not oracle.is_zero_dimensional(accepted):
            raise PositiveDimensionalError(
                "verified output lacks the zero-dimensional structure")
        hs = [height(c) for g in accepted for _, c in g.terms()]
        return RunReport(
            basis=accepted, p=p, p_prime=pp, precision_k=state.k,
            iterations=iterations, rounds=rnd + 1,
            delta=len(state.staircase), basis_size=len(accepted),
            height_nats=max(hs) if hs else 0.0,
            gamma=gamma, task=cfg.task, seed=seed, bound_report=breport,
            timings=dict(timings))
    if failures and all(kind == "dimension" for kind, _ in failures):
        raise PositiveDimensionalError(
            "all %d rounds saw rank-deficient systems" % len(failures))
    raise RetriesExhaustedError(
        "no verified basis after %d rounds" % cfg.max_rounds, failures)


def groebner_basis_main(F, cfg=None):
    cfg = cfg or DriverConfig()
    if cfg.task != "full_gb":
        cfg = DriverConfig(**{**cfg.__dict__, "task": "full_gb"})
    return _run(F, cfg)


def primary_component_main(F, cfg=None):
    cfg = cfg or DriverConfig()
    cfg = DriverConfig(**{**cfg.__dict__, "task": "primary_at_origin"})
    return _run(F, cfg)


# ------------------------------------------------------------- reporting

def emit_report(report, fmt="text"):
    if fmt == "text":
        lines = [str(g) for g in report.basis]
        return "\n".join(lines) + "\n"
    if fmt != "json":
        raise ValueError("unknown format %r" % fmt)
    payload = {
        "basis": [str(g) for g in report.basis],
        "primes": [report.p, report.p_prime],
        "seed": report.seed,
        "precision_k": report.precision_k,
        "iterations": report.iterations,
        "rounds": report.rounds,
        "delta": report.delta,
        "height_nats": report.height_nats,
        "bounds": report.bound_report.as_dict() if report.bound_report else {},
    }
    if report.timings:
        payload["timings"] = report.timings
    return json.dumps(payload, indent=2) + "\n"
