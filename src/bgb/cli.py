"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 positive-dimensional input,
4 retries exhausted.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import driver, oracle
from .rings import QQ, height


def _load_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    F = driver.parse_system(text)
    if len([f for f in F if not f.is_zero]) < 2:
        raise driver.ParseError("need at least two nonzero polynomials", 1, 1)
    return F


def _cmd_solve(args):
    cfg = driver.DriverConfig(
        P=args.security, mode=args.mode, practical_prime_bits=args.prime_bits,
        seed=args.seed, forced_p=args.force_p, forced_p2=args.force_p2,
        task="primary_at_origin" if args.primary else "full_gb")
    F = _load_system(args.file)
    report = driver._run(F, cfg)
    out = driver.emit_report(report, args.format)
    sys.stdout.write(out)
    if args.stats and args.format == "text":
        sys.stdout.write("# seed=%d p=%d p'=%d k=%d iterations=%d rounds=%d "
                         "delta=%d height=%.4f\n" % (
                             report.seed, report.p, report.p_prime,
                             report.precision_k, report.iterations,
                             report.rounds, report.delta, report.height_nats))
        for phase, secs in report.timings.items():
            sys.stdout.write("# time[%s]=%.3fs\n" % (phase, secs))
    return 0


def _cmd_oracle(args):
    F = _load_system(args.file)
    FQ = [f.map_coeffs(Fraction, QQ) for f in F]
    G = oracle.buchberger(FQ)
    for g in G:
        sys.stdout.write("%s\n" % g)
    return 0


def _cmd_bounds(args):
    F = _load_system(args.file)
    t = len(F)
    d = max(f.total_degree for f in F)
    d_y = max(f.deg_y for f in F)
    h = max(height(f) for f in F)
    report = bounds_mod.prime_interval_bounds(
        bounds_mod.BoundContext(t=t, d=d, d_y=d_y, h=h, P=args.security))
    for key, value in report.as_dict().items():
        sys.stdout.write("%s = %s\n" % (key, value))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bgb",
        description="Lexicographic Groebner bases of zero-dimensional "
                    "bivariate ideals over Q, by p-adic lifting.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute the basis of an input system")
    solve.add_argument("file")
    solve.add_argument("--primary", action="store_true",
                       help="basis of the primary component at the origin")
    solve.add_argument("--security", type=int, default=20, metavar="P")
    solve.add_argument("--mode", choices=("paper", "practical"), default="practical")
    solve.add_argument("--prime-bits", type=int, default=31, metavar="N",
                       help="bit size of the practical-mode primes (default "
                            "31: below 2^31 the mod-p kernel works in int64; "
                            "wider primes run on Python ints)")
    solve.add_argument("--seed", type=int, default=None, metavar="S")
    solve.add_argument("--force-p", type=int, default=None, metavar="N")
    solve.add_argument("--force-p2", type=int, default=None, metavar="N")
    solve.add_argument("--stats", action="store_true")
    solve.add_argument("--format", choices=("text", "json"), default="text")
    solve.set_defaults(func=_cmd_solve)

    orc = sub.add_parser("oracle", help="Buchberger reference over Q")
    orc.add_argument("file")
    orc.set_defaults(func=_cmd_oracle)

    bnd = sub.add_parser("bounds", help="print the height/prime bounds")
    bnd.add_argument("file")
    bnd.add_argument("--security", type=int, default=20, metavar="P")
    bnd.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except driver.ParseError as e:
        sys.stderr.write("parse error: %s\n" % e)
        return 2
    except driver.PositiveDimensionalError as e:
        sys.stderr.write("error: %s\n" % e)
        return 3
    except driver.RetriesExhaustedError as e:
        sys.stderr.write("error: %s\n" % e)
        for kind, detail in e.failures[-8:]:
            sys.stderr.write("  [%s] %s\n" % (kind, detail))
        return 4
    except OSError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
