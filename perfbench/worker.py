"""Solving process of the benchmark: the only process that imports bgb.

Reads a request (JSON on stdin) with the checkout root, the systems, the
run length and whether to trace; answers with one JSON object on stdout.
Each operation is what `bgb solve` does: parse_system on the text, then
groebner_basis_main or primary_component_main with DriverConfig defaults
and the system's solver seed, then emit_report(..., "text").  Passes
sweep all systems one at a time.

With tracing, passes alternate untraced and traced.  The traced ones wrap
public functions of the program's modules from outside, recording per
function its inclusive time, its self time (minus wrapped callees) and
counters taken from arguments and results.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import defaultdict

# (module, function) pairs the traced passes wrap
TRACED = [
    ("driver", "parse_system"), ("driver", "emit_report"),
    ("driver", "groebner_basis_main"), ("driver", "primary_component_main"),
    ("bounds", "prime_interval_bounds"), ("primes", "random_prime_in"),
    ("oracle", "buchberger"), ("oracle", "is_zero_dimensional"),
    ("coords", "change_coordinates_groebner"), ("coords", "apply_coords"),
    ("groebner_engine", "hermite_groebner_basis"),
    ("groebner_engine", "groebner_basis_at_zero"),
    ("groebner_engine", "howell_groebner_basis"),
    ("sylvester", "build_extended_sylvester"), ("sylvester", "squarify"),
    ("normal_forms", "hermite_form"), ("normal_forms", "howell_form"),
    ("lifting", "init_lift"), ("lifting", "lift_step"),
    ("lifting", "reconstruct_basis"), ("lifting", "verify_with_witness"),
]


def _count_lifting(counts, key, args, result):
    """Counters read off the lifting layer's arguments and results."""
    if key == "lifting.init_lift" and not result.trivial:
        counts["lifting.membership_cells"] += result.sys.R * result.sys.W
    elif key == "lifting.lift_step" and not args[0].trivial:
        # one Dixon digit per element and unit of precision gained
        counts["lifting.dixon_digits"] += args[0].k * len(args[0].elements)
    elif key == "lifting.reconstruct_basis" and result is not None:
        counts["lifting.reconstruct_hits"] += 1
    elif key == "lifting.verify_with_witness" and not result:
        counts["lifting.witness_rejections"] += 1


class Tracer:
    """Wraps functions in every bgb module that holds them; install() and
    uninstall() swap the wrappers in and out between passes."""

    def __init__(self, modules):
        self.swaps = []          # (module, attribute, original, wrapper)
        self.stack = []          # time spent in wrapped callees, per frame
        self.reset()
        for mod_name, fn_name in TRACED:
            orig = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), orig)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self.swaps.append((mod, attr, orig, wrapper))

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def _wrap(self, key, fn):
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                inner = stack.pop()
                self.total[key] += dur
                self.self_time[key] += dur - inner
                self.counts[key + ".calls"] += 1
                if stack:
                    stack[-1] += dur
            _count_lifting(self.counts, key, args, result)
            return result
        return wrapper

    def install(self):
        for mod, attr, _, wrapper in self.swaps:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _ in self.swaps:
            setattr(mod, attr, orig)

    def snapshot(self):
        out = {"total": dict(self.total), "self": dict(self.self_time),
               "counts": dict(self.counts)}
        self.reset()
        return out


def _operation(driver, system):
    """One `bgb solve`: returns (seconds, text or None, signature, failure,
    output height in nats or None)."""
    main = driver.primary_component_main if system["task"] == "primary" \
        else driver.groebner_basis_main
    report = None
    start = time.perf_counter()
    try:
        F = driver.parse_system(system["text"])
        report = main(F, driver.DriverConfig(seed=system["seed"]))
        text = driver.emit_report(report, "text")
        failure = None
    except Exception as e:  # every failure is counted, none stops the run
        text = None
        failure = "%s: %s" % (type(e).__name__, str(e)[:120])
    seconds = time.perf_counter() - start
    if report is None:
        return seconds, None, None, failure, None
    signature = [report.p, report.p_prime, report.rounds, report.precision_k]
    return seconds, text, signature, failure, report.height_nats


def main():
    request = json.load(sys.stdin)
    src = os.path.join(request["root"], "src")
    sys.path.insert(0, src)
    import bgb
    from bgb import (bounds, coords, driver, groebner_engine, lifting,
                     normal_forms, oracle, primes, sylvester)
    if not os.path.abspath(bgb.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit("bgb was not imported from %s" % src)
    modules = {"driver": driver, "bounds": bounds, "primes": primes,
               "oracle": oracle, "coords": coords,
               "groebner_engine": groebner_engine, "lifting": lifting,
               "normal_forms": normal_forms, "sylvester": sylvester}
    tracer = Tracer(modules) if request["trace"] else None
    modes = ["plain", "traced"] if tracer else ["plain"]
    min_passes = request["min_passes"]
    systems = request["systems"]
    results = [{"seconds": {m: [] for m in modes}, "trace": [], "text": None,
                "signature": None, "failure": None, "height_nats": None,
                "consistent": True} for _ in systems]

    start = time.perf_counter()
    passes = 0
    while True:
        mode = modes[passes % len(modes)]
        if tracer and mode == "traced":
            tracer.install()
        for system, res in zip(systems, results):
            seconds, text, signature, failure, height_nats = _operation(driver, system)
            res["seconds"][mode].append(seconds)
            if tracer and mode == "traced":
                res["trace"].append(tracer.snapshot())
            if passes == 0:
                res.update(text=text, signature=signature, failure=failure,
                           height_nats=height_nats)
            elif (text, signature, failure) != (res["text"], res["signature"],
                                                res["failure"]):
                res["consistent"] = False
        if tracer and mode == "traced":
            tracer.uninstall()
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes * len(modes) and passes % len(modes) == 0 and \
                elapsed >= request["seconds"]:
            break
    # the peak is read before any result is serialized
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"passes": passes, "elapsed_s": elapsed,
               "peak_rss_kb": peak_rss_kb, "results": results}, sys.stdout)


if __name__ == "__main__":
    main()
