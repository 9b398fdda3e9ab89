"""The benchmark's tracer must keep working over bgb's modules: every
(module, function) pair it wraps resolves, a traced solve records the
lifting counters, and the layers whose times the benchmark fits record
time.  perfbench/worker.py is imported from its file, read-only."""

import importlib.util
import os

from bgb import (bounds, coords, driver, groebner_engine, lifting,
                 normal_forms, oracle, primes, sylvester)

WORKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "worker.py")


def _load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_traced_solve_records_layers_and_counters():
    worker = _load_worker()
    modules = {"driver": driver, "bounds": bounds, "primes": primes,
               "oracle": oracle, "coords": coords,
               "groebner_engine": groebner_engine, "lifting": lifting,
               "normal_forms": normal_forms, "sylvester": sylvester}
    tracer = worker.Tracer(modules)  # resolves every TRACED pair by name
    assert {name for _, name in worker.TRACED} <= {
        attr for _, attr, _, _ in tracer.swaps}
    # at p = 5 the reconstruction at k = 2 reads -23 as 2, which the
    # witness rejects, so every counter of the lifting layer is exercised
    F = driver.parse_system("y - 23*x\nx^2 - 1")
    tracer.install()
    try:
        report = driver.groebner_basis_main(
            F, driver.DriverConfig(seed=1, forced_p=5, forced_p2=7))
    finally:
        tracer.uninstall()
    assert report.basis[0].coeff(1, 0) == -23
    assert all(getattr(mod, attr) is orig for mod, attr, orig, _ in tracer.swaps)
    trace = tracer.snapshot()
    for counter in ("lifting.membership_cells", "lifting.dixon_digits",
                    "lifting.reconstruct_hits", "lifting.witness_rejections"):
        assert trace["counts"].get(counter, 0) > 0, counter
    for layer in ("oracle.buchberger", "lifting.init_lift", "lifting.lift_step"):
        assert trace["total"].get(layer, 0.0) > 0.0, layer
