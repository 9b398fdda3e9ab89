import json
import random
from fractions import Fraction

import pytest

from bgb import bounds, cli, lifting, oracle
from bgb.driver import (DriverConfig, ParseError, PositiveDimensionalError,
                        RetriesExhaustedError, _pick_primes, emit_report,
                        groebner_basis_main, parse_system,
                        primary_component_main)
from bgb.rings import ZZ, QQ, BiPoly
from conftest import gb_equal, pp, ppl

CFG = dict(practical_prime_bits=29)


def test_parse_examples():
    F = parse_system("y^2 - x\nx^2 - y\n")
    assert len(F) == 2
    assert F[0] == pp("y^2 - x")
    assert parse_system("2*x*y - 3")[0] == BiPoly.from_terms(ZZ, {(1, 1): 2, (0, 0): -3})
    with pytest.raises(ParseError) as ei:
        parse_system("x/2")
    assert ei.value.line == 1 and ei.value.col == 2


def test_parse_comments_and_blanks():
    F = parse_system("# heading\n\n  y - x  # inline\n\nx^2\n")
    assert gb_equal(F, ppl("y - x\nx^2"))
    assert parse_system("-(x + y)*(x - y)")[0] == pp("y^2 - x^2")
    with pytest.raises(ParseError):
        parse_system("x + ")
    with pytest.raises(ParseError):
        parse_system("x ^ y")


def test_main_examples():
    r = groebner_basis_main(ppl("y - x\nx^2"), DriverConfig(seed=1, **CFG))
    assert gb_equal(r.basis, ppl("y - x\nx^2", QQ))
    assert r.delta == 2 and r.height_nats == 0.0
    r = groebner_basis_main(ppl("2*y^2 - x\nx^2 - y"), DriverConfig(seed=2, **CFG))
    assert gb_equal(r.basis, [pp("y - x^2", QQ),
                              BiPoly.from_terms(QQ, {(4, 0): 1, (1, 0): Fraction(-1, 2)})])
    assert r.delta == 4
    r = groebner_basis_main(ppl("y^2 - x\nx^2 - y"), DriverConfig(seed=3, **CFG))
    assert gb_equal(r.basis, ppl("y - x^2\nx^4 - x", QQ))


def test_primary_examples():
    r = primary_component_main(ppl("y - x^2\nx^3 - x^2"), DriverConfig(seed=4, **CFG))
    assert gb_equal(r.basis, ppl("y\nx^2", QQ))
    r = primary_component_main(ppl("y^2 - x^3\nx^4"), DriverConfig(seed=5, **CFG))
    assert gb_equal(r.basis, ppl("y^2 - x^3\nx^4", QQ))
    r = primary_component_main(ppl("x - 1\ny"), DriverConfig(seed=6, **CFG))
    assert gb_equal(r.basis, [pp("1", QQ)])


def test_determinism_under_seed():
    F = ppl("y^2 - x\nx^2 - y")
    a = groebner_basis_main(F, DriverConfig(seed=99, **CFG))
    b = groebner_basis_main(F, DriverConfig(seed=99, **CFG))
    assert gb_equal(a.basis, b.basis)
    assert (a.p, a.p_prime, a.precision_k, a.iterations, a.rounds) == \
           (b.p, b.p_prime, b.precision_k, b.iterations, b.rounds)
    assert a.gamma == b.gamma


def test_prime_draws_pinned():
    # (p, p', next 16 random bits) per seed: a seed keeps its primes and
    # leaves the generator where later draws expect it; at 3 bits the two
    # primes of [4, 7] often collide, so the redraw loop runs too
    report = bounds.prime_interval_bounds(
        bounds.BoundContext(t=2, d=2, d_y=2, h=1.0, P=4))
    modes = {"paper": DriverConfig(mode="paper", P=4),
             "practical": DriverConfig(),
             "3 bits": DriverConfig(practical_prime_bits=3)}
    want = {
        ("paper", 0): (60441345229, 2482994739059, 19027),
        ("paper", 1): (50167448839, 3051248238277, 55456),
        ("paper", 7): (32832588949, 2872608223127, 9453),
        ("paper", 2026): (33766846573, 2504340645991, 36686),
        ("practical", 0): (2024418569, 1379746201, 52637),
        ("practical", 1): (1788199291, 1147885483, 31472),
        ("practical", 7): (1921618823, 1282972393, 35896),
        ("practical", 2026): (1126869067, 1145940113, 54486),
        ("3 bits", 0): (7, 5, 16968),
        ("3 bits", 1): (5, 7, 7727),
        ("3 bits", 7): (7, 5, 25875),
        ("3 bits", 2026): (5, 7, 32932),
    }
    for (mode, seed), pinned in want.items():
        rng = random.Random(seed)
        p, p2 = _pick_primes(modes[mode], rng, report)
        assert (p, p2, rng.getrandbits(16)) == pinned


def test_mode_equivalence():
    systems = ["2*y^2 - x\nx^2 - y", "y - x\nx^2", "y^2 - 2\nx*y - 3*x + 1"]
    for i, s in enumerate(systems):
        F = ppl(s)
        prac = groebner_basis_main(F, DriverConfig(seed=11 + i, **CFG))
        paper = groebner_basis_main(F, DriverConfig(seed=11 + i, mode="paper", P=6))
        assert gb_equal(prac.basis, paper.basis)


def test_forced_bad_prime_never_accepts():
    F = ppl("2*y^2 - x\nx^2 - y")
    with pytest.raises((RetriesExhaustedError, PositiveDimensionalError)):
        groebner_basis_main(F, DriverConfig(seed=1, forced_p=2, forced_p2=101,
                                            max_rounds=4, **CFG))


def test_unlucky_witness_ends_the_round(monkeypatch):
    # 103 divides a denominator of this basis over Q, so the witness rejects
    # the reconstruction at every precision; each round must end once the
    # same basis is rejected twice, not lift on to the precision cap
    F = ppl("-3*y^3 - 3*x*y^2 + y^2 - 4*x^2*y - 3*x*y + 3*y + 7*x^3 - 2*x^2"
            " + x - 6\n2*y^3 + 6*x*y^2 - 7*y^2 - 7*x^2*y + 4*x*y - 6*y"
            " - 10*x^3 + 7*x^2 - 3*x - 5")
    steps = []
    init_lift, lift_step = lifting.init_lift, lifting.lift_step

    def counting_init(*args):
        steps.append(0)
        return init_lift(*args)

    def counting_step(state):
        steps[-1] += 1
        assert steps[-1] <= 8, "the round lifts on past a stable rejection"
        return lift_step(state)

    monkeypatch.setattr(lifting, "init_lift", counting_init)
    monkeypatch.setattr(lifting, "lift_step", counting_step)
    with pytest.raises(RetriesExhaustedError) as ei:
        groebner_basis_main(F, DriverConfig(seed=2070696857, forced_p=101,
                                            forced_p2=103))
    assert ei.value.failures
    assert all(kind == "luck" for kind, _ in ei.value.failures)
    assert steps and max(steps) <= 8


def test_good_prime_has_half_coefficient():
    F = ppl("2*y^2 - x\nx^2 - y")
    r = groebner_basis_main(F, DriverConfig(seed=8, forced_p=10007,
                                            forced_p2=10009, **CFG))
    assert r.basis[1].coeff(1, 0) == Fraction(-1, 2)


def test_positive_dimensional_rejected():
    with pytest.raises(PositiveDimensionalError):
        groebner_basis_main(ppl("x*y\nx^2"), DriverConfig(seed=1, max_rounds=3, **CFG))


def test_too_few_generators():
    with pytest.raises(ValueError):
        groebner_basis_main(ppl("x"), DriverConfig(seed=1, **CFG))


def test_coefficients_above_int64():
    # raw coefficients >= 2^63 must be reduced mod p before any word cast
    F = ppl("y - 36893488147419103233*x\nx^2 - 3")
    r = groebner_basis_main(F, DriverConfig(seed=1, **CFG))
    assert gb_equal(r.basis, [f.map_coeffs(Fraction, QQ) for f in F])


def test_long_coefficients_round_trip(tmp_path, capsys):
    # beyond CPython's 4300-digit int <-> str limit, in and out
    big = "9" * 4000 + "0" * 999 + "7"
    f = tmp_path / "sys.txt"
    f.write_text("x - %s\ny - 1\n" % big)
    assert cli.main(["solve", str(f), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["y - 1", "x - " + big]
    assert parse_system(out) == parse_system(f.read_text())[::-1]


def test_seed_is_drawn_and_reported(tmp_path, capsys):
    F = ppl("2*y^2 - x\nx^2 - y")
    r = groebner_basis_main(F, DriverConfig(**CFG))
    assert isinstance(r.seed, int)
    again = groebner_basis_main(F, DriverConfig(seed=r.seed, **CFG))
    assert (again.seed, again.p, again.p_prime, again.gamma) == \
           (r.seed, r.p, r.p_prime, r.gamma)
    assert json.loads(emit_report(r, "json"))["seed"] == r.seed
    f = tmp_path / "sys.txt"
    f.write_text("2*y^2 - x\nx^2 - y\n")
    assert cli.main(["solve", str(f), "--seed", "12", "--stats"]) == 0
    assert "# seed=12 p=" in capsys.readouterr().out


def test_emit_formats():
    r = groebner_basis_main(ppl("2*y^2 - x\nx^2 - y"), DriverConfig(seed=2, **CFG))
    text = emit_report(r, "text")
    assert text == "y - x^2\nx^4 - 1/2*x\n"
    payload = json.loads(emit_report(r, "json"))
    assert payload["basis"] == ["y - x^2", "x^4 - 1/2*x"]
    assert payload["primes"] == [r.p, r.p_prime]
    assert payload["seed"] == 2
    assert payload["delta"] == 4
    assert "bounds" in payload and payload["bounds"]["A1"] > 0


def test_cli_solve_and_exit_codes(tmp_path, capsys):
    f = tmp_path / "sys.txt"
    f.write_text("2*y^2 - x\nx^2 - y\n")
    rc = cli.main(["solve", str(f), "--seed", "5", "--prime-bits", "29"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["y - x^2", "x^4 - 1/2*x"]

    rc = cli.main(["oracle", str(f)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["y - x^2", "x^4 - 1/2*x"]

    bad = tmp_path / "bad.txt"
    bad.write_text("x/2\n")
    assert cli.main(["solve", str(bad)]) == 2
    capsys.readouterr()

    # the unit ideal prints 1; a positive-dimensional ideal exits 3
    probes = [("1\nx\n", 0), ("x - 1\nx - 2\n", 0), ("x*y\nx^2\n", 3),
              ("x^2 - 1\nx^3 - 1\n", 3), ("x^2 + y - 1\nx^2 + y - 1\n", 3)]
    for text, code in probes:
        probe = tmp_path / "probe.txt"
        probe.write_text(text)
        rc = cli.main(["solve", str(probe), "--seed", "1", "--prime-bits", "29"])
        out = capsys.readouterr().out
        assert rc == code, text
        if code == 0:
            assert out.splitlines() == ["1"], text

    forced = tmp_path / "forced.txt"
    forced.write_text("2*y^2 - x\nx^2 - y\n")
    assert cli.main(["solve", str(forced), "--seed", "1", "--force-p", "2",
                     "--force-p2", "101", "--prime-bits", "29"]) == 4
    capsys.readouterr()


def test_cli_bounds_and_primary(tmp_path, capsys):
    f = tmp_path / "sys.txt"
    f.write_text("y - x^2\nx^3 - x^2\n")
    rc = cli.main(["bounds", str(f), "--security", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "B_prime" in out and "k0_bound" in out
    rc = cli.main(["solve", str(f), "--primary", "--seed", "4",
                   "--prime-bits", "29", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == ["y", "x^2"]
