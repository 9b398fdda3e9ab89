"""Tests of the benchmark's independent checker and generator.

    python3 -m pytest perfbench/test_check.py -q
"""

import pytest

import check
import gen

# x^2 + y^2 = 5, x*y = 2: the points (1, 2), (2, 1), (-1, -2), (-2, -1),
# in shape position y = g(x), h(x) = (x^2 - 1)(x^2 - 4).
CIRCLE = "x^2 + y^2 - 5\nx*y - 2\n"
CIRCLE_BASIS = "y + 1/2*x^3 - 5/2*x\nx^4 - 5*x^2 + 4\n"

# lowest forms x^2 and y^2: multiplicity 4 at the origin, where the
# component is <x^2, y^2> (x^2 = -y^3 = x^3*y, so x^2*(1 - x*y) = 0)
CUSPS = "y^3 + x^2\nx^3 + y^2\n"
CUSPS_COMPONENT = "y^2\nx^2\n"


def test_accepts_the_right_bases():
    check.check_basis(CIRCLE, CIRCLE_BASIS, "full")
    check.check_basis("x^2 - 1\ny^2 - 1\n", "y^2 - 1\nx^2 - 1\n", "full")
    check.check_basis(CUSPS, CUSPS_COMPONENT, "primary")


def test_accepts_a_third_generator_in_the_ideal():
    # (x + 1) * f1 - y * f2 lies in <f1, f2>
    third = check.format_poly(gen._add(
        gen._mul({(1, 0): 1, (0, 0): 1}, check.parse_poly("x^2 + y^2 - 5")),
        gen._mul({(0, 1): -1}, check.parse_poly("x*y - 2"))))
    check.check_basis(CIRCLE + third + "\n", CIRCLE_BASIS, "full")


@pytest.mark.parametrize("output, why", [
    ("y + 1/2*x^3 - 5/2*x\nx^4 - 5*x^2 + 3\n", "generator"),     # perturbed
    ("y + 1/2*x^3 - 3/2*x\nx^4 - 5*x^2 + 4\n", "generator"),     # perturbed
    ("x^4 - 5*x^2 + 4\n", "generator"),                          # dropped
    ("y + 1/2*x^3 - 5/2*x\n", "generator"),                      # dropped
    ("y + 1/2*x^3 - 5/2*x + x^4 - 5*x^2 + 4\nx^4 - 5*x^2 + 4\n",
     "reduced"),                                                 # not reduced
    ("2*y + x^3 - 5*x\nx^4 - 5*x^2 + 4\n", "monic"),             # not monic
    ("y - x\nx^4 - 5*x^2 + 4\n", "generator"),                   # other ideal
    ("y - 1\nx - 1\n", "generator"),                             # other point
    ("y + x - 3\nx^2 - 3*x + 2\n", "staircase"),                 # two of the points
])
def test_rejects_wrong_full_bases(output, why):
    with pytest.raises(check.CheckError, match=why):
        check.check_basis(CIRCLE, output, "full")


def test_rejects_a_basis_that_is_not_groebner():
    # monic and inter-reduced, but S(y^2 - x, x*y - 1) leaves y - x^2
    with pytest.raises(check.CheckError, match="S-polynomial"):
        check.check_reduced([check.parse_poly("y^2 - x"), check.parse_poly("x*y - 1")])


@pytest.mark.parametrize("output, why", [
    ("y^2\nx*y\nx^2\n", "staircase"),      # too small: not the component
    ("y^2 - x\nx^2\n", "generator"),       # other ideal of the same size
    ("y^2\nx^3\n", "generator"),           # bigger ideal's complement
])
def test_rejects_wrong_primary_components(output, why):
    with pytest.raises(check.CheckError, match=why):
        check.check_basis(CUSPS, output, "primary")


def test_rejects_inputs_without_a_pinned_colength():
    # the top forms x*y and x*(x + y) share the factor x
    with pytest.raises(check.CheckError, match="resultant"):
        check.check_basis("x*y - 1\nx^2 + x*y - 2\n", "y - 1\nx - 1\n", "full")


def test_parser_reads_the_program_format():
    assert check.parse_poly("-x^4 - 1/2*x*y^2 + 3") == {
        (4, 0): -1, (1, 2): check.Fraction(-1, 2), (0, 0): 3}
    with pytest.raises(check.CheckError):
        check.parse_poly("x^ + 1")


def test_parser_reads_numbers_longer_than_4300_digits():
    n = 10 ** 5000 + 7
    assert check.parse_poly("x - %s/3" % ("1" + "0" * 4999 + "7")) == {
        (1, 0): 1, (0, 0): check.Fraction(-n, 3)}


def test_format_and_parse_round_trip():
    p = {(3, 1): -12, (0, 2): 1, (1, 0): 7, (0, 0): -1}
    assert check.parse_poly(check.format_poly(p)) == p


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_seeded_and_pins_the_colength(workload):
    systems = gen.generate(workload, 7)
    assert systems == gen.generate(workload, 7)
    assert systems != gen.generate(workload, 8)
    for s in systems:
        F = check.parse_system(s.text)
        assert len(F) == s.t
        assert check.expected_colength(F, s.task) == s.delta


def test_tall_keeps_one_system_that_does_not_depend_on_the_seed():
    fixed = [s for s in gen.generate("tall", 1) if s.label.endswith(".fixed")]
    assert fixed == [s for s in gen.generate("tall", 2) if s.label.endswith(".fixed")]
    assert len(fixed) == 1
