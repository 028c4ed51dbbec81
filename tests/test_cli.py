import gc
import json
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner, _NamedTextIOWrapper

import nashfan.cli
import nashfan.fan
import nashfan.nash
from nashfan import groebner
from nashfan.algebra import Poly
from nashfan.cli import main
from nashfan.fan import GroebnerCone
from nashfan.groebner import MarkedBasis
from nashfan.lattice import Cone2
from nashfan.render import _fmt


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_gb_text_output():
    result = run("gb", "--n", "1", "--format", "text")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines == [
        "_u^2_ - 2u + 1",
        "_u^2v_ - u - uv + 1",
        "_u^2v^2_ - 2uv + 1",
        "_u^3v^4_ + u - 4uv + 2",
    ]


def test_gb_json_round_trip(a3, jn_basis):
    result = run("gb", "--n", "1", "--format", "json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    again = MarkedBasis.from_json(a3[1], data)
    assert again.elements == jn_basis(1).elements


def test_gb_writes_file(tmp_path):
    out = tmp_path / "basis.json"
    result = run("gb", "--n", "1", "--format", "json", "--out", str(out))
    assert result.exit_code == 0
    assert json.loads(out.read_text())["elements"]


def test_fan_outputs():
    text = run("fan", "--n", "1", "--format", "text")
    assert text.exit_code == 0
    assert "multiplicity 2" in text.output
    data = json.loads(run("fan", "--n", "1", "--format", "json").output)
    assert data["support"] == {"rays": [[4, -3], [0, 1]]}
    assert [c["multiplicity"] for c in data["cones"]] == [2, 2]
    svg = run("fan", "--n", "1", "--format", "svg")
    assert svg.output.startswith("<svg")


def test_nash_verdicts():
    singular = run("nash", "--cone", "0,1,4,-3", "--n", "1")
    assert singular.exit_code == 0
    assert singular.output.strip() == "SINGULAR (max multiplicity 2)"
    regular = run("nash", "--cone", "1,0,0,1", "--n", "1")
    assert regular.exit_code == 0
    assert regular.output.strip() == "REGULAR (all multiplicities 1)"
    # the dual of this cone leaves the first quadrant
    off_quadrant = run("nash", "--cone", "1,0,1,2", "--n", "1")
    assert off_quadrant.exit_code == 0
    assert off_quadrant.output.strip() == "REGULAR (all multiplicities 1)"
    data = json.loads(run("nash", "--cone", "0,1,4,-3", "--n", "1", "--format", "json").output)
    assert data["is_singular"] is True
    assert max(data["multiplicities"]) == 2


def test_nash_json_bytes_match_golden(tmp_path):
    """The exact bytes of ``nash``, ``fan``, ``gb`` and ``verify --format
    json``, key order and indent included, of ``verify``'s text report, and
    of ``fan --format svg``, coordinates included; on stdout and in the file
    that ``--out`` writes.

    The second cone's dual leaves the first quadrant."""
    golden = Path(__file__).parent / "golden"
    out = tmp_path / "out"
    for args, name in (("nash --cone 0,1,7,-3 --n 2 --format json", "nash_0_1_7_-3_n2.json"),
                       ("nash --cone 1,0,1,2 --n 1 --format json", "nash_1_0_1_2_n1.json"),
                       ("fan --n 4 --format json", "fan_n4.json"),
                       ("gb --n 8 --format json", "gb_n8.json"),
                       ("fan --n 3 --format svg", "fan_n3.svg"),
                       ("fan --n 12 --format svg", "fan_n12.svg"),
                       ("verify --n-max 6 --format json", "verify_n6.json"),
                       ("verify --n-max 6", "verify_n6.txt")):
        want = (golden / name).read_bytes()
        result = run(*args.split())
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == want, name
        result = run(*args.split(), "--out", str(out))
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == want, name


def test_nash_usage_and_engine_errors():
    assert run("nash", "--cone", "0,1,4", "--n", "1").exit_code == 2
    assert run("nash", "--cone", "1,0,2,0", "--n", "1").exit_code == 2
    assert run("nash", "--cone", "0,0,2,1", "--n", "1").exit_code == 2
    assert run("gb").exit_code == 2


def test_reduction_cap_is_an_error_not_a_traceback(monkeypatch):
    """Hitting the S-pair cap ends in exit 2 with one error line on stderr."""
    monkeypatch.setattr(groebner, "MAX_REDUCTIONS", 0)
    result = run("nash", "--cone", "0,1,7,-3", "--n", "2")
    assert result.exit_code == 2
    assert result.stderr == "error: more than 0 S-pair reductions\n"
    assert result.stdout == "" and "Traceback" not in result.output


def test_generator_cap_is_an_error_not_a_hang():
    """A cone whose semigroup has 100,001 generators ends in exit 2 before
    J_n builds a product."""
    result = run("nash", "--cone", "0,1,100000,-1", "--n", "1")
    assert result.exit_code == 2
    assert result.stderr == "error: the semigroup has 100001 generators, above the cap of 1000\n"
    assert result.stdout == ""


def test_stalled_sweep_is_an_error_not_a_traceback(monkeypatch):
    """A sweep that does not advance ends in exit 2 with one error line on stderr."""
    monkeypatch.setattr(nashfan.fan, "cone_of_basis", lambda basis: GroebnerCone(Cone2((1, 0), (0, 1)), basis))
    result = run("nash", "--cone", "0,1,7,-3", "--n", "1")
    assert result.exit_code == 2
    assert result.stderr == "error: cone Cone2(ray1=(1, 0), ray2=(0, 1)) does not start at frontier ray (7, -3)\n"
    assert result.stdout == "" and "Traceback" not in result.output


def test_out_into_missing_directory(tmp_path):
    out = tmp_path / "missing" / "x.json"
    result = run("gb", "--n", "1", "--format", "json", "--out", str(out))
    assert result.exit_code == 2
    assert result.output.startswith("error: ")
    assert not out.exists()


def test_nonpositive_n_is_a_usage_error(tmp_path):
    for args in (
        ("gb", "--n", "0"),
        ("fan", "--n", "0"),
        ("verify", "--n-max", "0"),
        ("figures", "--n", "0", "--out", str(tmp_path / "f.svg")),
        ("nash", "--cone", "0,1,4,-3", "--n", "0"),
    ):
        result = run(*args)
        assert result.exit_code == 2, args
        assert "must be positive" in result.output, args


def test_fan_and_nash_never_expand_products(monkeypatch):
    """Both commands build J_n on the jn_bases tower, not from jn_generators."""
    commands = (
        ("nash", "--cone", "0,1,7,-3", "--n", "2", "--format", "json"),
        ("fan", "--n", "2", "--format", "json"),
    )
    expected = [run(*args).output for args in commands]

    def products(*args):
        raise AssertionError("jn_generators called")

    monkeypatch.setattr(nashfan.nash, "jn_generators", products)
    monkeypatch.setattr(nashfan.cli, "jn_generators", products, raising=False)
    for args, want in zip(commands, expected):
        result = run(*args)
        assert result.exit_code == 0, (args, result.output)
        assert result.output == want


def test_verify_small():
    result = run("verify", "--n-max", "1", "--format", "json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["all_passed"] is True
    assert all(c["pass"] for c in data["claims"])
    text = run("verify", "--n-max", "1")
    assert text.exit_code == 0
    assert "ALL PASS" in text.output


def test_verify_reports_a_failing_claim(monkeypatch):
    """A wrong parity ray fails claim c at every n: its records carry the
    cone as witness, every other record an empty one, and the exit code is 1."""
    monkeypatch.setattr(nashfan.nash, "l_vector", lambda n: (1, 0))
    text = run("verify", "--n-max", "3")
    assert text.exit_code == 1
    lines = text.output.splitlines()
    assert any(line.startswith("n=1 claim c: FAIL  (cone=") for line in lines)
    assert lines[-1] == "FAILURES PRESENT"
    result = run("verify", "--n-max", "3", "--format", "json")
    assert result.exit_code == 1
    data = json.loads(result.output)
    assert data["all_passed"] is False
    for c in data["claims"]:
        if c["claim_id"] == "c":
            assert c["pass"] is False and c["witness"], c
        else:
            assert c["pass"] is True and c["witness"] == "", c
    assert [c["n"] for c in data["claims"] if c["claim_id"] == "c"] == [1, 2, 3]


def test_verify_reports_a_missing_witness_at_either_parity(monkeypatch):
    """Claim e looks for the second-ray witness where the parity of n puts
    it.  At n = 3 the element marked q_1 = (3,1) of P_3 holds r_1 = (4,5)
    of P_2; at n = 4 the element marked p = (3,0) of P_4 holds s = (6,8)
    of P_3.  A tower whose basis misses that term at those two n fails
    claim e there and nowhere else, and verify exits 1."""
    witnesses = {3: ((3, 1), (4, 5)), 4: ((3, 0), (6, 8))}
    tower = nashfan.nash.jn_bases

    def dropping(sg, ord):
        for n, basis in enumerate(tower(sg, ord), 1):
            if n in witnesses:
                mark, term = witnesses[n]
                elements = []
                for g, m in basis.elements:
                    if m == mark:
                        assert term in g.terms, n
                        g = Poly(sg, {e: c for e, c in g.terms.items() if e != term})
                    elements.append((g, m))
                basis = MarkedBasis(tuple(elements), basis.ordering)
            yield basis

    monkeypatch.setattr(nashfan.nash, "jn_bases", dropping)
    result = run("verify", "--n-max", "5", "--format", "json")
    assert result.exit_code == 1
    failed = [c for c in json.loads(result.output)["claims"] if c["claim_id"] == "e" and not c["pass"]]
    assert [(c["n"], c["witness"]) for c in failed] == [
        (n, f"element marked {mark} misses {term}") for n, (mark, term) in witnesses.items()
    ]


def test_figures_marker_counts(tmp_path):
    out1 = tmp_path / "n1.svg"
    assert run("figures", "--n", "1", "--out", str(out1)).exit_code == 0
    svg1 = out1.read_text()
    assert svg1.count('class="p-marker"') == 4
    assert svg1.count('class="d-marker"') == 3
    out2 = tmp_path / "n2.svg"
    assert run("figures", "--n", "2", "--out", str(out2)).exit_code == 0
    svg2 = out2.read_text()
    assert svg2.count('class="p-marker"') == 5
    assert svg2.count('class="d-marker"') == 6


def test_figures_bytes_match_golden(tmp_path):
    """The exact bytes of ``figures``: rays, dividing line and markers."""
    out = tmp_path / "n6.svg"
    assert run("figures", "--n", "6", "--out", str(out)).exit_code == 0
    assert out.read_bytes() == (Path(__file__).parent / "golden" / "figures_n6.svg").read_bytes()


def test_svg_numbers_are_exact_or_two_decimals_ties_to_even():
    assert _fmt(Fraction(7)) == "7"
    assert _fmt(Fraction(1, 8)) == "0.12"
    assert _fmt(Fraction(3, 8)) == "0.38"
    assert _fmt(Fraction(5, 2)) == "2.50"


def test_figures_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run("figures", "--n", "3", "--out", str(a))
    run("figures", "--n", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_in_process_calls_free_their_captured_output():
    """Echo without file= lets click cache each captured stream for good."""
    runner = CliRunner()
    for args, code in ((("gb", "--n", "1", "--format", "json"), 0), (("gb", "--n", "0"), 2)):
        for _ in range(20):
            assert runner.invoke(main, list(args)).exit_code == code
        gc.collect()
        alive = sum(isinstance(o, _NamedTextIOWrapper) for o in gc.get_objects())
        assert alive <= 1, (args, alive)
