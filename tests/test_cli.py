"""Parser round-trips, CLI subcommands, exit codes, report schema."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from realcurve import parse_ideal
from realcurve.cli import main
from realcurve.errors import IdealSyntaxError, UnknownVariable, ZeroPolynomialLine
from realcurve.parsing import ideal_to_string

from conftest import make_ideal, poly

Q = Fraction

NODE_TEXT = "vars: x,y\ny^2 - x^2 - x^3\n"


def test_parse_node():
    i = parse_ideal(NODE_TEXT)
    assert i.variables.names == ("x", "y")
    assert i.generators == (poly("y^2 - x^2 - x^3"),)


def test_parse_implicit_multiplication():
    i = parse_ideal("vars: x,y\ny^3 + 2x^2y - x^4\n")
    assert i.generators == (poly("y^3 + 2x^2y - x^4"),)


def test_parse_zero_denominator():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("vars: x\n1/0\n")
    assert err.value.line == 2


def test_parse_unknown_variable_position():
    with pytest.raises(UnknownVariable) as err:
        parse_ideal("vars: x,y\nx + z^2\n")
    assert (err.value.line, err.value.col) == (2, 5)


def test_parse_long_unsplittable_word_fails_fast(hang_guard):
    # a backtracking split tries Fibonacci(n) ways to cut n x's into x and xx
    with pytest.raises(UnknownVariable) as err:
        parse_ideal("vars: x, xx\n" + "x" * 500 + "q\n")
    assert (err.value.line, err.value.col) == (2, 1)
    # longest name first: xxx is xx * x, so the power binds to x
    assert parse_ideal("vars: x, xx\nxxx^2\n").generators == (poly("xx*x^2", "x,xx"),)


def test_parse_zero_line_rejected():
    with pytest.raises(ZeroPolynomialLine):
        parse_ideal("vars: x,y\nx - x\n")


def test_parse_comments_and_blank_lines():
    text = "# heading\n\nvars: x,y  # inline\n\nx^2 - y # tail\n"
    i = parse_ideal(text)
    assert i.generators == (poly("x^2 - y"),)


def test_parse_parentheses_and_rationals():
    i = parse_ideal("vars: u,v\n(u - 2)^2 + v^2 - 9/4\n")
    assert i.generators == (poly("u^2 - 4u + v^2 + 7/4", "u,v"),)


def test_roundtrip_printing():
    fixtures = [
        make_ideal("x,y", "y^2 - x^2 - x^3"),
        make_ideal("x,y", "y^3 + 2x^2y - x^4", "x - 1/2"),
        make_ideal("x,y,u,v", "x^2 + y^2 - 9/4", "(u-2)^2 + v^2 - 1"),
    ]
    for i in fixtures:
        again = parse_ideal(ideal_to_string(i))
        assert again.variables == i.variables
        assert again.generators == i.generators


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_analyze_text(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    code = main(["analyze", "--ideal", path, "--point", "0,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: not-manifold-point" in out


def test_cli_analyze_machine_schema(tmp_path, capsys):
    path = _write(tmp_path, "vi.ideal", "vars: x,y\ny^3 + 2x^2y - x^4\n")
    code = main(["analyze", "--ideal", path, "--point", "0,0", "--format", "machine"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "manifold-point-at-singularity"
    cert = report["certificate"]
    assert cert["fiber_real_points"] == 1
    assert cert["fiber_complex_points"] == 3
    assert cert["fiber_nonreduced_real_points"] == 0
    assert cert["blowup_depth"] == 1
    assert report["input"]["variables"] == "x,y"
    assert report["schema_version"] == "1"


def test_cli_machine_format_is_stable(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    outputs = []
    for _ in range(2):
        assert main(["analyze", "--ideal", path, "--point", "0,0", "--format", "machine"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["timing_seconds"]  # the one run-dependent field
        outputs.append(json.dumps(report, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_cli_inconclusive_still_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "fat.ideal", "vars: x,y\nx^2\nxy\n")
    code = main(["analyze", "--ideal", path, "--point", "0,0"])
    assert code == 0
    assert "inconclusive" in capsys.readouterr().out


def test_cli_dim(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["dim", "--ideal", path]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_gb_orders(tmp_path, capsys):
    path = _write(tmp_path, "pair.ideal", "vars: x,y\nx + y\nx - y\n")
    assert main(["gb", "--ideal", path, "--order", "lex"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["x", "y"]


def test_cli_gb_elimination_order(tmp_path, capsys):
    path = _write(tmp_path, "elim.ideal", "vars: t,x,y\nt - x\nt - y\n")
    assert main(["gb", "--ideal", path, "--order", "elim:1"]) == 0
    out = capsys.readouterr().out
    assert "x - y" in out


@pytest.mark.parametrize("order", ["elim:0", "elim:2", "elim:5"])
def test_cli_gb_elimination_count_out_of_range(tmp_path, capsys, order):
    # elim:K eliminates the first K variables, so it needs 1 <= K < n
    path = _write(tmp_path, "cusp.ideal", "vars: x,y\nx^3 - y^2\n")
    assert main(["gb", "--ideal", path, "--order", order]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and order in captured.err


@pytest.mark.parametrize("order", ["lex", "grevlex", "elim:1"])
def test_cli_gb_of_the_zero_ideal_is_empty(tmp_path, capsys, order):
    path = _write(tmp_path, "zero.ideal", "vars: x,y\n")
    assert main(["gb", "--ideal", path, "--order", order]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_cli_singlocus_refuses_uncertified_input(tmp_path, capsys):
    path = _write(tmp_path, "mixed.ideal", "vars: x,y,z\n(z-1)xy\nz(z-1)\n")
    assert main(["singlocus", "--ideal", path]) == 2
    assert "equidimensionality" in capsys.readouterr().err


def test_cli_singlocus(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["singlocus", "--ideal", path]) == 0
    out = capsys.readouterr().out
    assert "dimension: 0" in out


def test_cli_realcount(tmp_path, capsys):
    path = _write(tmp_path, "pts.ideal", "vars: t,y\nt\ny^3 + 2y\n")
    assert main(["realcount", "--ideal", path]) == 0
    out = capsys.readouterr().out
    assert "complex_distinct: 3" in out
    assert "real_distinct: 1" in out


def test_cli_realcount_rejects_curves(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["realcount", "--ideal", path]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_oracle(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["oracle", "--ideal", path, "--point", "0,0"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_cli_oracle_custom_radii(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["oracle", "--ideal", path, "--point", "0,0", "--radii", "1/4,1/8"]) == 0
    assert capsys.readouterr().out.strip() == "4"


@pytest.mark.parametrize("radii", ["0,0", "1/4,-1/8"])
def test_cli_oracle_rejects_non_positive_radii(tmp_path, capsys, radii):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["oracle", "--ideal", path, "--point", "0,0", "--radii", radii]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--ideal", "IDEAL", "--point", "0,0", "--max-depth", "-1"],
        ["fourbar", "--l2", "3/2", "--l4", "3/2", "--max-depth", "-1"],
        ["analyze", "--ideal", "IDEAL", "--point", "0,0", "--max-depth", "two"],
    ],
)
def test_cli_rejects_bad_max_depth(tmp_path, capsys, argv):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main([path if a == "IDEAL" else a for a in argv]) == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_max_depth_zero_is_allowed(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    argv = ["analyze", "--ideal", path, "--point", "0,0", "--max-depth", "0"]
    assert main(argv + ["--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"


def test_cli_fourbar(capsys):
    code = main(["fourbar", "--l2", "3/2", "--l4", "3/2", "--format", "machine"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "not-manifold-point"
    assert report["fourbar"]["ideal_dimension"] == 1
    assert report["fourbar"]["singular_locus_dimension"] == 0
    assert report["certificate"]["fiber_real_points"] == 2


def test_cli_usage_error_exit_code(capsys):
    assert main(["analyze", "--point", "0,0"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_bad_point_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["analyze", "--ideal", path, "--point", "0"]) == 1


def test_cli_point_with_a_zero_denominator_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["analyze", "--ideal", path, "--point", "1/0,0"]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: bad rational '1/0'\n"
    assert "Fraction(" not in err


def test_cli_computation_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["analyze", "--ideal", path, "--point", "1,1"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_off_variety_point_prints_plain_coordinates(tmp_path, capsys):
    path = _write(tmp_path, "node.ideal", NODE_TEXT)
    assert main(["analyze", "--ideal", path, "--point", "1,2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: point (1, 2) is not on the variety\n"
    assert "Fraction(" not in err


def test_cli_reports_an_over_wide_degree_as_a_computation_error(tmp_path, capsys):
    path = _write(tmp_path, "wide.ideal", "vars: x,y\ny - x^70000\n")
    assert main(["analyze", "--ideal", path, "--point", "0,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_invalid_fourbar_params(capsys):
    assert main(["fourbar", "--l2", "2", "--l4", "1"]) == 2
    assert "l2 = 2" in capsys.readouterr().err


def test_cli_dim_on_fourbar_file(tmp_path, capsys):
    from realcurve.fourbar import fourbar_ideal
    from realcurve.fourbar import FourBarParams

    i = fourbar_ideal(FourBarParams.of(Q(3, 2), Q(3, 2)))
    path = _write(tmp_path, "fourbar.ideal", ideal_to_string(i))
    assert main(["dim", "--ideal", path]) == 0
    assert capsys.readouterr().out.strip() == "1"