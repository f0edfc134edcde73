import warnings
from pathlib import Path

import pytest

from ghcalc import problems
from ghcalc.cli import main, parse_problem_file, parse_problem_text
from ghcalc.errors import ParseError
from ghcalc.interval import Interval
from ghcalc.iop import Iop, scalarized_descent
from ghcalc.ivector import IVector

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DATA = Path(__file__).resolve().parent / "data"

SLAB = """\
# one-variable kinked example
arity=1
domain=[-2,2]
objective=abs(x1)*[1,3]
base_point=0
candidate=([0,0])
"""

QUARTIC = """\
arity=1
domain=[0,2.5]
objective=[1,1]*pow4(x1) + [0,1]*(pow2(x1) - pow4(x1) + 34) + [1,6]
base_point=1
candidate=([2,4])
"""


@pytest.fixture
def slab_file(tmp_path):
    path = tmp_path / "slab.prob"
    path.write_text(SLAB)
    return str(path)


@pytest.fixture
def quartic_file(tmp_path):
    path = tmp_path / "quartic.prob"
    path.write_text(QUARTIC)
    return str(path)


# ---------------------------------------------------------------------------
# Problem file parsing
# ---------------------------------------------------------------------------


def test_parse_problem_text():
    prob = parse_problem_text(SLAB)
    assert prob.ivf.arity == 1
    assert prob.ivf.domain == ((-2.0, 2.0),)
    assert prob.base_points == ((0.0,),)
    assert prob.candidates == (IVector.of(Interval(0, 0)),)


def test_parse_problem_text_errors():
    with pytest.raises(ParseError):
        parse_problem_text("domain=[0,1]\nobjective=x1\n")  # missing arity
    with pytest.raises(ParseError):
        parse_problem_text("arity=1\ndomain=[0,1]\n")  # missing objective
    with pytest.raises(ParseError):
        parse_problem_text("arity=2\ndomain=[0,1]\nobjective=x1\n")
    with pytest.raises(ParseError):
        parse_problem_text("arity=1\ndomain=[0,1]\nobjective=x1\nbase_point=7\n")
    with pytest.raises(ParseError):
        parse_problem_text("arity=1\ndomain=[0,1]\nobjective=x1\nwhat=1\n")
    with pytest.raises(ParseError):
        parse_problem_text("arity=1\njust a line\n")
    with pytest.raises(ParseError) as exc:
        parse_problem_text("arity=one\n")
    assert exc.value.line == 1


@pytest.mark.parametrize("name, builder", [
    ("abs_slab", problems.abs_slab_ivf),
    ("parabolic_band", problems.smooth_parabolic_ivf),
    ("piecewise_vee", problems.piecewise_vee_ivf),
    ("quartic", problems.quartic_ivf),
])
def test_problem_files_match_the_canned_builders(name, builder):
    assert parse_problem_file(str(PROBLEMS / f"{name}.prob")).ivf == builder()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_eval_points(slab_file, capsys):
    assert main(["eval", slab_file, "0", "1.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "x1,f_lo,f_hi"
    assert out[1] == "0.0,0.0,0.0"
    assert out[2] == "1.5,1.5,4.5"


def test_eval_on_grid_writes_csv(slab_file, tmp_path):
    out_path = tmp_path / "band.csv"
    assert main(["eval", slab_file, "--on-grid", "--grid", "5",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x1,f_lo,f_hi"
    assert len(lines) == 6
    assert lines[3] == "0.0,0.0,0.0"


PLANE = """\
arity=2
domain=[-1,1]
domain=[-0.5,2]
objective=[1,2]*pow2(x1) + [0,1]*abs(x2 - 0.3) + [1,3]*x1*x2
"""


def test_eval_csv_matches_the_per_point_values(tmp_path, capsys):
    path = tmp_path / "plane.prob"
    path.write_text(PLANE)
    f = parse_problem_text(PLANE).ivf

    def per_point(points):
        lines = ["x1,x2,f_lo,f_hi"]
        for p in points:
            value = f.eval(p)
            lines.append(",".join(f"{v!r}" for v in (*p, value.lo, value.hi)))
        return "\n".join(lines) + "\n"

    grid_pts = [tuple(float(v) for v in row) for row in f.grid(13).points()]
    assert main(["eval", str(path), "--on-grid", "--grid", "13"]) == 0
    assert capsys.readouterr().out == per_point(grid_pts)
    given = ["0.1,0.2", "1,2", "0.3333333333333333,-0.5", "0.0,1e-17"]
    assert main(["eval", str(path), *given]) == 0
    assert capsys.readouterr().out == per_point(
        [tuple(float(v) for v in p.split(",")) for p in given])


def test_eval_without_points_prints_header_only(slab_file, capsys):
    assert main(["eval", slab_file]) == 0
    assert capsys.readouterr().out == "x1,f_lo,f_hi\n"


def test_subgrad_check_yes(quartic_file, capsys):
    assert main(["subgrad-check", quartic_file]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_subgrad_check_no_with_witness(slab_file, capsys):
    assert main(["subgrad-check", slab_file, "--g", "[2,3]"]) == 1
    out = capsys.readouterr().out.strip()
    assert out.startswith("NO witness=")


def test_subgrad_check_strict(quartic_file, capsys):
    assert main(["subgrad-check", quartic_file, "--strict"]) == 1
    assert capsys.readouterr().out.startswith("NO")


def test_subgrad_check_overrides(slab_file, capsys):
    assert main(["subgrad-check", slab_file, "--at", "1", "--g", "([1,3])"]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_subdiff_scan(slab_file, tmp_path):
    out_path = tmp_path / "region.csv"
    assert main(["subdiff-scan", slab_file, "--bounds=-4,2,-2,4",
                 "--steps", "13", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "g_lo,g_hi,feasible"
    assert len(lines) == 13 * 13 + 1


def test_subdiff_scan_empty_region_exits_one(slab_file, capsys):
    assert main(["subdiff-scan", slab_file, "--bounds=5,6,-6,-5",
                 "--steps", "5"]) == 1


def test_subdiff_scan_bad_bounds(slab_file, capsys):
    assert main(["subdiff-scan", slab_file, "--bounds=1,2,3"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bounds, shown", [
    ("nan,1,-1,1", "((nan, 1.0), (-1.0, 1.0))"),
    ("2,-4,-2,4", "((2.0, -4.0), (-2.0, 4.0))"),
    ("-4,2,4,-2", "((-4.0, 2.0), (4.0, -2.0))"),
    ("-4,2,-2,inf", "((-4.0, 2.0), (-2.0, inf))"),
])
def test_subdiff_scan_refuses_bounds_that_are_not_finite_or_are_reversed(
        slab_file, bounds, shown, capsys):
    # a NaN bound printed numpy warnings and NaN rows, and reversed bounds
    # rasterized backwards; both exited 0
    assert main(["subdiff-scan", slab_file, f"--bounds={bounds}", "--steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: scan bounds must be finite, each lo <= hi, got {shown}\n"


@pytest.mark.parametrize("shift", ["", " + [1e9,1e9]"], ids=["plain", "shifted"])
def test_a_2d_subgrad_check_does_not_move_under_a_constant_shift(shift, tmp_path, capsys):
    path = tmp_path / "kinked2d.prob"
    path.write_text("arity=2\ndomain=[-1,1]\ndomain=[-1,1]\n"
                    f"objective=abs(x1)*[1,3] + abs(x2)*[1,2]{shift}\n")
    assert main(["subgrad-check", str(path), "--at", "0,0", "--g", "([1,1],[1,1])",
                 "--grid", "41"]) == 0
    assert capsys.readouterr().out == "YES\n"


@pytest.mark.parametrize("steps", ["0", "1"])
def test_subdiff_scan_refuses_fewer_than_two_steps(slab_file, steps, capsys):
    assert main(["subdiff-scan", slab_file, "--bounds=-4,2,-2,4", "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need at least 2 scan steps per axis, got ({steps}, {steps})\n"


def test_efficient(slab_file, capsys):
    assert main(["efficient", slab_file, "--grid", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x1,f_lo,f_hi,efficient"
    flagged = [l for l in lines[1:] if l.endswith(",1")]
    assert flagged == ["0.0,0.0,0.0,1"]


def test_an_overflow_to_inf_prints_no_warning(tmp_path, capsys):
    path = tmp_path / "overflow_1d.prob"
    path.write_text("arity=1\ndomain=[-2,2]\nobjective=x1 + [0,1e308]*pow4(x1)\n")
    out = tmp_path / "efficient.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["efficient", str(path), "--grid", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1] == "-2.0,-2.0,inf,1"


def test_descent(quartic_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    assert main(["descent", quartic_file, "--x0", "2", "--iters", "200",
                 "--out", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x_best=")
    assert " efficient=" in out
    x_best = float(out.split("=", 1)[1].split(" ", 1)[0])
    assert abs(x_best) < 0.05
    # the file holds the descent's trace, one row per iteration; it stops
    # before its 200 iterations, and the row where it stops has step 0
    f = parse_problem_file(quartic_file).ivf
    result = scalarized_descent(Iop(f), [2.0], iters=200, grid=f.grid(201))
    assert trace_path.read_text() == result.trace_to_csv()
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "iter,x1,f_lo,f_hi,scalarized_value,step"
    assert 1 < len(result.trace) == len(lines) - 1 < 200
    assert lines[-1].endswith(",0.0")


@pytest.mark.parametrize("x0", ["-2", "6"])
def test_vee_descent_trace_matches_the_saved_bytes(x0, tmp_path, capsys):
    # the saved traces pin every iterate of both descents, through the CSV
    # formatter
    trace_path = tmp_path / "trace.csv"
    assert main(["descent", str(PROBLEMS / "piecewise_vee.prob"), "--x0", x0,
                 "--out", str(trace_path)]) == 0
    assert trace_path.read_bytes() == (DATA / f"vee_descent_from_{x0}.csv").read_bytes()


def test_descent_without_iterations_exits_two(quartic_file, capsys):
    assert main(["descent", quartic_file, "--x0", "2", "--iters", "0"]) == 2
    assert "error: iters must be at least 1, got 0" in capsys.readouterr().err


def test_examples_selftest(capsys):
    assert main(["examples", "--grid", "101"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert all(line.startswith("PASS ") for line in out)


def test_examples_with_a_tolerance(capsys):
    assert main(["examples", "--grid", "101", "--tol", "1e-6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert all(line.startswith("PASS ") for line in out)


SMOOTH_2D = """\
arity=2
domain=[-1,1]
domain=[-1,1]
objective=[1,2]*pow2(x1) + [0,1]*pow2(x2) + pow2(x2 - 0.5)
base_point=0.5,0.5
"""


KINKED_2D = SMOOTH_2D.replace("[1,2]*pow2(x1) + [0,1]*pow2(x2) + pow2(x2 - 0.5)",
                             "abs(x1)*[1,2] + abs(x2 - 0.3)*[0.5,1]")

CONVEX_2D = """\
arity=2
domain=[-1,1]
domain=[-0.5,2]
objective=[1,2]*pow2(x1) + [0,1]*abs(x2 - 0.25) + [3,4]
"""


@pytest.mark.parametrize("text", [SMOOTH_2D, KINKED_2D], ids=["smooth", "kinked"])
@pytest.mark.parametrize("w", ["0.5", "0.2"])
def test_descent_on_a_2d_problem_ends_at_an_efficient_point(text, w, tmp_path, capsys):
    path = tmp_path / "problem2d.prob"
    path.write_text(text)
    assert main(["descent", str(path), "--grid", "41", "--w", w]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x_best=") and out.endswith(" efficient=1\n")


def test_a_fixed_variable_is_sampled_at_one_node(tmp_path, capsys):
    path = tmp_path / "fixed2d.prob"
    path.write_text(CONVEX_2D.replace("domain=[-0.5,2]", "domain=[0.3,0.3]"))
    assert main(["efficient", str(path), "--grid", "61"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 62 and [l for l in lines if l.endswith(",1")] == ["0.0,0.3,3.0,4.05,1"]
    assert main(["descent", str(path), "--x0", "-0.5,0.3", "--grid", "61"]) == 0
    assert capsys.readouterr().out.endswith(" efficient=1\n")


# a point that starts with '-' but is no plain negative decimal is a value
# in every place a point goes, as it is after '='
@pytest.mark.parametrize("argv, rc, expected", [
    (["descent", "CONVEX_2D", "--x0", "-0.5,0.5", "--grid", "41"], 0,
     ["descent", "CONVEX_2D", "--x0=-0.5,0.5", "--grid", "41"]),
    (["subgrad-check", str(PROBLEMS / "abs_slab.prob"), "--at", "-1e-3", "--g", "[1,3]"], 1,
     "NO witness=0.0\n"),
    (["eval", "CONVEX_2D", "-0.5,0.5"], 0, "x1,x2,f_lo,f_hi\n-0.5,0.5,3.25,4.75\n"),
    (["subdiff-scan", str(PROBLEMS / "abs_slab.prob"), "--bounds", "-4,2,-2,4"], 0,
     ["subdiff-scan", str(PROBLEMS / "abs_slab.prob"), "--bounds=-4,2,-2,4"]),
], ids=["descent_x0", "subgrad_check_at", "eval_point", "subdiff_scan_bounds"])
def test_a_point_with_a_leading_minus_is_a_value(argv, rc, expected, tmp_path, capsys):
    path = tmp_path / "convex2d.prob"
    path.write_text(CONVEX_2D)

    def run(args):
        code = main([str(path) if a == "CONVEX_2D" else a for a in args])
        return code, capsys.readouterr()

    code, captured = run(argv)
    assert (code, captured.err) == (rc, "")
    if isinstance(expected, list):
        assert captured.out == run(expected)[1].out
        if argv[0] == "descent":
            assert captured.out.endswith(" efficient=1\n")
    else:
        assert captured.out == expected


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("arity=1\n")
    assert main(["eval", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["eval", str(tmp_path / "missing.prob")]) == 2


@pytest.mark.parametrize("argv, point, coordinate", [
    (["descent", "--x0"], "nan", "nan"),
    (["subgrad-check", "--at"], "nan", "nan"),
    (["subdiff-scan", "--at"], "inf", "inf"),
    (["eval"], "1,1e999", "inf"),
])
def test_a_non_finite_point_flag_exits_two_naming_the_coordinate(argv, point, coordinate,
                                                                quartic_file, capsys):
    assert main([argv[0], quartic_file, *argv[1:], point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: non-finite coordinate {coordinate} in point '{point}'\n"


@pytest.mark.parametrize("value, coordinate", [("nan", "nan"), ("0.5,inf", "inf"),
                                               ("-1e999", "-inf")])
def test_a_non_finite_base_point_line_is_refused(value, coordinate, tmp_path, capsys):
    text = f"arity=1\ndomain=[0,2.5]\nobjective=pow4(x1)\nbase_point={value}\n"
    with pytest.raises(ParseError, match=f"^non-finite coordinate {coordinate} in point") as exc:
        parse_problem_text(text)
    assert exc.value.line == 4
    path = tmp_path / "nonfinite.prob"
    path.write_text(text)
    assert main(["descent", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: non-finite coordinate {coordinate} in point "
                                       f"'{value}' (line 4, col 1)\n")


def test_point_dimension_mismatch_exits_two(slab_file, capsys):
    assert main(["eval", slab_file, "1,2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--tol", "1e-8"],
    ["efficient", "--tol", "1e-8"],
    ["descent", "--tol", "1e-8"],
    ["subgrad-check", "--out", "x.csv"],
    ["examples", "--out", "x.csv"],
])
def test_flags_a_subcommand_does_not_read_are_refused(argv, slab_file):
    if argv[0] != "examples":
        argv = [argv[0], slab_file, *argv[1:]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["subgrad-check", "--g", "[0,0]"], "--at"),
    (["subdiff-scan"], "--at"),
    (["descent"], "--x0"),
])
def test_missing_base_point_exits_two(argv, flag, tmp_path, capsys):
    path = tmp_path / "nobase.prob"
    path.write_text("arity=1\ndomain=[-2,2]\nobjective=abs(x1)*[1,3]\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert f"no base point: pass {flag} or add base_point=" in capsys.readouterr().err
