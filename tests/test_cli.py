import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from qesolve import cli
from qesolve.cli import (
    SCAN_HEADER,
    build_report,
    main,
    render_report,
)
from qesolve.families import MorseParams, SexticParams, make_morse, make_sextic
from qesolve.analysis import GridSpec
from qesolve.errors import ConvergenceFailureError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sextic_fixture(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "sextic", "--two-j", "1", "--mu", "1")
    assert code == 0
    data = json.loads(out)
    shifted = [complex(lv["energy_shifted"]["re"], lv["energy_shifted"]["im"]) for lv in data["levels"]]
    assert abs(shifted[0] + 2.0) <= 1e-10
    assert abs(shifted[1] - 2.0) <= 1e-10
    assert abs(complex(data["shift"]["re"], data["shift"]["im"]) + 3j) <= 1e-10
    assert data["common_shift_found"] is True
    assert data["residual_sup"] <= 1e-10


def test_solve_sextic_trivial_case(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "sextic", "--two-j", "0", "--mu", "0")
    assert code == 0
    data = json.loads(out)
    level = data["levels"][0]
    assert level["energy_base"] == {"re": 0, "im": 0}
    assert data["shift"] == {"re": 0, "im": 0}
    assert data["pt_symmetric"] is True  # real even potential at mu = 0


def test_solve_morse_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--family", "morse", "--two-j", "0", "--mu", "1", "--a", "1,0", "--d", "1,0"
    )
    assert code == 0
    data = json.loads(out)
    level = data["levels"][0]
    assert abs(complex(level["energy_shifted"]["re"], level["energy_shifted"]["im"])) <= 1e-10
    assert abs(complex(data["shift"]["re"], data["shift"]["im"]) + 1.5j) <= 1e-10


# Each published closed form's outcome per reference case and mu, in report
# order: the levels, the additive constant, then (two-level sextic, mu != 0)
# the upper level's c_1.  The two sextic levels agree or disagree together,
# and the +i*mu constant disagrees exactly when mu != 0.
A, D = "AGREES", "DISAGREES"
REFERENCE_CASES = {
    "sextic-0": (lambda mu: make_sextic(SexticParams.from_mu(mu, 0)), 1),
    "sextic-1": (lambda mu: make_sextic(SexticParams.from_mu(mu, 1)), 2),
    "morse-0": (lambda mu: make_morse(MorseParams.from_mu(mu, 0)), 1),
    "morse-1": (lambda mu: make_morse(MorseParams.from_mu(mu, 1)), 2),
}
PUBLISHED_VERDICTS = {
    "sextic-0": {0.0: (A, A), 0.7: (A, D), 1.3: (A, D), 2**0.5: (A, D), 2.2: (A, D)},
    "sextic-1": {
        0.0: (A, A, A),
        0.7: (A, A, A, D),
        1.3: (A, A, A, D),
        2**0.5: (D, D, A, D),
        2.2: (D, D, D, D),
    },
    "morse-0": dict.fromkeys((0.0, 0.7, 1.3, 2**0.5, 2.2), (A, A)),
    "morse-1": dict.fromkeys((0.0, 0.7, 1.3, 2**0.5, 2.2), (D, D)),
}


@pytest.mark.parametrize("mu", (0.0, 0.7, 1.3, 2**0.5, 2.2), ids=("0", "0.7", "1.3", "sqrt2", "2.2"))
@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_published_verdicts_per_closed_form(case, mu):
    make, dim = REFERENCE_CASES[case]
    report, _ = build_report(make(mu))
    verdicts = [line for line in report.published_comparison if " -> " in line]
    assert len([line for line in verdicts if line.startswith("published level E_")]) == dim
    assert tuple(line.rsplit(" -> ", 1)[1] for line in verdicts) == PUBLISHED_VERDICTS[case][mu]
    # the notes follow the verdicts
    assert report.published_comparison[: len(verdicts)] == tuple(verdicts)
    # a zero part prints as 0, never with the sign of a rounding-level -0.0
    assert not [line for line in verdicts if re.search(r"-0(?![.\d])", line)]


def test_solve_morse_explicit_b(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--family", "morse", "--two-j", "0", "--b", "0,0", "--a", "1,0", "--d", "1,0"
    )
    assert code == 0
    data = json.loads(out)
    level = data["levels"][0]
    assert abs(complex(level["energy_base"]["re"], level["energy_base"]["im"]) - 2.0) <= 1e-12
    assert data["published_comparison"] == []  # no mu, no published fixture to compare


def _as_json(value):
    """value as json.loads reads back its render: complex as {re, im}, tuples as lists."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _as_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    return value


def test_report_round_trip():
    # floats print at 17 significant digits, so json.loads recovers every double
    report, _ = build_report(make_morse(MorseParams.from_mu(1.0, 1)))
    assert json.loads(render_report(report)) == _as_json(report)


def test_report_round_trip_with_verification():
    report, ok = build_report(
        make_sextic(SexticParams.from_mu(1.0, 0)),
        verify=True,
        grid=GridSpec(-6.0, 6.0, 200),
    )
    assert ok
    assert json.loads(render_report(report)) == _as_json(report)


def test_byte_determinism(capsys):
    args = ("solve", "--family", "sextic", "--two-j", "2", "--mu", "0.7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    scan_args = ("scan", "--family", "morse", "--two-j", "1", "--mu-range", "0:1:0.25")
    _, first, _ = run_cli(capsys, *scan_args)
    _, second, _ = run_cli(capsys, *scan_args)
    assert first == second


def test_scan_header_and_empty_range(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "sextic", "--two-j", "1", "--mu-range", "1:0:0.1"
    )
    assert code == 0
    assert out == SCAN_HEADER + "\n"


def test_scan_reality_transition(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "sextic", "--two-j", "1", "--mu-range", "0:2:0.2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == SCAN_HEADER
    for line in lines[1:]:
        cells = line.split(",")
        mu, im_shifted, found = float(cells[0]), float(cells[5]), int(cells[7])
        if mu * mu < 2.0:
            assert found == 1
            assert abs(im_shifted) <= 1e-10
        else:
            assert found == 0
            assert abs(im_shifted) > 0.1


def test_scan_boundary_degeneracy(capsys):
    root2 = math.sqrt(2.0)
    code, out, _ = run_cli(
        capsys, "scan", "--family", "sextic", "--two-j", "1", "--mu-range", f"{root2}:{root2}:1"
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2
    for row in rows:
        cells = row.split(",")
        assert int(cells[7]) == 1
        assert abs(complex(float(cells[4]), float(cells[5]))) <= 1e-6


def test_verify_passes_on_fixture(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--family", "morse", "--two-j", "0", "--mu", "1",
        "--a", "1,0", "--d", "1,0", "--grid-n", "500",
    )
    assert code == 0
    data = json.loads(out)
    v = data["verification"]
    assert v["passed"] is True
    assert v["fd"]["defect"] <= v["fd"]["defect_bound"]
    assert v["norms"] is not None and v["norms"][0] > 0


def test_verify_rejects_injected_error(capsys, monkeypatch):
    solve_model = cli.solve_model

    def off_by_a_tenth(model):
        solutions, shift_result = solve_model(model)
        wrong = [
            dataclasses.replace(s, energy_base=s.energy_base + 0.1)
            for s in solutions
        ]
        return wrong, shift_result

    monkeypatch.setattr(cli, "solve_model", off_by_a_tenth)
    code, out, _ = run_cli(
        capsys,
        "verify", "--family", "sextic", "--two-j", "1", "--mu", "1",
        "--grid-n", "300",
    )
    assert code == 2
    data = json.loads(out)  # report still emitted
    assert data["verification"]["passed"] is False


def test_verify_passes_an_energy_zero_level(capsys):
    # sextic mu = 0, 2j = 2 has a level at E = 0 exactly; the residual gate
    # used to fail it at 5.56
    code, out, _ = run_cli(capsys, "verify", "--family", "sextic", "--two-j", "2", "--mu", "0")
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["passed"] is True
    assert data["residual_sup"] <= 1e-15


def test_verify_custom_domain(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--family", "sextic", "--two-j", "0", "--mu", "1",
        "--grid-n", "300", "--domain=-5,5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["fd"]["x_min"] == -5


def test_partner_difference_samples(capsys):
    code, out, _ = run_cli(
        capsys,
        "partner", "--family", "sextic", "--two-j", "0", "--a", "0,0",
        "--samples", "3", "--range=-1,1",
    )
    assert code == 0
    data = json.loads(out)
    diffs = [complex(r["difference"]["re"], r["difference"]["im"]) for r in data["samples"]]
    assert [round(d.real, 9) for d in diffs] == [6.0, 0.0, 6.0]


def test_partner_morse_origin(capsys):
    code, out, _ = run_cli(
        capsys,
        "partner", "--family", "morse", "--two-j", "0", "--b", "0,0",
        "--samples", "1", "--range", "0,1",
    )
    assert code == 0
    data = json.loads(out)
    row = data["samples"][0]
    assert abs(complex(row["difference"]["re"], row["difference"]["im"]) - 4.0) <= 1e-12


def test_partner_flags_odd_sector_pole(capsys):
    code, out, _ = run_cli(
        capsys,
        "partner", "--family", "sextic", "--two-j", "1", "--mu", "0.5",
        "--sector", "odd", "--samples", "3", "--range=-1,1",
    )
    assert code == 0
    data = json.loads(out)
    rows = data["samples"]
    assert rows[1]["x"] == 0
    assert rows[1]["pole"] is True and rows[1]["v_plus"] is None
    assert rows[0]["pole"] is False and rows[2]["pole"] is False


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "solve", "--family", "cubic", "--two-j", "1", "--mu", "1")[0] == 1
    assert run_cli(capsys, "solve", "--family", "sextic", "--two-j", "1")[0] == 1
    assert run_cli(capsys, "solve", "--family", "sextic", "--two-j", "1", "--mu", "1", "--a", "0,1")[0] == 1
    assert run_cli(capsys, "solve", "--family", "morse", "--two-j", "0", "--mu", "1", "--sector", "even")[0] == 1
    assert run_cli(capsys, "solve", "--family", "sextic", "--two-j", "-2", "--mu", "1")[0] == 1
    code, _, err = run_cli(capsys, "solve", "--family", "sextic", "--two-j", "1", "--a", "zzz")
    assert code == 1 and "re,im" in err


def test_scan_rejects_conflicting_flags(capsys):
    common = ("scan", "--two-j", "1", "--mu-range", "0:1:0.5")
    assert run_cli(capsys, *common, "--family", "sextic", "--a", "5,0")[0] == 1
    assert run_cli(capsys, *common, "--family", "sextic", "--b", "1,0")[0] == 1
    assert run_cli(capsys, *common, "--family", "morse", "--b", "7,0")[0] == 1
    empty = ("scan", "--two-j", "1", "--mu-range", "1:0:0.1")
    assert run_cli(capsys, *empty, "--family", "morse", "--sector", "even")[0] == 1


_SCAN = ("scan", "--family", "sextic", "--two-j", "1", "--mu-range")
_MODEL = ("--family", "sextic", "--two-j", "1", "--mu", "1")


@pytest.mark.parametrize(
    "argv, flag",
    [
        ((*_SCAN, "0:inf:1"), "--mu-range"),
        ((*_SCAN, "0:1:nan"), "--mu-range"),
        ((*_SCAN, "0:nan:1"), "--mu-range"),
        ((*_SCAN, "0:1:inf"), "--mu-range"),
        (("verify", *_MODEL, "--domain=-inf,6"), "--domain"),
        (("partner", *_MODEL, "--range=-inf,1"), "--range"),
        ((*_SCAN, "0:1e300:1e-300"), "--mu-range"),
        # the model's own flags name themselves, not a parameter derived from them
        (("solve", "--family", "morse", "--two-j", "1", "--mu", "inf"), "--mu"),
        (("solve", "--family", "sextic", "--two-j", "1", "--a", "nan,0"), "--a"),
        (("solve", "--family", "morse", "--two-j", "1", "--b=1,-inf"), "--b"),
        (("solve", "--family", "morse", "--two-j", "1", "--mu", "1", "--d", "1e400"), "--d"),
    ],
)
def test_non_finite_numbers_rejected(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag} needs finite numbers")


@pytest.mark.parametrize(
    "flag, text, form",
    [
        ("--mu", "1,0", "a number"),
        ("--mu", "x", "a number"),
        ("--a", "1,2,3", "re,im"),
        ("--b", "", "re,im"),
        ("--d", "1;2", "re,im"),
        ("--domain", "-5", "lo,hi"),
        ("--range", "-1,0,1", "lo,hi"),
        ("--mu-range", "0,1,0.1", "lo:hi:step"),
    ],
)
def test_each_real_flag_names_its_form(capsys, flag, text, form):
    # one rule converts every real-valued flag: its count of numbers, each finite
    command = {"--domain": "verify", "--range": "partner", "--mu-range": "scan"}.get(flag, "solve")
    mu = () if flag in ("--mu", "--mu-range") else ("--mu", "1")
    code, out, err = run_cli(capsys, command, "--family", "morse", "--two-j", "1", *mu, f"{flag}={text}")
    assert code == 1 and out == ""
    assert err == f"error: expected {flag} as {form} — got {text!r}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        ((*_SCAN, "0:1e300:1"), "--mu-range"),
        (("verify", *_MODEL, "--grid-n", "1000000001"), "--grid-n"),
        (("partner", *_MODEL, "--samples", "1000000000000"), "--samples"),
    ],
)
def test_sizes_are_bounded(capsys, argv, flag):
    # each fails validation before anything of the requested size is allocated
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag} asks for more than 1000000 ")


def test_convergence_failure_reports_detail(capsys, monkeypatch):
    from qesolve import spectrum

    monkeypatch.setattr(spectrum, "ABERTH_STEPS", 0)
    code, out, err = run_cli(capsys, "solve", "--family", "sextic", "--two-j", "4", "--mu", "1")
    assert code == 2 and out == ""
    message, detail = err.strip().split("\n")
    assert message.startswith("numeric failure: Aberth iteration did not converge")
    detail = json.loads(detail)
    assert detail["best_count"] == 5
    assert detail["defect"] > 0


@pytest.mark.parametrize(
    "argv, message",
    [
        # a cancelling top level: the norm's rounding bound over its sum
        pytest.param(
            ("--family", "sextic", "--two-j", "20", "--mu", "0.7"),
            "refinement did not converge",
            id="argv1-refinement did not converge",
        ),
        # a sum beyond the largest double: its largest sample over that double
        pytest.param(
            ("--family", "morse", "--two-j", "0", "--d=1e-160,-1", "--mu", "-1"),
            "sum overflowed",
            id="argv2-sum overflowed",
        ),
    ],
)
def test_failed_verify_stage_reports_its_defect(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    first, detail = err.strip().split("\n")
    assert message in first
    defect = json.loads(detail)["defect"]
    assert math.isfinite(defect) and defect > 0


def test_verify_without_a_grid_eigenvalue_in_a_disc_prints_its_report(capsys):
    # inverse iteration did not settle on this coarse grid and exited 2 with
    # no report; now the levels whose disc holds no grid eigenvalue read
    # null, and so does the infinite defect, and the report parses as JSON
    argv = ("--family", "morse", "--two-j", "12", "--mu", "0.7", "--grid-n", "65")
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and err == ""
    verification = json.loads(out)["verification"]
    assert verification["passed"] is False
    assert verification["fd"]["defect"] is None
    assert None in verification["fd"]["refined"]
    assert all(isinstance(v, dict) for v in verification["fd"]["refined"] if v is not None)


def test_non_finite_floats_render_as_null():
    # JSON has no inf or nan; a failing report's defect must still parse
    for value in (math.inf, -math.inf, math.nan):
        assert cli.to_json(value) == "null"
    assert json.loads(cli.to_json({"defect": math.inf, "bound": 0.5})) == {"defect": None, "bound": 0.5}
    assert cli.to_json(complex(math.inf, 1.0)) == '{\n  "re": null,\n  "im": 1\n}'


def test_failure_detail_prints_a_non_finite_defect_as_null():
    # json.dumps writes NaN and Infinity, which are not JSON
    for defect in (math.inf, math.nan):
        error = ConvergenceFailureError("no", best=[1.0, 2.0], defect=defect)
        assert cli._failure_detail(error) == '{"defect": null, "best_count": 2}'
    error = ConvergenceFailureError("no", defect=0.5)
    assert cli._failure_detail(error) == '{"defect": 0.5, "best_count": 0}'


_SEXTIC_1 = ("verify", "--family", "sextic", "--two-j", "1")
_GRID_STEP = "error: grid step h = "
_OVERFLOW = "numeric failure: Sextic potential overflowed at x="

# Inputs the flags accept that ended in a traceback, in a NaN defect or in a
# norm of 0; each now exits 1 or 2 with a one-line reason, or with a report
# whose verification fails (reason None).
ACCEPTED_EDGE_INPUTS = [
    ((*_SEXTIC_1, "--mu", "0.5", "--domain=0,1e-300"), 1, _GRID_STEP),  # ZeroDivisionError
    ((*_SEXTIC_1, "--mu", "0.5", "--domain=0,1e-150"), 1, _GRID_STEP),  # NaN defect
    ((*_SEXTIC_1, "--mu", "0.5", "--domain=-1e150,1e150"), 1, _GRID_STEP),  # NaN defect
    ((*_SEXTIC_1, "--mu", "0.5", "--domain=1e300,1.0000000001e300"), 1, _GRID_STEP),  # OverflowError
    ((*_SEXTIC_1, "--mu", "0.5", "--domain=1e60,2e60"), 2, _OVERFLOW),
    ((*_SEXTIC_1, "--a", "1e200,0"), 2, _OVERFLOW),  # NaN defect
    ((*_SEXTIC_1, "--mu", "1e100"), 2, None),  # OverflowError in Newton's stop test
    (
        ("verify", "--family", "morse", "--two-j", "0", "--mu", "0.5", "--a", "300,0", "--d", "300,0"),
        2,
        "numeric failure: normalization sum underflowed",  # norms [0]
    ),
    (("solve", "--family", "morse", "--two-j", "1", "--mu", "inf"), 1, "error: --mu needs finite"),
    (  # ZeroDivisionError: x^2 underflows to 0 in the odd sector's W'
        ("partner", "--family", "sextic", "--two-j", "1", "--sector", "odd", "--mu", "0.5")
        + ("--range=1e-320,1", "--samples", "1"),
        2,
        "numeric failure: partner potential overflowed at x=1e-320",
    ),
    (  # a NaN abscissa: the span x_max - x_min overflows
        ("partner", "--family", "sextic", "--two-j", "1", "--mu", "0.5")
        + ("--range=-1e308,1e308", "--samples", "3"),
        1,
        "error: --range span x_max - x_min overflows",
    ),
    (  # OverflowError building the block
        ("solve", "--family", "sextic", "--two-j", str(10**400), "--mu", "0.5"),
        1,
        "error: two_j must be at most 2**53",
    ),
]


@pytest.mark.parametrize(
    "argv, expected_code, reason",
    ACCEPTED_EDGE_INPUTS,
    ids=[" ".join(argv) for argv, _, _ in ACCEPTED_EDGE_INPUTS],
)
def test_accepted_edge_inputs_fail_loudly(capsys, argv, expected_code, reason):
    code, out, err = run_cli(capsys, *argv)  # an escaping exception fails the test
    assert code == expected_code and "Traceback" not in err
    if reason is None:
        assert err == "" and json.loads(out)["verification"]["passed"] is False
        return
    first, *detail = err.splitlines()
    assert out == "" and first.startswith(reason)
    if code == 1:
        assert detail == []
    for line in detail:  # exit 2's line of how close the failed stage came
        assert math.isfinite(json.loads(line)["defect"])


@pytest.mark.parametrize(
    "argv",
    [
        ("--two-j", "0", "--a", "1e8,0", "--d", "1e-8,0"),
        ("--two-j", "0", "--a", "2e4,0", "--d", "5e-5,0"),
        ("--two-j", "2", "--a", "1e7,0", "--d", "1e-7,0"),
    ],
)
def test_morse_norms_far_from_the_origin_are_normal(capsys, argv):
    # nodes about x = 0 instead of Re x0 = ln(|a|/|d|)/2 summed to 0 or 1.35e-314
    code, out, _ = run_cli(capsys, "verify", "--family", "morse", "--mu", "0.5", *argv)
    assert code == 0
    norms = json.loads(out)["verification"]["norms"]
    assert all(norm >= sys.float_info.min for norm in norms)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_module(*argv):
    """`python -m qesolve argv` in a fresh process, on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "qesolve", *argv], capture_output=True, text=True, env=env
    )


def test_module_entry_point():
    result = run_module("solve", "--family", "sextic", "--two-j", "1", "--mu", "1")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["family"] == "sextic"
    assert result.stderr == ""


@pytest.mark.parametrize("span", ["--range=-800,800", "--range=-746,-744"])
def test_partner_exponential_underflow_fails_cleanly(span):
    # e^x is exactly 0 below x = -745.1 and the Morse superpotential divides by it
    result = run_module(
        "partner", "--family", "morse", "--two-j", "1", "--mu", "1", "--samples", "3", span
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("numeric failure: exponential underflow: exp(-")
    assert "Traceback" not in result.stderr


def test_fixture_report_matches_golden_output():
    # scripts/fixture_report.py output is kept byte-identical; a change to
    # any digit shows up here and has to be explained
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "fixture_report.py")],
        capture_output=True,
    )
    assert result.returncode == 0 and result.stderr == b""
    with open(os.path.join(ROOT, "tests", "golden", "fixture_report.txt"), "rb") as fh:
        assert result.stdout == fh.read()


# Each case exits 0: default grids, a centre point with its sqrt(2) coupling
# (odd n on a symmetric sextic grid), odd-sector half grids, and full grids
# (an asymmetric domain, and Morse).
VERIFY_GOLDEN_CASES = (
    ("--family", "sextic", "--two-j", "2", "--mu", "0.7"),
    ("--family", "sextic", "--sector", "odd", "--two-j", "3", "--mu", "0.7", "--grid-n", "701"),
    ("--family", "sextic", "--two-j", "1", "--mu", "1", "--grid-n", "65"),
    ("--family", "sextic", "--two-j", "1", "--mu", "1", "--domain=-5,6"),
    ("--family", "morse", "--two-j", "2", "--mu", "0.7"),
    ("--family", "morse", "--two-j", "1", "--mu", "0.7", "--grid-n", "257", "--domain=-10,3"),
)


def verify_golden_output() -> bytes:
    """The concatenated stdout of `verify` on VERIFY_GOLDEN_CASES."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for case in VERIFY_GOLDEN_CASES:
            assert main(["verify", *case]) == 0, case
    return out.getvalue().encode()


def test_verify_reports_match_golden_output():
    # grid checks stay byte-identical; a change to any digit shows up here
    with open(os.path.join(ROOT, "tests", "golden", "verify_report.txt"), "rb") as fh:
        assert verify_golden_output() == fh.read()


# A tier-1 slice of scripts/verify_matrix.py: each family at 2j in {0, 5, 12,
# 18, 24, 31} and mu = 0.7, less the blocks that fail verify's grid or norm
# check today (sextic from 2j = 5, Morse from 2j = 12).  A block joins the
# slice once it passes; none is listed to show a failure.
@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "sextic", "--two-j", "0"),
        ("--family", "sextic", "--sector", "odd", "--two-j", "0"),
        ("--family", "morse", "--two-j", "0"),
        ("--family", "morse", "--two-j", "5"),
    ],
    ids=["sextic-even-0", "sextic-odd-0", "morse-0", "morse-5"],
)
def test_verify_matrix_slice_passes(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv, "--mu", "0.7")
    assert code == 0 and json.loads(out)["verification"]["passed"] is True


# Blocks at the ends of the double range, each of which used to end in a
# traceback: a pivot below 1e-300 overflowed the eigenvector solves (the
# mu = 1e-300 blocks), ||M|| >= 2^1023 overflowed the eigenvalue scaling,
# entries near 1e300 overflowed the unscaled eigenvector solves, Aberth's
# starts fell within one ulp of their centre and coincided, and the norm's
# sum overflowed on a gauge that decays only beyond x = 368.  The mu = 1e-308
# and odd 2j = 8 blocks exited 2 instead: Aberth's acceptance test had no
# gradual-underflow term, so a subnormal scale could never meet it.
EDGE_OF_RANGE = [
    ("solve", "--family", "sextic", "--two-j", "2", "--mu", "1e-300"),
    ("solve", "--family", "sextic", "--two-j", "0", "--sector", "odd", "--mu", "1e-300"),
    ("solve", "--family", "sextic", "--two-j", "2", "--mu", "1e-308"),
    ("solve", "--family", "sextic", "--sector", "odd", "--two-j", "8", "--mu", "1e-300"),
    ("solve", "--family", "morse", "--two-j", "2", "--mu", "1e-300"),
    ("solve", "--family", "morse", "--two-j", "3", "--b=1,1e154"),
    ("solve", "--family", "morse", "--two-j", "6", "--b=1,1e150"),
    ("solve", "--family", "morse", "--two-j", "1", "--a=-1,-1e8", "--d=1e154,1e8", "--mu", "0"),
    ("verify", "--family", "morse", "--two-j", "0", "--d=1e-160,-1", "--mu", "-1"),
]


@pytest.mark.parametrize(
    "argv, expected_code",
    zip(EDGE_OF_RANGE, (0, 0, 0, 0, 0, 0, 0, 0, 2)),
    ids=[" ".join(argv) for argv in EDGE_OF_RANGE],
)
def test_edge_of_range_blocks_solve_or_fail_loudly(capsys, argv, expected_code):
    from qesolve.sl2 import build_block
    from qesolve.tridiag import tridiag_norm

    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code and "Traceback" not in err
    if code == 2:
        message, detail = err.strip().split("\n")
        assert out == "" and message.startswith("numeric failure: ")
        assert set(json.loads(detail)) == {"defect", "best_count"}
        return
    assert err == ""
    mpmath = pytest.importorskip("mpmath")
    args = cli.build_arg_parser().parse_args(list(argv))
    model = cli._resolve_model(args, args.mu)
    block = build_block(model.combo, model.rep)
    with mpmath.workdps(60):
        reference = mpmath.eig(mpmath.matrix([list(row) for row in block.entries]))[0]
    data = json.loads(out)
    assert len(data["levels"]) == block.dim and data["residual_sup"] <= 1e-10
    norm = tridiag_norm(block.sub, block.diag, block.sup)
    for level in data["levels"]:
        energy = complex(level["energy_base"]["re"], level["energy_base"]["im"])
        assert min(abs(energy - complex(r)) for r in reference) <= 1e-13 * norm


def test_verify_renders_null_norms_for_a_growing_gauge(capsys):
    # Re a < 0: the Morse gauge grows at one end, so no norm exists; verify still reports
    code, out, _ = run_cli(capsys, "verify", "--family", "morse", "--two-j", "1", "--mu", "0.5", "--a=-1,0")
    assert code == 2
    verification = json.loads(out)["verification"]
    assert verification["norms"] is None and verification["passed"] is False


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "--family", "morse", "--two-j", "1"), "the morse family needs --mu or --b"),
        (("scan", "--family", "sextic", "--two-j", "1", "--mu-range", "0:1:0"), "range step must be positive"),
        (
            ("partner", "--family", "sextic", "--two-j", "1", "--mu", "1", "--samples", "0"),
            "--samples must be at least 1",
        ),
    ],
    ids=["morse without mu or b", "zero scan step", "zero partner samples"],
)
def test_refused_inputs_name_their_reason(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err
