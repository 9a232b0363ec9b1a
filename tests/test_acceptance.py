"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every tolerance is pinned here, not configurable.
"""

import math

from qesolve import analysis
from qesolve.analysis import (
    GridSpec,
    fd_verify,
    is_pt_symmetric,
    norm_squared,
    partner_potentials,
    residual_sup,
)
from qesolve.cli import SCAN_HEADER, build_report, main
from qesolve.families import (
    MorseParams,
    SexticParams,
    make_morse,
    make_sextic,
)
from qesolve.sl2 import SpinJ, build_block
from qesolve.spectrum import solve_model

from _helpers import (
    apply_generator,
    commutator_defect,
    fresh_rng,
    max_matrix_mismatch,
    reality_regime_morse,
    reality_regime_sextic,
    romberg,
    tridiagonal_from_action,
)
from _oracles import monomial


def _passed(number: int, detail: str) -> None:
    print(f"[criterion {number:02d}] PASS - {detail}")


def test_criterion_01_sextic_two_level_spectrum():
    worst_energy = 0.0
    worst_shift = 0.0
    for mu in (0.0, 0.5, 1.0, 1.2):
        solutions, result = solve_model(make_sextic(SexticParams.from_mu(mu, 1)))
        assert result.found
        expected = 2.0 * math.sqrt(2.0 - mu * mu)
        shifted = sorted((s.energy_base + result.shift for s in solutions), key=lambda c: c.real)
        worst_energy = max(
            worst_energy, abs(shifted[0] + expected), abs(shifted[1] - expected)
        )
        worst_shift = max(worst_shift, abs(result.shift - complex(0.0, -3.0 * mu)))
        if mu == 1.0:
            assert abs(shifted[0] + 2.0) <= 1e-10 and abs(shifted[1] - 2.0) <= 1e-10
    assert worst_energy <= 1e-10
    assert worst_shift <= 1e-10
    _passed(1, f"two-level spectrum +/-2*sqrt(2-mu^2); max energy error {worst_energy:.2e}")


def test_criterion_02_sextic_single_level_and_sign_adjudication():
    for mu in (0.5, 1.0, 1.3):
        model = make_sextic(SexticParams.from_mu(mu, 0))
        solutions, result = solve_model(model)
        assert abs(solutions[0].energy_base - complex(0.0, mu)) <= 1e-12
        assert abs(solutions[0].energy_base + result.shift) <= 1e-12
        report, _ = build_report(model)
        notes = " ".join(report.published_comparison)
        assert "opposite sign" in notes and "adjudicated" in notes
    _passed(2, "base level i*mu, shifted 0; +i*mu constant flagged as sign misprint")


def test_criterion_03_morse_single_level():
    solutions, result = solve_model(make_morse(MorseParams.from_mu(1.0, 0, a=1.0, d=1.0)))
    assert result.found
    assert abs(result.shift + 1.5j) <= 1e-10
    assert abs(solutions[0].energy_base + result.shift) <= 1e-10  # 2ad - (9-mu^2)/4 = 0 here
    _passed(3, "shift -1.5i and shifted level 0 at a=d=mu=1")


def test_criterion_04_morse_two_level_adjudication():
    model = make_morse(MorseParams.from_mu(1.0, 1, a=1.0, d=1.0))
    solutions, result = solve_model(model)
    worst = max(residual_sup(model, s) for s in solutions)
    assert worst <= 1e-10
    report, _ = build_report(model)
    notes = " ".join(report.published_comparison)
    assert "published levels" in notes
    assert "AGREES" in notes or "DISAGREES" in notes
    assert not result.found  # imaginary parts differ; mismatch must be reported, not hidden
    assert "no constant shift" in notes
    _passed(4, f"oracle eigenpairs residual {worst:.2e}; published forms printed and flagged")


def test_criterion_05_residual_suite():
    rng = fresh_rng()
    worst = 0.0
    for two_j in range(5):
        models = [reality_regime_sextic(rng, two_j) for _ in range(5)]
        models += [reality_regime_morse(rng, two_j) for _ in range(5)]
        for model in models:
            solutions, _ = solve_model(model)
            for s in solutions:
                worst = max(worst, residual_sup(model, s))
    assert worst <= 1e-10
    _passed(5, f"50 models, every eigenpair residual <= 1e-10 (worst {worst:.2e})")


def test_criterion_06_block_oracle_equivalence():
    rng = fresh_rng()
    worst = 0.0
    for _ in range(10):
        for two_j in (0, 1, 2, 3, 5, 8, 12):
            for model in (
                make_sextic(SexticParams(a=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), two_j=two_j)),
                make_morse(
                    MorseParams(
                        a=complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5)),
                        d=complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5)),
                        b=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                        two_j=two_j,
                    )
                ),
            ):
                generic = build_block(model.combo, model.rep).entries
                worst = max(worst, max_matrix_mismatch(generic, tridiagonal_from_action(model)))
    assert worst <= 1e-12
    _passed(6, f"generic block builder matches closed-form action (worst {worst:.2e})")


def test_criterion_07_algebra_suite():
    worst = max(commutator_defect(SpinJ(n)) for n in range(21))
    assert worst <= 1e-13
    for n in range(21):
        assert apply_generator("plus", monomial(n), SpinJ(n)).is_zero()
    _passed(7, f"commutator defect {worst:.2e} through two_j=20; top states annihilated exactly")


def test_criterion_08_grid_cross_check():
    fixtures = []
    sextic_two = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, result = solve_model(sextic_two)
    top = max(solutions, key=lambda s: (s.energy_base + result.shift).real)
    fixtures.append((sextic_two, top, result.shift))
    sextic_one = make_sextic(SexticParams.from_mu(1.0, 0))
    solutions, result = solve_model(sextic_one)
    fixtures.append((sextic_one, solutions[0], result.shift))
    morse_one = make_morse(MorseParams.from_mu(1.0, 0))
    solutions, result = solve_model(morse_one)
    fixtures.append((morse_one, solutions[0], result.shift))
    details = []
    for model, solution, shift in fixtures:
        if model.family == "sextic":
            coarse, fine = GridSpec(-6.0, 6.0, 2000), GridSpec(-6.0, 6.0, 4001)
        else:
            coarse, fine = GridSpec(-12.0, 4.0, 2000), GridSpec(-12.0, 4.0, 4001)
        defect = fd_verify(model, [solution], shift, coarse).defect
        defect_fine = fd_verify(model, [solution], shift, fine).defect
        assert defect <= 5e-3
        ratio = defect / defect_fine
        assert 3.2 <= ratio <= 4.8
        details.append(f"{model.family}:defect={defect:.1e},ratio={ratio:.2f}")
    _passed(8, "; ".join(details))


def test_criterion_09_reality_region_scan(capsys):
    code = main(["scan", "--family", "sextic", "--two-j", "1", "--mu-range", "0:1.4:0.1"])
    inside = capsys.readouterr().out
    assert code == 0
    lines = inside.strip().split("\n")
    assert lines[0] == SCAN_HEADER
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[5])) <= 1e-10
        assert cells[7] == "1"
    boundary_mu = 1.5 * math.sqrt(2.0)
    code = main(["scan", "--family", "sextic", "--two-j", "1", "--mu-range", f"{boundary_mu}:{boundary_mu}:1"])
    outside = capsys.readouterr().out
    assert code == 0
    rows = outside.strip().split("\n")[1:]
    assert rows
    for row in rows:
        cells = row.split(",")
        assert abs(float(cells[5])) > 0.1
        assert cells[7] == "0"
    _passed(9, "im(shifted) <= 1e-10 for mu^2 < 2; > 0.1 and no common shift at mu = 1.5*sqrt(2)")


def test_criterion_10_pt_symmetry():
    sextic_one = make_sextic(SexticParams.from_mu(1.0, 0))
    sextic_two = make_sextic(SexticParams.from_mu(1.0, 1))
    morse_one = make_morse(MorseParams.from_mu(1.0, 0))
    morse_two = make_morse(MorseParams.from_mu(1.0, 1))
    for model in (sextic_one, sextic_two, morse_one, morse_two):
        shift = solve_model(model)[1].shift
        assert not is_pt_symmetric(model, shift)
    for two_j in (0, 1):
        model = make_sextic(SexticParams.from_mu(0.0, two_j))
        shift = solve_model(model)[1].shift
        assert is_pt_symmetric(model, shift)
    assert is_pt_symmetric(make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0)))
    _passed(10, "all four mu=1 potentials complex without PT symmetry; mu=0 sextic degenerations PT-symmetric")


def test_criterion_11_normalizability(monkeypatch):
    gamma_value = 2.0 ** 1.25 * math.gamma(1.25)
    quad_value = romberg(lambda x: math.exp(-x ** 4 / 2.0), -8.0, 8.0)
    assert abs(gamma_value - quad_value) <= 1e-9
    fixtures = [
        make_sextic(SexticParams.from_mu(1.0, 0)),
        make_sextic(SexticParams.from_mu(1.0, 1)),
        make_morse(MorseParams.from_mu(1.0, 0)),
        make_morse(MorseParams.from_mu(1.0, 1)),
    ]
    for model in fixtures:
        solutions, _ = solve_model(model)
        for s in solutions:
            value = norm_squared(model, s)
            with monkeypatch.context() as m:
                m.setattr(analysis, "NORM_START_HALF_WIDTH", 4.0)
                again = norm_squared(model, s)
            assert math.isfinite(value) and value > 0.0
            assert abs(value - again) <= 1e-12 * value
    ground = fixtures[0], solve_model(fixtures[0])[0][0]
    ground_error = abs(norm_squared(*ground) - gamma_value) / gamma_value
    assert ground_error <= 1e-13
    _passed(11, f"all fixture norms finite and doubling-stable; ground norm = {gamma_value:.7f} to {ground_error:.1e} relative (closed form, quadrature oracle)")


def test_criterion_12_partner_identity():
    rng = fresh_rng()
    worst = 0.0
    for model in (
        make_sextic(SexticParams.from_mu(1.0, 1)),
        make_morse(MorseParams.from_mu(1.0, 1)),
    ):
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0)
            v_minus, v_plus = partner_potentials(model, x)
            gap = abs((v_plus - v_minus) - 2.0 * model.superpotential(x)[1])
            scale = max(1.0, abs(v_plus), abs(v_minus))
            worst = max(worst, gap / scale)
    assert worst <= 1e-12
    _passed(12, f"V+ - V- = 2W' at 100 random points (worst scaled gap {worst:.2e})")
