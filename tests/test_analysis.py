import cmath
import dataclasses
import math
import sys
import traceback

import pytest

from qesolve import analysis
from qesolve.analysis import (
    GridSpec,
    default_grid,
    fd_verify,
    is_pt_symmetric,
    norm_squared,
    partner_potentials,
    psi_eval,
    residual_sup,
)
from qesolve.cli import build_report
from qesolve.cpoly import CPolynomial
from qesolve.errors import (
    ConvergenceFailureError,
    NumericOverflowError,
    PoleError,
    ValidationError,
)
from qesolve.families import (
    EVEN,
    ODD,
    SEXTIC,
    MorseParams,
    SexticParams,
    make_morse,
    make_sextic,
    potential_eval,
)
from qesolve.sl2 import build_block
from qesolve.spectrum import solve_model

from _helpers import (
    fresh_rng,
    full_grid_hamiltonian,
    reality_regime_morse,
    reality_regime_sextic,
    rel_err,
    romberg,
)


def _solved(model, index=0):
    """(model, solution) of one level, the arguments of the wavefunction functions."""
    solutions, _ = solve_model(model)
    return model, solutions[index]


def test_psi_sextic_ground_profile():
    w = _solved(make_sextic(SexticParams.from_mu(1.0, 0)))
    assert psi_eval(*w, 0.0) == 1.0
    for x in (0.5, 1.0, 2.0):
        assert rel_err(abs(psi_eval(*w, x)), math.exp(-x ** 4 / 4.0)) <= 1e-14


def test_psi_sextic_two_level_lower_state():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    w = _solved(model, index=0)  # E = -2 level has factor 1 + (1-i) z
    expected = (2.0 - 1j) * math.exp(-0.25) * cmath.exp(-0.5j)
    assert abs(psi_eval(*w, 1.0) - expected) <= 1e-14


def test_psi_morse_at_origin():
    w = _solved(make_morse(MorseParams.from_mu(1.0, 0)))
    assert rel_err(psi_eval(*w, 0.0), math.exp(-2.0)) <= 1e-14


def test_residual_vanishes_for_true_eigenpairs():
    rng = fresh_rng()
    for two_j in range(5):
        models = [reality_regime_sextic(rng, two_j) for _ in range(5)]
        models += [reality_regime_sextic(rng, two_j, ODD) for _ in range(2)]
        models += [reality_regime_morse(rng, two_j) for _ in range(5)]
        for model in models:
            solutions, _ = solve_model(model)
            for s in solutions:
                assert residual_sup(model, s) <= 1e-10


def test_residual_detects_wrong_energy():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, _ = solve_model(model)
    broken = dataclasses.replace(solutions[0], energy_base=solutions[0].energy_base + 0.1)
    assert residual_sup(model, broken) >= 1e-3


def test_residual_spin_zero_bracket():
    # at j = 0 the bracket is just a - E, so only E = a annihilates it
    model = make_sextic(SexticParams.from_mu(0.8, 0))
    solutions, _ = solve_model(model)
    assert solutions[0].energy_base == 0.8j
    good = residual_sup(model, solutions[0])
    assert good <= 1e-12
    broken = dataclasses.replace(solutions[0], energy_base=solutions[0].energy_base - 0.05)
    assert residual_sup(model, broken) >= 1e-3


def test_residual_is_zero_when_every_term_vanishes():
    # sextic 2j = 0 at mu = 0: phi = 1, E = 0 and p0 = 0, so R has no terms
    model = make_sextic(SexticParams.from_mu(0.0, 0))
    solutions, _ = solve_model(model)
    assert residual_sup(model, solutions[0]) == 0.0


def test_residual_of_an_energy_zero_level_is_rounding_sized():
    # sextic 2j = 2 at mu = 0 has E = 0 exactly; a sampled ratio read 5.56
    # at z = 0, where every term of the bracket vanishes
    model = make_sextic(SexticParams.from_mu(0.0, 2))
    solutions, _ = solve_model(model)
    assert any(s.energy_base == 0 for s in solutions)
    assert max(residual_sup(model, s) for s in solutions) <= 1e-15


def _residual_control_models():
    for two_j in (1, 2, 5):
        for mu in (0.0, 0.7, 1.4):
            yield make_sextic(SexticParams.from_mu(mu, two_j))
            yield make_sextic(SexticParams.from_mu(mu, two_j, ODD))
            yield make_morse(MorseParams.from_mu(mu, two_j))


def test_residual_fails_the_gate_when_the_energy_moves():
    for model in _residual_control_models():
        solutions, _ = solve_model(model)
        for s in solutions:
            assert residual_sup(model, s) <= 1e-10
            moved = s.energy_base + 1e-8 * max(1.0, abs(s.energy_base))
            assert residual_sup(model, dataclasses.replace(s, energy_base=moved)) > 1e-10


def test_residual_fails_the_gate_when_one_coefficient_moves():
    for model in _residual_control_models():
        solutions, _ = solve_model(model)
        for s in solutions:
            coeffs = list(s.phi_coeffs.coeffs)
            coeffs[len(coeffs) // 2] += 1e-6 * max(map(abs, coeffs))
            broken = dataclasses.replace(s, phi_coeffs=CPolynomial(coeffs))
            assert residual_sup(model, broken) > 1e-10


def test_psi_overflow_for_growing_gauge():
    # Re a < 0 flips the left tail of the Morse gauge into growth
    model = make_morse(MorseParams(a=-1.0, d=1.0, b=0.0, two_j=0))
    solutions, _ = solve_model(model)
    with pytest.raises(NumericOverflowError):
        psi_eval(model, solutions[0], -800.0)


def test_norm_matches_quartic_gaussian_oracle():
    # |psi|^2 = exp(-x^4/2); closed form 2^(5/4) Gamma(5/4), cross-checked by quadrature
    gamma_value = 2.0 ** 1.25 * math.gamma(1.25)
    quad_value = romberg(lambda x: math.exp(-x ** 4 / 2.0), -8.0, 8.0)
    assert abs(gamma_value - quad_value) <= 1e-9
    w = _solved(make_sextic(SexticParams.from_mu(1.0, 0)))
    assert abs(norm_squared(*w) - gamma_value) <= 1e-13 * gamma_value


def test_norm_scales_quadratically():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, _ = solve_model(model)
    base = solutions[0]
    doubled = dataclasses.replace(
        base, phi_coeffs=CPolynomial([2.0 * c for c in base.phi_coeffs.coeffs])
    )
    assert rel_err(norm_squared(model, doubled), 4.0 * norm_squared(model, base)) <= 1e-13


def test_norm_morse_interval_doubling_stable(monkeypatch):
    w = _solved(make_morse(MorseParams.from_mu(1.0, 0)))
    n1 = norm_squared(*w)
    monkeypatch.setattr(analysis, "NORM_START_HALF_WIDTH", 4.0)
    n2 = norm_squared(*w)
    assert n1 > 0.0 and math.isfinite(n1)
    assert abs(n1 - n2) <= 1e-12 * n1


@pytest.mark.parametrize(
    "model",
    [
        make_sextic(SexticParams.from_mu(0.7, 3)),
        make_sextic(SexticParams.from_mu(0.7, 3, ODD)),
        make_morse(MorseParams.from_mu(1.0, 2)),
    ],
    ids=["sextic-even", "sextic-odd", "morse"],
)
def test_norm_samples_each_abscissa_once(model, monkeypatch):
    # halving the step and widening the interval reuse earlier samples, and
    # the sextic |psi|^2 is even, so x and -x share one sample
    w = _solved(model)
    expected = norm_squared(*w)
    samples = {}
    psi_abs2 = analysis.psi_abs2

    def recording_psi_abs2(model, solution, x):
        assert x not in samples
        samples[x] = psi_abs2(model, solution, x)
        return samples[x]

    sums, fsum = [], math.fsum

    def recording_fsum(terms):
        sums.append(list(terms))
        return fsum(sums[-1])

    monkeypatch.setattr(analysis, "psi_abs2", recording_psi_abs2)
    monkeypatch.setattr(math, "fsum", recording_fsum)
    assert norm_squared(*w) == expected
    monkeypatch.undo()
    # the samples are the nodes of the finest rule, x >= 0 alone for the sextic
    abscissas = sorted(samples)
    h = min(b - a for a, b in zip(abscissas, abscissas[1:]))
    last = round(abscissas[-1] / h)
    first = 0 if model.family == SEXTIC else -last
    assert abscissas == [k * h for k in range(first, last + 1)]
    # and the running sums add up to that rule: every node counted once, a
    # sextic x > 0 also for -x, none dropped and none doubled
    weight = 2 if model.family == SEXTIC else 1
    values = [v for x, (v, _) in samples.items() for _ in range(weight if x else 1)]
    assert expected == h * math.fsum(values)
    # the last rule summed exactly those samples, tail nodes far below an ulp included
    assert sorted(sums[-2]) == sorted(values)


def _traceback_names(exc):
    return [frame.f_code.co_name for frame, _ in traceback.walk_tb(exc.__traceback__)]


def test_norm_refinement_cap_raises_with_best(monkeypatch):
    # the benchmark labels a failure by the norm_squared frame on its traceback
    gamma_value = 2.0 ** 1.25 * math.gamma(1.25)
    w = _solved(make_sextic(SexticParams.from_mu(1.0, 0)))
    monkeypatch.setattr(analysis, "NORM_NODE_CAP", 100)
    with pytest.raises(ConvergenceFailureError, match="refinement") as excinfo:
        norm_squared(*w)
    assert "norm_squared" in _traceback_names(excinfo.value)
    assert rel_err(excinfo.value.best, gamma_value) <= 1e-3


def test_norm_tail_cap_raises_with_best(monkeypatch):
    # widening from half-width 4 to 8 at step 1/4 would take 65 nodes
    w = _solved(make_sextic(SexticParams.from_mu(1.0, 0)))
    monkeypatch.setattr(analysis, "NORM_NODE_CAP", 40)
    with pytest.raises(ConvergenceFailureError, match="tail") as excinfo:
        norm_squared(*w)
    assert "norm_squared" in _traceback_names(excinfo.value)
    assert excinfo.value.best > 0.0


def test_norm_settles_to_its_rounding_bound():
    # the upper levels of large blocks have cancelling polynomial factors:
    # successive sums wander by 5e-11 relative once the rule has converged,
    # so a fixed 1e-12 step test can never pass
    mp = pytest.importorskip("mpmath")
    model = make_sextic(SexticParams.from_mu(0.7, 20))
    solutions, _ = solve_model(model)
    w = model, solutions[17]
    value = norm_squared(*w)

    coeffs = [mp.mpc(c.real, c.imag) for c in solutions[17].phi_coeffs.coeffs]
    a = mp.mpc(model.params.a.real, model.params.a.imag)

    def density(x):
        p = mp.mpc(0)
        for c in reversed(coeffs):
            p = p * x * x + c
        return abs(p * mp.exp(-x ** 4 / 4 - a * x * x / 2)) ** 2

    with mp.workdps(40):
        reference = float(2 * mp.quad(density, [0, 1, 2, 3, 4, 6, 10]))
    # rounding bound of one trapezoid sum over the support, for both sums compared
    h = 1.0 / 64.0
    rounding = 2.0 * h * sum(analysis.psi_abs2(*w, k * h)[1] for k in range(-512, 513))
    assert rounding > analysis.NORM_REL_TOL * value
    assert abs(value - reference) <= max(analysis.NORM_REL_TOL * value, rounding)


def test_norm_raises_when_rounding_swamps_the_sum():
    # the top level of a 2j = 31 block: the Horner bound of phi is about 100
    # times |psi|^2 summed, and the sums read 70.41 against a 40-digit
    # quadrature of 57.00, so no norm may be returned
    model = make_sextic(SexticParams.from_mu(0.7, 31))
    solutions, _ = solve_model(model)
    w = model, solutions[31]
    with pytest.raises(ConvergenceFailureError, match="refinement") as excinfo:
        norm_squared(*w)
    assert "norm_squared" in _traceback_names(excinfo.value)
    assert excinfo.value.best > 0.0


def test_morse_top_levels_get_a_true_norm_or_none():
    # the top coefficients of the upper Morse levels at 2j = 22 are
    # rounding-sized in the first U-solve of the block's inverse iteration
    # yet dominate |psi|^2; an eigenvector that stopped there would read
    # 2.2e6 and 4.1e5 for the norms 3.0e-5 and 3.5e-6 below, and no gate of
    # solve_model objects.  Each of the top three levels must match a
    # 30-digit norm or raise.
    mp = pytest.importorskip("mpmath")
    model = make_morse(MorseParams.from_mu(0.7, 22))
    solutions, _ = solve_model(model)
    block = build_block(model.combo, model.rep)
    n = block.dim
    with mp.workdps(30):
        a, d, b = (mp.mpc(c) for c in (model.params.a, model.params.d, model.params.b))
        for s in solutions[-3:]:
            # three inverse-iteration steps on the block, then phi_0 = 1 as stored
            shifted = mp.matrix(n, n)
            for i in range(n):
                shifted[i, i] = mp.mpc(block.diag[i]) - mp.mpc(s.energy_base)
            for i in range(n - 1):
                shifted[i + 1, i], shifted[i, i + 1] = mp.mpc(block.sub[i]), mp.mpc(block.sup[i])
            v = mp.matrix([1] * n)
            for _ in range(3):
                v = mp.lu_solve(shifted, v)
                v /= mp.norm(v)
            assert s.phi_coeffs.coeffs[0] == 1.0
            coeffs = [v[i] / v[0] for i in range(n)]

            def density(x):
                z, phi = mp.exp(-x), mp.mpc(0)
                for c in reversed(coeffs):
                    phi = phi * z + c
                return abs(phi * mp.exp(-(d / z + a * z + b * x))) ** 2

            reference = mp.quad(density, list(range(-9, 5)))
            try:
                value = norm_squared(model, s)
            except ConvergenceFailureError:
                continue
            assert abs(value - reference) <= 1e-8 * reference


def test_norm_requires_decaying_gauge():
    model = make_morse(MorseParams(a=-1.0, d=1.0, b=0.0, two_j=0))
    solutions, _ = solve_model(model)
    with pytest.raises(ValidationError):
        norm_squared(model, solutions[0])


def test_pt_symmetry_sextic():
    fixture = make_sextic(SexticParams.from_mu(1.0, 1))
    assert not is_pt_symmetric(fixture, shift=-3j)
    real_case = make_sextic(SexticParams.from_mu(0.0, 1))
    assert is_pt_symmetric(real_case, shift=0.0)
    # the shift is its own mirror, so it must be real
    assert is_pt_symmetric(real_case, shift=0.5)
    assert not is_pt_symmetric(real_case, shift=0.5j)


def test_pt_symmetry_morse():
    symmetric = make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0))
    assert is_pt_symmetric(symmetric)
    lopsided = make_morse(MorseParams(a=1.0, d=2.0, b=0.0, two_j=0))
    assert not is_pt_symmetric(lopsided)
    nearly = make_morse(MorseParams(a=1.0, d=1.0 + 1e-6, b=0.0, two_j=0))
    assert not is_pt_symmetric(nearly)
    fixture = make_morse(MorseParams.from_mu(1.0, 0))
    assert not is_pt_symmetric(fixture, shift=-1.5j)
    # only at 2j = 3 is the e^x coefficient -4 + i mu the conjugate of the
    # e^{-x} coefficient -(2j - 2 + i mu)
    for mu in (0.0, 0.7, 1.4):
        for two_j in (2, 3, 4):
            model = make_morse(MorseParams.from_mu(mu, two_j))
            _, result = solve_model(model)
            assert is_pt_symmetric(model, result.shift) == (two_j == 3), (mu, two_j)


def _partner_difference(model, x):
    v_minus, v_plus = partner_potentials(model, x)
    return v_plus - v_minus


def test_partner_difference_even_sector():
    a = 0.4 - 0.9j
    model = make_sextic(SexticParams(a=a, two_j=1))
    for x in (-1.5, 0.0, 0.7):
        expected = 2.0 * (3.0 * x * x + a)
        assert abs(_partner_difference(model, x) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_partner_difference_at_unit_point():
    model = make_sextic(SexticParams(a=0.0, two_j=0))
    assert abs(_partner_difference(model, 1.0) - 6.0) <= 1e-13
    v_minus, _ = partner_potentials(model, 1.0)
    assert abs(v_minus - (1.0 - 3.0)) <= 1e-13  # x^6 - 3x^2 at x=1


def test_partner_morse_origin():
    model = make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0))
    assert abs(_partner_difference(model, 0.0) - 4.0) <= 1e-13


def test_partner_odd_sector_pole():
    model = make_sextic(SexticParams.from_mu(0.5, 1, ODD))
    with pytest.raises(PoleError):
        partner_potentials(model, 0.0)
    assert all(cmath.isfinite(v) for v in partner_potentials(model, 0.5))


def test_partner_identity_random_points():
    rng = fresh_rng()
    models = (
        make_sextic(SexticParams(a=0.2 + 0.7j, two_j=2)),
        make_morse(MorseParams(a=0.8, d=1.2, b=0.3 - 0.2j, two_j=1)),
    )
    for model in models:
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0)
            v_minus, v_plus = partner_potentials(model, x)
            rhs = 2.0 * model.superpotential_derivative(x)
            scale = max(1.0, abs(v_plus), abs(v_minus))
            assert abs((v_plus - v_minus) - rhs) <= 1e-12 * scale


def test_tridiagonal_solver_direct():
    # a random complex symmetric A (sub = sup), as the grid Hamiltonian is
    from qesolve.tridiag import tridiag_ldlt, tridiag_matvec, tridiag_solve

    rng = fresh_rng()
    n = 50
    sub = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n - 1)]
    sup = sub
    diag = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.1 for _ in range(n)]
    rhs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    x = tridiag_solve(tridiag_ldlt(sub, diag, 0.0), rhs)
    ax = tridiag_matvec(sub, diag, sup, x)
    for i in range(n):
        acc = diag[i] * x[i]
        if i > 0:
            acc += sub[i - 1] * x[i - 1]
        if i < n - 1:
            acc += sup[i] * x[i + 1]
        assert ax[i] == acc
        assert abs(acc - rhs[i]) <= 1e-11 * max(1.0, abs(rhs[i]))


def test_zero_pivot_is_replaced():
    # [[1, 1], [1, 1]] eliminates to an exactly zero last pivot; the tiny
    # stand-in eps * ||A|| makes a solve return a huge multiple of the null
    # vector (1, -1)
    from qesolve.tridiag import tridiag_ldlt, tridiag_solve

    factors = tridiag_ldlt([1.0 + 0j], [1.0 + 0j, 1.0 + 0j], 0.0)
    assert factors[0][-1] == 2.0 * sys.float_info.epsilon
    x = tridiag_solve(factors, [0.0j, 1.0 + 0j])
    assert abs(x[0] + x[1]) <= 1e-15 * abs(x[0]) and abs(x[0]) >= 1e14


def test_zero_pivot_uses_the_unshifted_norm():
    # [[3, 1], [1, 3]] - 2 I is [[1, 1], [1, 1]]: its zero last pivot becomes
    # eps * ||A|| = 4 eps of the unshifted A, not 2 eps of the shifted one
    from qesolve.tridiag import tridiag_ldlt

    eps = sys.float_info.epsilon
    factors = tridiag_ldlt([1.0 + 0j], [3.0 + 0j, 3.0 + 0j], 2.0)
    assert factors[0] == [1.0 + 0j, 4.0 * eps + 0j]
    zero = tridiag_ldlt([0.0j], [0.0j, 0.0j], 0.0)
    assert zero[0] == [1.0 + 0j, 1.0 + 0j]


def test_log_derivative_matches_the_continuant():
    from qesolve.spectrum import _newton_terms
    from qesolve.tridiag import tridiag_log_derivative

    rng = fresh_rng()
    for n in (1, 2, 7):
        diag = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(n)]
        prod = [0j] + [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(n - 1)]
        for _ in range(5):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            p, dp, _ = _newton_terms(list(zip(diag, prod, [abs(b) for b in prod])), z)
            assert abs(tridiag_log_derivative(diag, prod, z) - dp / p) <= 1e-11 * abs(dp / p)


def test_log_derivative_replaces_a_zero_pivot():
    from qesolve.tridiag import tridiag_log_derivative

    # [[0, 1], [1, 0]] at z = 0: the first pivot is exactly 0, and p = z^2 - 1
    # has p'(0)/p(0) = 0; the eps * ||T|| stand-in leaves eps
    value = tridiag_log_derivative([0j, 0j], [0.0, 1.0], 0j)
    assert abs(value) <= 2.0 * sys.float_info.epsilon


def _free_particle(n_points):
    """(off, diag) of -d^2/dx^2 on n_points interior points of the Dirichlet box [0, pi]."""
    h = math.pi / (n_points + 1)
    return [-1.0 / (h * h)] * (n_points - 1), [2.0 / (h * h) + 0j] * n_points


def test_fd_free_particle_second_order():
    # both grids refine by Newton: the roots lie well inside the 1e-3 disc
    (refined,) = analysis._refine_levels(*_free_particle(500), [1.0 + 0j], 1e-3)
    (finer,) = analysis._refine_levels(*_free_particle(1001), [1.0 + 0j], 1e-3)
    defect, defect_fine = abs(refined - 1.0), abs(finer - 1.0)
    assert defect <= 1e-4
    assert 3.2 <= defect / defect_fine <= 4.8


def test_fd_verify_fixture_small_grid():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, result = solve_model(model)
    top = max(solutions, key=lambda s: (s.energy_base + result.shift).real)
    check = fd_verify(model, [top], result.shift, GridSpec(-6.0, 6.0, 500))
    (refined,), defect = check.refined, check.defect
    assert 0.0 < defect <= 2e-3
    assert abs(refined - 2.0) <= 2e-3


def test_fd_odd_sector_level():
    # parity-odd eigenstate on a symmetric grid; start vector must reach it
    model = make_sextic(SexticParams.from_mu(1.0, 1, ODD))
    solutions, result = solve_model(model)
    assert result.found and abs(result.shift + 5j) <= 1e-10
    check = fd_verify(model, [solutions[1]], result.shift, GridSpec(-6.0, 6.0, 1000))
    (refined,), defect = check.refined, check.defect
    assert defect <= 5e-3
    assert abs(refined - 2.0 * math.sqrt(5.0)) <= 5e-3


def test_fd_confirms_complex_morse_pair():
    # the unshiftable two-level Morse case: the grid check lands on the
    # complex block eigenvalues, not on any real pair
    model = make_morse(MorseParams.from_mu(1.0, 1))
    solutions, result = solve_model(model)
    assert not result.found
    for s in solutions:
        check = fd_verify(model, [s], result.shift, GridSpec(-12.0, 4.0, 1000))
        (refined,), defect = check.refined, check.defect
        assert defect <= 5e-3
        assert abs(refined.imag - (s.energy_base + result.shift).imag) <= 5e-3


@pytest.mark.parametrize(
    "sector, mu",
    [(EVEN, 0.12926250521780655), (ODD, 0.39790155721015097)],
    ids=["even", "odd"],
)
def test_fd_parity_start_on_sextic_double_well(sector, mu, monkeypatch):
    # at 2j=5 the lowest level has a nearly degenerate partner of the other
    # parity on the full grid; the half grid holds the sector's parity only,
    # so that partner cannot mix into the refined value.  Newton settles
    # each level inside the grid gate without a solve; the levels outside
    # it, and every level when Newton has no steps, go to inverse iteration
    # from the ramp start, which keeps its solve budget
    np = pytest.importorskip("numpy")
    model = make_sextic(SexticParams.from_mu(mu, 5, sector))
    solutions, result = solve_model(model)
    shift = result.shift
    grid = default_grid(model)
    n = grid.n_points
    h = (grid.x_max - grid.x_min) / (n + 1)
    # reference: the same Hamiltonian restricted to the sector's parity, on
    # the x > 0 half of the grid with the mirror neighbour folded into the
    # first diagonal entry
    half = [grid.x_min + (i + 1) * h for i in range(n // 2, n)]
    diag = [2.0 / h**2 + potential_eval(model, x, shift) for x in half]
    diag[0] -= (1.0 if sector == EVEN else -1.0) / h**2
    off = np.full(len(half) - 1, -1.0 / h**2)
    reference = np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    solves = []
    tridiag_solve = analysis.tridiag_solve

    def counting_solve(*args):
        solves[-1] += 1
        return tridiag_solve(*args)

    monkeypatch.setattr(analysis, "tridiag_solve", counting_solve)
    bound = analysis.fd_defect_bound(model, grid)
    paths = []
    for newton_steps in (analysis.FD_NEWTON_STEPS, 0):
        monkeypatch.setattr(analysis, "FD_NEWTON_STEPS", newton_steps)
        for s in solutions:
            solves.append(0)
            (refined,) = fd_verify(model, [s], shift, grid).refined
            nearest = reference[np.argmin(abs(reference - (s.energy_base + shift)))]
            assert abs(refined - nearest) <= 1e-9
            newton = newton_steps and abs(refined - (s.energy_base + shift)) <= bound
            paths.append(bool(newton))
            if newton:
                assert solves[-1] == 0
            else:
                assert 2 <= solves[-1] <= 4
    # both paths ran on the default step budget
    assert len(set(paths[: len(solutions)])) == 2


def _sector_spectrum(np, model, grid, shift):
    """Eigenvalues of the full-grid Hamiltonian restricted to the sector's parity.

    The full central-difference matrix is projected onto an orthonormal
    basis of mirror-symmetric (even sector) or antisymmetric (odd sector)
    grid vectors, independently of how fd_verify folds the half grid.
    """
    n = grid.n_points
    diag, off = full_grid_hamiltonian(model, shift, grid)
    full = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    sign = -1.0 if model.params.sector == ODD else 1.0
    basis = []
    for i in range(n // 2):
        vec = np.zeros(n)
        vec[i], vec[n - 1 - i] = sign, 1.0
        basis.append(vec / math.sqrt(2.0))
    if n % 2 == 1 and sign > 0:
        centre = np.zeros(n)
        centre[n // 2] = 1.0
        basis.append(centre)
    q = np.array(basis).T
    return np.linalg.eigvals(q.T @ full @ q)


@pytest.mark.parametrize("sector", [EVEN, ODD])
@pytest.mark.parametrize(
    "two_j, grid",
    [
        (5, GridSpec(-6.0, 6.0, 64)),
        (5, GridSpec(-6.0, 6.0, 65)),
        (2, GridSpec(-5.0, 5.0, 701)),
        (3, GridSpec(-6.0, 6.0, 2000)),
    ],
    ids=["n64", "n65", "n701", "n2000"],
)
def test_fd_levels_are_sector_grid_eigenvalues(sector, two_j, grid):
    # on coarse grids a full-grid iteration let roundoff carry in the other
    # parity (even level 5 at n=64 landed on 31.93 instead of 38.69); odd n
    # exercises the centre point: dropped (odd) or coupled by -sqrt(2)/h^2;
    # n=2000 is the default grid, refined by Newton on its 1,000-row half
    np = pytest.importorskip("numpy")
    model = make_sextic(SexticParams.from_mu(0.7, two_j, sector))
    solutions, result = solve_model(model)
    reference = _sector_spectrum(np, model, grid, result.shift)
    refined = fd_verify(model, solutions, result.shift, grid).refined
    assert len(refined) == two_j + 1
    for s, value in zip(solutions, refined):
        nearest = reference[np.argmin(abs(reference - (s.energy_base + result.shift)))]
        assert abs(value - nearest) <= 1e-9


@pytest.mark.parametrize(
    "sector, n_points, reduced",
    [(EVEN, 2000, 1000), (ODD, 2000, 1000), (EVEN, 701, 351), (ODD, 701, 350)],
)
def test_fd_verify_cost_on_half_grid(sector, n_points, reduced, monkeypatch):
    import qesolve.spectrum
    import qesolve.tridiag

    model = make_sextic(SexticParams.from_mu(0.7, 2, sector))
    solutions, result = solve_model(model)
    samples, passes = [], []

    def counting_potential(*args):
        samples.append(args[1])
        return potential_eval(*args)

    def counting_log_derivative(*args):
        passes.append(len(args[0]))
        return tridiag_log_derivative(*args)

    def no_factor(*args):
        raise AssertionError("an in-gate level was factored")

    def no_matvec(*args):
        raise AssertionError("the grid check multiplies by H")

    tridiag_log_derivative = analysis.tridiag_log_derivative
    monkeypatch.setattr(analysis, "potential_eval", counting_potential)
    monkeypatch.setattr(analysis, "tridiag_log_derivative", counting_log_derivative)
    monkeypatch.setattr(analysis, "tridiag_ldlt", no_factor)
    monkeypatch.setattr(qesolve.tridiag, "tridiag_matvec", no_matvec)
    monkeypatch.setattr(qesolve.spectrum, "tridiag_matvec", no_matvec)
    assert not hasattr(analysis, "tridiag_matvec")
    fd_verify(model, solutions, result.shift, GridSpec(-6.0, 6.0, n_points))
    assert len(samples) == len(set(samples)) == reduced
    assert min(samples) >= 0.0
    # each level takes a few one-pass Newton steps over the half grid's rows;
    # on the default grid the second step already lies below the level's
    # rounding floor, so no third pass confirms it
    assert set(passes) == {reduced}
    if n_points == 2000:
        assert len(passes) == 2 * len(solutions)
    else:
        assert len(solutions) <= len(passes) <= analysis.FD_NEWTON_STEPS * len(solutions)


def test_fd_newton_matches_full_morse_grid(monkeypatch):
    np = pytest.importorskip("numpy")

    def no_factor(*args):
        raise AssertionError("an in-gate level was factored")

    model = make_morse(MorseParams.from_mu(0.7, 3))
    solutions, result = solve_model(model)
    grid = GridSpec(-12.0, 4.0, 701)
    diag, off = full_grid_hamiltonian(model, result.shift, grid)
    reference = np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    monkeypatch.setattr(analysis, "tridiag_ldlt", no_factor)
    refined = fd_verify(model, solutions, result.shift, grid).refined
    for s, value in zip(solutions, refined):
        nearest = reference[np.argmin(abs(reference - (s.energy_base + result.shift)))]
        assert abs(value - nearest) <= 1e-9


def test_fd_exhausted_newton_budget_falls_back(monkeypatch):
    model = make_morse(MorseParams.from_mu(0.7, 2))
    solutions, result = solve_model(model)
    grid = GridSpec(-12.0, 4.0, 300)
    newton = fd_verify(model, solutions, result.shift, grid).refined
    factors = []
    tridiag_ldlt = analysis.tridiag_ldlt

    def counting_factor(*args):
        factors.append(args[2])
        return tridiag_ldlt(*args)

    monkeypatch.setattr(analysis, "FD_NEWTON_STEPS", 1)
    monkeypatch.setattr(analysis, "tridiag_ldlt", counting_factor)
    fallback = fd_verify(model, solutions, result.shift, grid).refined
    assert len(factors) == len(solutions)
    # the fallback is shifted by the prediction itself
    assert factors == [s.energy_base + result.shift for s in solutions]
    for a, b in zip(newton, fallback):
        assert abs(a - b) <= 1e-9 * abs(a)


@pytest.mark.parametrize("two_j, mu", [(9, 0.7), (12, 1.4)])
def test_fd_fallback_finds_the_in_gate_level_newton_leaves(two_j, mu, monkeypatch):
    # on these coarse grids Newton leaves the disc of some levels whose
    # nearest grid eigenvalue lies inside it; inverse iteration shifted by
    # the prediction finds that eigenvalue, so the model passes the gate
    np = pytest.importorskip("numpy")
    model = make_morse(MorseParams.from_mu(mu, two_j))
    solutions, result = solve_model(model)
    grid = GridSpec(-12.0, 4.0, 64)
    factors = []
    tridiag_ldlt = analysis.tridiag_ldlt

    def counting_factor(*args):
        factors.append(args[2])
        return tridiag_ldlt(*args)

    monkeypatch.setattr(analysis, "tridiag_ldlt", counting_factor)
    check = fd_verify(model, solutions, result.shift, grid)
    assert factors
    diag, off = full_grid_hamiltonian(model, result.shift, grid)
    reference = np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for s, value in zip(solutions, check.refined):
        nearest = reference[np.argmin(abs(reference - (s.energy_base + result.shift)))]
        assert abs(value - nearest) <= 1e-9
    assert check.defect <= check.defect_bound


def test_fd_newton_rejects_a_non_finite_step():
    # p(z) = (1 - z)(-1 - z) has p'(0) = 0: the step 1 / (p'/p) is infinite; a
    # diagonal H has no off-diagonal entries, so its kinetic row sum 4 max|off| is 0
    diag, prod = [1.0 + 0j, -1.0 + 0j], [0.0, 0.0]
    assert analysis._newton_root(diag, prod, 0j, 10.0, 0.0) is None
    # and from 0.5 the first iterate, 1.25, leaves a disc of radius 0.5
    assert analysis._newton_root(diag, prod, 0.5 + 0j, 0.5, 0.0) is None
    root = analysis._newton_root(diag, prod, 0.5 + 0j, 1.0, 0.0)
    assert abs(root - 1.0) <= 1e-15


def _default_grid_models():
    """Sextic even, sextic odd and Morse at 2j = 0..5, mu in {0, 0.7, 1.4}: 189 levels."""
    for two_j in range(6):
        for mu in (0.0, 0.7, 1.4):
            yield make_sextic(SexticParams.from_mu(mu, two_j, EVEN))
            yield make_sextic(SexticParams.from_mu(mu, two_j, ODD))
            yield make_morse(MorseParams.from_mu(mu, two_j))


@pytest.fixture(scope="module")
def default_grid_newton():
    """(log-derivative passes, levels, [(diag, prod, kinetic, root)]) over the default grids.

    kinetic is 4 / h^2 of each model's default grid, read from the grid
    itself; root is each level's Newton root, None where it fell back.
    """
    passes, roots = [], []
    log_derivative, newton_root = analysis.tridiag_log_derivative, analysis._newton_root
    levels = 0

    def counting_log_derivative(*args):
        passes.append(len(args[0]))
        return log_derivative(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "tridiag_log_derivative", counting_log_derivative)
        for model in _default_grid_models():
            grid = default_grid(model)
            kinetic = 4.0 * ((grid.n_points + 1) / (grid.x_max - grid.x_min)) ** 2

            def recording_root(diag, prod, guess, radius, *rest):
                root = newton_root(diag, prod, guess, radius, *rest)
                roots.append((diag, prod, kinetic, root))
                return root

            patch.setattr(analysis, "_newton_root", recording_root)
            solutions, result = solve_model(model)
            fd_verify(model, solutions, result.shift)
            levels += len(solutions)
    return passes, levels, roots


def test_fd_newton_passes_on_default_grids(default_grid_newton):
    # every level stopped on a step below FD_RQ_TOL took 538 passes here;
    # stopping once the next step is below the rounding floor takes 366
    passes, levels, roots = default_grid_newton
    assert levels == len(roots) == 189
    assert len(passes) <= 400


def test_fd_newton_roots_are_fixed_points(default_grid_newton):
    # one more Newton step from any returned root stays within twice its
    # rounding floor eps * (4 / h^2 + |z|): the pass that was saved would
    # only have confirmed the root
    _, _, roots = default_grid_newton
    kept = [entry for entry in roots if entry[3] is not None]
    assert len(kept) == 177  # the other 12 levels fall back to inverse iteration
    for diag, prod, kinetic, root in kept:
        step = 1.0 / analysis.tridiag_log_derivative(diag, prod, root)
        assert abs(step) <= 2.0 * sys.float_info.epsilon * (kinetic + abs(root))


def _morse_grid(model, shift, grid):
    """diag, coupling products and 4 / h^2 of the full Morse grid Hamiltonian, as fd_verify builds it."""
    diag, off = full_grid_hamiltonian(model, shift, grid)
    return diag, [0.0] + [c * c for c in off], -4.0 * off[0]


def test_fd_newton_does_not_stop_early_on_its_last_step():
    # on this coarse grid Newton from -21.745 - 2.616i wanders for all its
    # steps; a rounding-floor stop on the last one would keep -17.862 - 1.115i,
    # a grid eigenvalue, but not the one nearest the prediction (-25.619 - 2.010i)
    model = make_morse(MorseParams.from_mu(0.7, 11))
    solutions, result = solve_model(model)
    grid = GridSpec(-12.0, 4.0, 64)
    diag, prod, kinetic = _morse_grid(model, result.shift, grid)
    (guess,) = [
        s.energy_base + result.shift
        for s in solutions
        if abs(s.energy_base + result.shift - (-21.745 - 2.616j)) < 1e-3
    ]
    radius = analysis.fd_defect_bound(model, grid)
    assert analysis._newton_root(diag, prod, guess, radius, kinetic) is None


def test_fd_coarse_morse_levels_match_a_40_digit_grid_eigenvalue():
    # the rounding floor uses 4 / h^2, not ||H||: the far-tail potential
    # (e^24 at x = -12) sets ||H|| on Morse grids, and a floor from it stops
    # Newton about 2e-6 short of these levels
    mp = pytest.importorskip("mpmath")
    model = make_morse(MorseParams.from_mu(0.7, 5))
    solutions, result = solve_model(model)
    grid = GridSpec(-12.0, 4.0, 64)
    refined = fd_verify(model, solutions, result.shift, grid).refined
    diag, prod, _ = _morse_grid(model, result.shift, grid)
    with mp.workdps(40):
        diag40 = [mp.mpc(d) for d in diag]
        prod40 = [mp.mpf(b) for b in prod]
        for value in refined:
            # Newton on the continuant p(z) = det(H - zI) and p'(z), in 40 digits
            z = mp.mpc(value)
            for _ in range(50):
                p0, p1, d0, d1 = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(0)
                for a, b in zip(diag40, prod40):
                    p0, p1 = (a - z) * p0 - b * p1, p0
                    d0, d1 = (a - z) * d0 - p1 - b * d1, d0
                step = p0 / d0
                z -= step
                if abs(step) <= mp.mpf(10) ** -35 * (1 + abs(z)):
                    break
            else:
                raise AssertionError("40-digit Newton did not settle")
            assert abs(complex(z) - value) <= 1e-10


def test_fd_isotropic_vector_raises_with_last_estimate():
    # H = [[1, i], [i, -1]] is complex symmetric and nilpotent.  From e1 with
    # sigma = -4, (H + 4)^-1 = [[3, -i], [-i, 5]] / 16 gives u = (3, -i)/16
    # and the quotient -4 + (3/16) / (8/256) = 2; the next solve gives
    # u = (1, -i)/(2 sqrt(10)), whose u^T u is exactly 0
    factors = analysis.tridiag_ldlt([1j], [1.0 + 0j, -1.0 + 0j], -4.0)
    with pytest.raises(ConvergenceFailureError) as info:
        analysis._inverse_iteration(factors, -4.0, [1.0 + 0j, 0j])
    assert abs(info.value.best - 2.0) <= 1e-15
    # from the isotropic null vector (1, i) every u is parallel to it, and
    # rounding leaves |u^T u| / ||u||^2 near 1e-16: the first quotient is
    # noise (it used to settle on 1.0, -0.0625 and 0.0833), so none is kept
    for sigma in (3.0, -0.25, 0.75):
        factors = analysis.tridiag_ldlt([1j], [1.0 + 0j, -1.0 + 0j], sigma)
        with pytest.raises(ConvergenceFailureError) as info:
            analysis._inverse_iteration(factors, sigma, [1.0 + 0j, 1j])
        assert info.value.best is None
        assert info.value.defect <= analysis.FD_ISOTROPY_TOL


@pytest.mark.parametrize(
    "model",
    [make_sextic(SexticParams.from_mu(0.7, 5)), make_morse(MorseParams.from_mu(0.7, 5))],
    ids=["sextic", "morse"],
)
def test_fd_verify_all_levels_equals_per_level(model):
    solutions, result = solve_model(model)
    check = fd_verify(model, solutions, result.shift)
    singles = [fd_verify(model, [s], result.shift) for s in solutions]
    assert check.refined == tuple(r for single in singles for r in single.refined)
    assert check.defect == max(single.defect for single in singles)


def test_fd_refine_samples_potential_once(monkeypatch):
    # a Morse grid keeps all its points: one potential sample at each
    model = make_morse(MorseParams.from_mu(0.7, 2))
    solutions, result = solve_model(model)
    calls = []

    def counting_potential(*args):
        calls.append(args[1])
        return potential_eval(*args)

    monkeypatch.setattr(analysis, "potential_eval", counting_potential)
    refined = fd_verify(model, solutions, result.shift, GridSpec(-12.0, 4.0, 300)).refined
    assert len(refined) == 3
    assert len(calls) == len(set(calls)) == 300


def test_fd_inverse_iteration_budget(monkeypatch):
    # a 1e-12 disc sends the level to inverse iteration, whose budget runs out
    monkeypatch.setattr(analysis, "FD_MAX_STEPS", 1)
    with pytest.raises(ConvergenceFailureError) as info:
        analysis._refine_levels(*_free_particle(200), [1.0 + 0j], 1e-12)
    # one solve: the defect is the quotient's move away from the shift
    assert info.value.defect == abs(info.value.best - 1.0)


def test_grid_validation():
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 32)
    with pytest.raises(ValidationError):
        GridSpec(1.0, 0.0, 128)
    for x_min, x_max in ((-math.inf, 6.0), (-6.0, math.inf)):
        with pytest.raises(ValidationError):
            GridSpec(x_min, x_max, 100)
    for n_points in (100.5, 100.0, True, 10**6 + 1):
        with pytest.raises(ValidationError):
            GridSpec(-6.0, 6.0, n_points)


def test_default_grids():
    sextic = default_grid(make_sextic(SexticParams.from_mu(1.0, 0)))
    morse = default_grid(make_morse(MorseParams.from_mu(1.0, 0)))
    assert (sextic.x_min, sextic.x_max, sextic.n_points) == (-6.0, 6.0, 2000)
    assert (morse.x_min, morse.x_max, morse.n_points) == (-12.0, 4.0, 2000)
    # a complex a or d of the same modulus leaves the Morse grid where it is
    tilted = default_grid(make_morse(MorseParams.from_mu(1.0, 0, a=1j, d=0.6 + 0.8j)))
    assert (tilted.x_min, tilted.x_max) == (-12.0, 4.0)
    # V_{a,d}(x) = V_{1,1}(x - x0) for a d = 1, with x0 = ln(a / d) / 2 = ln 100
    moved = default_grid(make_morse(MorseParams.from_mu(1.0, 0, a=100.0, d=0.01)))
    assert abs(moved.x_min - (-12.0 + math.log(100.0))) <= 1e-15 * 12.0
    assert abs(moved.x_max - (4.0 + math.log(100.0))) <= 1e-15 * 12.0


@pytest.mark.parametrize(
    "two_j, mu, power",
    [(two_j, mu, power) for two_j in range(8) for mu in (0.3, 0.7, 1.4) for power in (-3, 2, 3)],
)
def test_morse_depends_on_a_and_d_through_their_product(two_j, mu, power):
    # a d = 1 makes V_{a,d} a translate of V_{1,1}: the same spectrum, and on
    # the translated default grid the same verify outcome
    reference = make_morse(MorseParams.from_mu(mu, two_j))
    model = make_morse(MorseParams.from_mu(mu, two_j, a=10.0**power, d=10.0**-power))
    expected, _ = solve_model(reference)
    solutions, _ = solve_model(model)
    for s, e in zip(solutions, expected, strict=True):
        assert abs(s.energy_base - e.energy_base) <= 1e-14 * max(1.0, abs(e.energy_base))
    _, passed_reference = build_report(reference, verify=True)
    _, passed = build_report(model, verify=True)
    assert passed or not passed_reference


@pytest.mark.parametrize(
    "power, two_j, mu",
    [(2, 17, 0.3), (3, 2, 0.7), (4, 2, 1.4), (4, 5, 0.7), (4, 6, 0.7), (4, 17, 0.3), (6, 2, 0.7), (6, 2, 1.4)],
)
def test_graded_morse_blocks_solve(power, two_j, mu):
    # a = 10^p, d = 10^-p grades the couplings sub_k = -2dk and sup_k = 2a(k - n)
    # by 10^2p, yet the spectrum depends on a d = 1 alone; each eigenvector
    # must satisfy the graded block as well as the energies match a = d = 1
    reference, _ = solve_model(make_morse(MorseParams.from_mu(mu, two_j)))
    graded = make_morse(MorseParams.from_mu(mu, two_j, a=10.0**power, d=10.0**-power))
    solutions, _ = solve_model(graded)
    largest = max(abs(e.energy_base) for e in reference)
    for s, e in zip(solutions, reference, strict=True):
        assert s.eigvec_residual <= 1e-12
        assert abs(s.energy_base - e.energy_base) <= 1e-14 * largest
