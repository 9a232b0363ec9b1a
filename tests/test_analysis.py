import cmath
import dataclasses
import math

import pytest

from qesolve.analysis import (
    GridSpec,
    Wavefunction,
    default_grid,
    default_residual_sample,
    fd_refine_energy,
    fd_verify,
    is_pt_symmetric,
    norm_squared,
    psi_eval,
    residual_sup,
    susy_partner,
)
from qesolve.cpoly import CPolynomial
from qesolve.errors import (
    ConvergenceFailureError,
    NumericOverflowError,
    PoleError,
    ValidationError,
)
from qesolve.families import (
    ODD,
    MorseParams,
    SexticParams,
    make_morse,
    make_sextic,
)
from qesolve.spectrum import solve_model

from _helpers import (
    fresh_rng,
    reality_regime_morse,
    reality_regime_sextic,
    rel_err,
    romberg,
)


def _solved(model, index=0):
    solutions, _ = solve_model(model)
    return Wavefunction(model, solutions[index])


def test_psi_sextic_ground_profile():
    w = _solved(make_sextic(SexticParams.from_mu(1.0, 0)))
    assert psi_eval(w, 0.0) == 1.0
    for x in (0.5, 1.0, 2.0):
        assert rel_err(abs(psi_eval(w, x)), math.exp(-x ** 4 / 4.0)) <= 1e-14


def test_psi_sextic_two_level_lower_state():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    w = _solved(model, index=0)  # E = -2 level has factor 1 + (1-i) z
    expected = (2.0 - 1j) * math.exp(-0.25) * cmath.exp(-0.5j)
    assert abs(psi_eval(w, 1.0) - expected) <= 1e-14


def test_psi_morse_at_origin():
    w = _solved(make_morse(MorseParams.from_mu(1.0, 0)))
    assert rel_err(psi_eval(w, 0.0), math.exp(-2.0)) <= 1e-14


def test_residual_vanishes_for_true_eigenpairs():
    rng = fresh_rng()
    for two_j in range(5):
        models = [reality_regime_sextic(rng, two_j) for _ in range(5)]
        models += [reality_regime_sextic(rng, two_j, ODD) for _ in range(2)]
        models += [reality_regime_morse(rng, two_j) for _ in range(5)]
        for model in models:
            solutions, _ = solve_model(model)
            sample = default_residual_sample(model)
            for s in solutions:
                assert residual_sup(Wavefunction(model, s), sample) <= 1e-10


def test_residual_detects_wrong_energy():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, _ = solve_model(model)
    broken = dataclasses.replace(solutions[0], energy_base=solutions[0].energy_base + 0.1)
    assert residual_sup(Wavefunction(model, broken), default_residual_sample(model)) >= 1e-3


def test_residual_spin_zero_bracket():
    # at j = 0 the bracket is just a - E, so only E = a annihilates it
    model = make_sextic(SexticParams.from_mu(0.8, 0))
    solutions, _ = solve_model(model)
    assert solutions[0].energy_base == 0.8j
    good = residual_sup(Wavefunction(model, solutions[0]), default_residual_sample(model))
    assert good <= 1e-12
    broken = dataclasses.replace(solutions[0], energy_base=solutions[0].energy_base - 0.05)
    assert residual_sup(Wavefunction(model, broken), default_residual_sample(model)) >= 1e-3


def test_residual_needs_sample():
    w = _solved(make_sextic(SexticParams.from_mu(1.0, 0)))
    with pytest.raises(ValidationError):
        residual_sup(w, [])


def test_psi_overflow_for_growing_gauge():
    # Re a < 0 flips the left tail of the Morse gauge into growth
    model = make_morse(MorseParams(a=-1.0, d=1.0, b=0.0, two_j=0))
    solutions, _ = solve_model(model)
    w = Wavefunction(model, solutions[0])
    with pytest.raises(NumericOverflowError):
        psi_eval(w, -800.0)


def test_norm_matches_quartic_gaussian_oracle():
    # |psi|^2 = exp(-x^4/2); closed form 2^(5/4) Gamma(5/4), cross-checked by quadrature
    gamma_value = 2.0 ** 1.25 * math.gamma(1.25)
    quad_value = romberg(lambda x: math.exp(-x ** 4 / 2.0), -8.0, 8.0)
    assert abs(gamma_value - quad_value) <= 1e-9
    w = _solved(make_sextic(SexticParams.from_mu(1.0, 0)))
    assert abs(norm_squared(w) - gamma_value) <= 1e-6


def test_norm_scales_quadratically():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, _ = solve_model(model)
    base = Wavefunction(model, solutions[0])
    doubled = Wavefunction(
        model,
        dataclasses.replace(
            solutions[0],
            phi_coeffs=CPolynomial([2.0 * c for c in solutions[0].phi_coeffs.coeffs]),
        ),
    )
    assert rel_err(norm_squared(doubled), 4.0 * norm_squared(base)) <= 1e-13


def test_norm_morse_interval_doubling_stable():
    w = _solved(make_morse(MorseParams.from_mu(1.0, 0)))
    n1 = norm_squared(w)
    n2 = norm_squared(w, initial_half_width=4.0)
    assert n1 > 0.0 and math.isfinite(n1)
    assert abs(n1 - n2) <= 1e-10 * n1


def test_norm_requires_decaying_gauge():
    model = make_morse(MorseParams(a=-1.0, d=1.0, b=0.0, two_j=0))
    solutions, _ = solve_model(model)
    with pytest.raises(ValidationError):
        norm_squared(Wavefunction(model, solutions[0]))


def test_pt_symmetry_sextic():
    fixture = make_sextic(SexticParams.from_mu(1.0, 1))
    assert not is_pt_symmetric(fixture, shift=-3j)
    real_case = make_sextic(SexticParams.from_mu(0.0, 1))
    assert is_pt_symmetric(real_case, shift=0.0)


def test_pt_symmetry_morse():
    symmetric = make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0))
    assert is_pt_symmetric(symmetric)
    lopsided = make_morse(MorseParams(a=1.0, d=2.0, b=0.0, two_j=0))
    assert not is_pt_symmetric(lopsided)
    fixture = make_morse(MorseParams.from_mu(1.0, 0))
    assert not is_pt_symmetric(fixture, shift=-1.5j)


def test_partner_difference_even_sector():
    a = 0.4 - 0.9j
    partner = susy_partner(make_sextic(SexticParams(a=a, two_j=1)))
    for x in (-1.5, 0.0, 0.7):
        expected = 2.0 * (3.0 * x * x + a)
        assert abs(partner.difference(x) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_partner_difference_at_unit_point():
    partner = susy_partner(make_sextic(SexticParams(a=0.0, two_j=0)))
    assert abs(partner.difference(1.0) - 6.0) <= 1e-13
    assert abs(partner.v_minus(1.0) - (1.0 - 3.0)) <= 1e-13  # x^6 - 3x^2 at x=1


def test_partner_morse_origin():
    partner = susy_partner(make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0)))
    assert abs(partner.difference(0.0) - 4.0) <= 1e-13


def test_partner_odd_sector_pole():
    partner = susy_partner(make_sextic(SexticParams.from_mu(0.5, 1, ODD)))
    with pytest.raises(PoleError):
        partner.v_plus(0.0)
    with pytest.raises(PoleError):
        partner.v_minus(0.0)
    assert cmath.isfinite(partner.v_plus(0.5))


def test_partner_identity_random_points():
    rng = fresh_rng()
    models = (
        make_sextic(SexticParams(a=0.2 + 0.7j, two_j=2)),
        make_morse(MorseParams(a=0.8, d=1.2, b=0.3 - 0.2j, two_j=1)),
    )
    for model in models:
        partner = susy_partner(model)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0)
            lhs = partner.difference(x)
            rhs = 2.0 * model.gauge.superpotential_derivative(x)
            scale = max(1.0, abs(partner.v_plus(x)), abs(partner.v_minus(x)))
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_tridiagonal_solver_direct():
    from qesolve.tridiag import tridiag_factor, tridiag_matvec, tridiag_solve

    rng = fresh_rng()
    n = 50
    sub = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n - 1)]
    sup = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n - 1)]
    diag = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.1 for _ in range(n)]
    rhs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    x = tridiag_solve(tridiag_factor(sub, diag, sup), rhs)
    ax = tridiag_matvec(sub, diag, sup, x)
    for i in range(n):
        acc = diag[i] * x[i]
        if i > 0:
            acc += sub[i - 1] * x[i - 1]
        if i < n - 1:
            acc += sup[i] * x[i + 1]
        assert ax[i] == acc
        assert abs(acc - rhs[i]) <= 1e-11 * max(1.0, abs(rhs[i]))


def test_fd_free_particle_second_order():
    refined = fd_refine_energy(lambda x: 0.0j, 0.0, math.pi, 500, 1.0 + 0j)
    finer = fd_refine_energy(lambda x: 0.0j, 0.0, math.pi, 1001, 1.0 + 0j)
    defect, defect_fine = abs(refined - 1.0), abs(finer - 1.0)
    assert defect <= 1e-4
    assert 3.2 <= defect / defect_fine <= 4.8


def test_fd_verify_fixture_small_grid():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, _ = solve_model(model)
    top = max(solutions, key=lambda s: s.energy_shifted.real)
    refined, defect = fd_verify(model, top, GridSpec(-6.0, 6.0, 500))
    assert 0.0 < defect <= 2e-3
    assert abs(refined - 2.0) <= 2e-3


def test_fd_odd_sector_level():
    # parity-odd eigenstate on a symmetric grid; start vector must reach it
    model = make_sextic(SexticParams.from_mu(1.0, 1, ODD))
    solutions, result = solve_model(model)
    assert result.found and abs(solutions[0].shift + 5j) <= 1e-10
    refined, defect = fd_verify(model, solutions[1], GridSpec(-6.0, 6.0, 1000))
    assert defect <= 5e-3
    assert abs(refined - 2.0 * math.sqrt(5.0)) <= 5e-3


def test_fd_confirms_complex_morse_pair():
    # the unshiftable two-level Morse case: the grid check lands on the
    # complex block eigenvalues, not on any real pair
    model = make_morse(MorseParams.from_mu(1.0, 1))
    solutions, result = solve_model(model)
    assert not result.found
    for s in solutions:
        refined, defect = fd_verify(model, s, GridSpec(-12.0, 4.0, 1000))
        assert defect <= 5e-3
        assert abs(refined.imag - s.energy_shifted.imag) <= 5e-3


def test_fd_inverse_iteration_budget():
    with pytest.raises(ConvergenceFailureError):
        fd_refine_energy(lambda x: 0.0j, 0.0, math.pi, 200, 1.0 + 0j, max_iter=1)


def test_grid_validation():
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 32)
    with pytest.raises(ValidationError):
        GridSpec(1.0, 0.0, 128)
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 128, boundary="periodic")


def test_default_grids():
    sextic = default_grid(make_sextic(SexticParams.from_mu(1.0, 0)))
    morse = default_grid(make_morse(MorseParams.from_mu(1.0, 0)))
    assert (sextic.x_min, sextic.x_max, sextic.n_points) == (-6.0, 6.0, 2000)
    assert (morse.x_min, morse.x_max, morse.n_points) == (-12.0, 4.0, 2000)
