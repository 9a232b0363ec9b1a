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
    default_residual_sample,
    fd_refine_energy,
    fd_verify,
    is_pt_symmetric,
    norm_squared,
    partner_potentials,
    psi_eval,
    residual_sup,
)
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
    MorseParams,
    SexticParams,
    make_morse,
    make_sextic,
    potential_eval,
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
            sample = default_residual_sample(model)
            for s in solutions:
                assert residual_sup(model, s, sample) <= 1e-10


def test_residual_detects_wrong_energy():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, _ = solve_model(model)
    broken = dataclasses.replace(solutions[0], energy_base=solutions[0].energy_base + 0.1)
    assert residual_sup(model, broken, default_residual_sample(model)) >= 1e-3


def test_residual_spin_zero_bracket():
    # at j = 0 the bracket is just a - E, so only E = a annihilates it
    model = make_sextic(SexticParams.from_mu(0.8, 0))
    solutions, _ = solve_model(model)
    assert solutions[0].energy_base == 0.8j
    good = residual_sup(model, solutions[0], default_residual_sample(model))
    assert good <= 1e-12
    broken = dataclasses.replace(solutions[0], energy_base=solutions[0].energy_base - 0.05)
    assert residual_sup(model, broken, default_residual_sample(model)) >= 1e-3


def test_residual_needs_sample():
    w = _solved(make_sextic(SexticParams.from_mu(1.0, 0)))
    with pytest.raises(ValidationError):
        residual_sup(*w, [])


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
        make_sextic(SexticParams.from_mu(0.7, 3, ODD)),
        make_morse(MorseParams.from_mu(1.0, 2)),
    ],
    ids=["sextic-odd", "morse"],
)
def test_norm_samples_each_abscissa_once(model, monkeypatch):
    # halving the step and widening the interval reuse earlier samples
    w = _solved(model)
    expected = norm_squared(*w)
    abscissas = []
    psi_abs2 = analysis.psi_abs2

    def recording_psi_abs2(model, solution, x):
        abscissas.append(x)
        return psi_abs2(model, solution, x)

    monkeypatch.setattr(analysis, "psi_abs2", recording_psi_abs2)
    assert norm_squared(*w) == expected
    assert abscissas and len(abscissas) == len(set(abscissas))


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
    w = _solved(make_sextic(SexticParams.from_mu(1.0, 0)))
    monkeypatch.setattr(analysis, "NORM_MAX_WIDENINGS", 1)
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


def test_pt_symmetry_morse():
    symmetric = make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0))
    assert is_pt_symmetric(symmetric)
    lopsided = make_morse(MorseParams(a=1.0, d=2.0, b=0.0, two_j=0))
    assert not is_pt_symmetric(lopsided)
    fixture = make_morse(MorseParams.from_mu(1.0, 0))
    assert not is_pt_symmetric(fixture, shift=-1.5j)


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
    from qesolve.tridiag import tridiag_factor, tridiag_matvec, tridiag_solve

    rng = fresh_rng()
    n = 50
    sub = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n - 1)]
    sup = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n - 1)]
    diag = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.1 for _ in range(n)]
    rhs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    x = tridiag_solve(tridiag_factor(sub, diag, sup, 0.0), rhs)
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
    from qesolve.tridiag import tridiag_factor, tridiag_solve

    factors = tridiag_factor([1.0 + 0j], [1.0 + 0j, 1.0 + 0j], [1.0 + 0j], 0.0)
    assert factors[0][-1] == 2.0 * sys.float_info.epsilon
    x = tridiag_solve(factors, [0.0j, 1.0 + 0j])
    assert abs(x[0] + x[1]) <= 1e-15 * abs(x[0]) and abs(x[0]) >= 1e14


def test_zero_pivot_uses_the_unshifted_norm():
    # [[3, 1], [1, 3]] - 2 I is [[1, 1], [1, 1]]: its zero last pivot becomes
    # eps * ||A|| = 4 eps of the unshifted A, not 2 eps of the shifted one
    from qesolve.tridiag import tridiag_factor

    eps = sys.float_info.epsilon
    factors = tridiag_factor([1.0 + 0j], [3.0 + 0j, 3.0 + 0j], [1.0 + 0j], 2.0)
    assert factors[0] == [1.0 + 0j, 4.0 * eps + 0j]
    zero = tridiag_factor([0.0j], [0.0j, 0.0j], [0.0j], 0.0)
    assert zero[0] == [1.0 + 0j, 1.0 + 0j]


def test_fd_free_particle_second_order():
    (refined,) = fd_refine_energy(lambda x: 0.0j, 0.0, math.pi, 500, [1.0 + 0j])
    (finer,) = fd_refine_energy(lambda x: 0.0j, 0.0, math.pi, 1001, [1.0 + 0j])
    defect, defect_fine = abs(refined - 1.0), abs(finer - 1.0)
    assert defect <= 1e-4
    assert 3.2 <= defect / defect_fine <= 4.8


def test_fd_verify_fixture_small_grid():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, _ = solve_model(model)
    top = max(solutions, key=lambda s: s.energy_shifted.real)
    (refined,), defect = fd_verify(model, [top], GridSpec(-6.0, 6.0, 500))
    assert 0.0 < defect <= 2e-3
    assert abs(refined - 2.0) <= 2e-3


def test_fd_odd_sector_level():
    # parity-odd eigenstate on a symmetric grid; start vector must reach it
    model = make_sextic(SexticParams.from_mu(1.0, 1, ODD))
    solutions, result = solve_model(model)
    assert result.found and abs(solutions[0].shift + 5j) <= 1e-10
    (refined,), defect = fd_verify(model, [solutions[1]], GridSpec(-6.0, 6.0, 1000))
    assert defect <= 5e-3
    assert abs(refined - 2.0 * math.sqrt(5.0)) <= 5e-3


def test_fd_confirms_complex_morse_pair():
    # the unshiftable two-level Morse case: the grid check lands on the
    # complex block eigenvalues, not on any real pair
    model = make_morse(MorseParams.from_mu(1.0, 1))
    solutions, result = solve_model(model)
    assert not result.found
    for s in solutions:
        (refined,), defect = fd_verify(model, [s], GridSpec(-12.0, 4.0, 1000))
        assert defect <= 5e-3
        assert abs(refined.imag - s.energy_shifted.imag) <= 5e-3


@pytest.mark.parametrize(
    "sector, mu",
    [(EVEN, 0.12926250521780655), (ODD, 0.39790155721015097)],
    ids=["even", "odd"],
)
def test_fd_parity_start_on_sextic_double_well(sector, mu, monkeypatch):
    # at 2j=5 the lowest level has a nearly degenerate partner of the other
    # parity on the full grid; the half grid holds the sector's parity only,
    # so that partner cannot mix into the refined value
    np = pytest.importorskip("numpy")
    model = make_sextic(SexticParams.from_mu(mu, 5, sector))
    solutions, _ = solve_model(model)
    shift = solutions[0].shift
    assert all(s.shift == shift for s in solutions)
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
    for s in solutions:
        solves.append(0)
        (refined,), _ = fd_verify(model, [s], grid)
        nearest = reference[np.argmin(abs(reference - s.energy_shifted))]
        assert abs(refined - nearest) <= 1e-9
        assert solves[-1] <= 4


def _sector_spectrum(np, model, grid, shift):
    """Eigenvalues of the full-grid Hamiltonian restricted to the sector's parity.

    The full central-difference matrix is projected onto an orthonormal
    basis of mirror-symmetric (even sector) or antisymmetric (odd sector)
    grid vectors, independently of how fd_verify folds the half grid.
    """
    n = grid.n_points
    h = (grid.x_max - grid.x_min) / (n + 1)
    xs = [grid.x_min + (i + 1) * h for i in range(n)]
    diag = [2.0 / h**2 + potential_eval(model, x, shift) for x in xs]
    off = np.full(n - 1, -1.0 / h**2)
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
    [(5, GridSpec(-6.0, 6.0, 64)), (5, GridSpec(-6.0, 6.0, 65)), (2, GridSpec(-5.0, 5.0, 701))],
    ids=["n64", "n65", "n701"],
)
def test_fd_levels_are_sector_grid_eigenvalues(sector, two_j, grid):
    # on coarse grids a full-grid iteration let roundoff carry in the other
    # parity (even level 5 at n=64 landed on 31.93 instead of 38.69); odd n
    # exercises the centre point: dropped (odd) or coupled by -sqrt(2)/h^2
    np = pytest.importorskip("numpy")
    model = make_sextic(SexticParams.from_mu(0.7, two_j, sector))
    solutions, _ = solve_model(model)
    reference = _sector_spectrum(np, model, grid, solutions[0].shift)
    refined, _ = fd_verify(model, solutions, grid)
    assert len(refined) == two_j + 1
    for s, value in zip(solutions, refined):
        nearest = reference[np.argmin(abs(reference - s.energy_shifted))]
        assert abs(value - nearest) <= 1e-9


@pytest.mark.parametrize(
    "sector, n_points, reduced",
    [(EVEN, 2000, 1000), (ODD, 2000, 1000), (EVEN, 701, 351), (ODD, 701, 350)],
)
def test_fd_verify_cost_on_half_grid(sector, n_points, reduced, monkeypatch):
    import qesolve.spectrum
    import qesolve.tridiag

    model = make_sextic(SexticParams.from_mu(0.7, 2, sector))
    solutions, _ = solve_model(model)
    samples, factors = [], []

    def counting_potential(*args):
        samples.append(args[1])
        return potential_eval(*args)

    def counting_factor(*args):
        factors.append(len(args[1]))
        return tridiag_factor(*args)

    def no_matvec(*args):
        raise AssertionError("the grid check multiplies by H")

    tridiag_factor = analysis.tridiag_factor
    monkeypatch.setattr(analysis, "potential_eval", counting_potential)
    monkeypatch.setattr(analysis, "tridiag_factor", counting_factor)
    monkeypatch.setattr(qesolve.tridiag, "tridiag_matvec", no_matvec)
    monkeypatch.setattr(qesolve.spectrum, "tridiag_matvec", no_matvec)
    assert not hasattr(analysis, "tridiag_matvec")
    fd_verify(model, solutions, GridSpec(-6.0, 6.0, n_points))
    assert len(samples) == len(set(samples)) == reduced
    assert min(samples) >= 0.0
    assert factors == [reduced] * len(solutions)


def test_fd_isotropic_vector_raises_with_last_estimate():
    # H = [[1, i], [i, -1]] is complex symmetric and nilpotent.  From e1 with
    # sigma = -4, (H + 4)^-1 = [[3, -i], [-i, 5]] / 16 gives u = (3, -i)/16
    # and the quotient -4 + (3/16) / (8/256) = 2; the next solve gives
    # u = (1, -i)/(2 sqrt(10)), whose u^T u is exactly 0
    factors = analysis.tridiag_factor([1j], [1.0 + 0j, -1.0 + 0j], [1j], -4.0)
    with pytest.raises(ConvergenceFailureError) as info:
        analysis._inverse_iteration(factors, -4.0, [1.0 + 0j, 0j])
    assert abs(info.value.best - 2.0) <= 1e-15


@pytest.mark.parametrize(
    "model",
    [make_sextic(SexticParams.from_mu(0.7, 5)), make_morse(MorseParams.from_mu(0.7, 5))],
    ids=["sextic", "morse"],
)
def test_fd_verify_all_levels_equals_per_level(model):
    solutions, _ = solve_model(model)
    refined, defect = fd_verify(model, solutions)
    singles = [fd_verify(model, [s]) for s in solutions]
    assert refined == tuple(r for (r,), _ in singles)
    assert defect == max(d for _, d in singles)


def test_fd_refine_samples_potential_once():
    calls = []

    def counting_potential(x):
        calls.append(x)
        return x * x + 0j

    refined = fd_refine_energy(counting_potential, -6.0, 6.0, 300, [1.0, 3.0, 5.0])
    assert len(refined) == 3
    assert len(calls) == 300


def test_fd_verify_needs_one_shift():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    solutions, _ = solve_model(model)
    moved = dataclasses.replace(solutions[1], shift=solutions[1].shift + 1j)
    with pytest.raises(ValidationError):
        fd_verify(model, [solutions[0], moved], GridSpec(-6.0, 6.0, 300))


def test_fd_inverse_iteration_budget(monkeypatch):
    monkeypatch.setattr(analysis, "FD_MAX_STEPS", 1)
    with pytest.raises(ConvergenceFailureError):
        fd_refine_energy(lambda x: 0.0j, 0.0, math.pi, 200, [1.0 + 0j])


def test_grid_validation():
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 32)
    with pytest.raises(ValidationError):
        GridSpec(1.0, 0.0, 128)


def test_default_grids():
    sextic = default_grid(make_sextic(SexticParams.from_mu(1.0, 0)))
    morse = default_grid(make_morse(MorseParams.from_mu(1.0, 0)))
    assert (sextic.x_min, sextic.x_max, sextic.n_points) == (-6.0, 6.0, 2000)
    assert (morse.x_min, morse.x_max, morse.n_points) == (-12.0, 4.0, 2000)
