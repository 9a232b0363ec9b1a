import cmath
import dataclasses
import math
import operator
import sys
import traceback
from functools import reduce
from itertools import zip_longest

import pytest

from qesolve import analysis
from qesolve.analysis import (
    GridSpec,
    fd_verify,
    is_pt_symmetric,
    norm_squared,
    partner_potentials,
    psi_eval,
    residual_sup,
)
from qesolve.cli import build_report
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
from qesolve.spectrum import QesSolution, solve_model

from _helpers import (
    fresh_rng,
    full_grid_hamiltonian,
    pack,
    reality_regime_morse,
    reality_regime_sextic,
    rel_err,
    romberg,
)
from _oracles import Poly, poly_derivative, poly_mul, poly_scale


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


def test_psi_of_an_unmeasurable_horner_value():
    # phi's one coefficient is finite but its modulus is beyond the largest
    # double, so abs() of the Horner sum raises: psi_eval still returns the
    # value, times the sextic gauge's 1 at x = 0
    model = make_sextic(SexticParams.from_mu(1.0, 0))
    level = QesSolution(0j, pack([1.5e308 + 1.5e308j]), 0.0)
    assert psi_eval(model, level, 0.0) == 1.5e308 + 1.5e308j


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
            coeffs = list(s.phi_coeffs)
            coeffs[len(coeffs) // 2] += 1e-6 * max(map(abs, coeffs))
            broken = dataclasses.replace(s, phi_packed=pack(coeffs))
            assert residual_sup(model, broken) > 1e-10


def _reference_residual(model, solution):
    """residual_sup built from the tests' polynomial algebra, term by term."""
    p2, p1, p0 = map(Poly, model.ode)
    phi = Poly(solution.phi_coeffs)
    d1 = poly_derivative(phi)
    a, b, c = poly_mul(p2, poly_derivative(d1)), poly_mul(p1, d1), poly_mul(p0, phi)
    e = poly_scale(phi, -solution.energy_base)
    columns = list(zip_longest(a.coeffs, b.coeffs, c.coeffs, e.coeffs, fillvalue=0j))
    scale = max((reduce(operator.add, map(abs, col), 0.0) for col in columns), default=0.0)
    return max(abs(sum(col)) for col in columns) / scale if scale else 0.0


def _residual_reference_models():
    for two_j in (0, 1, 2, 5, 12, 31):
        for mu in (0.0, 0.7, 1.4, 2.2):
            yield make_sextic(SexticParams.from_mu(mu, two_j))
            yield make_sextic(SexticParams.from_mu(mu, two_j, ODD))
            yield make_morse(MorseParams.from_mu(mu, two_j))
    # the user-set Morse parameters of scripts/cli_digest.py
    for a, d, b in ((1.0, 1.0, 0.0), (0.5 + 0.2j, 2.0, -1.5 + 0.3j), (1.0, 0.5 - 0.1j, -1.0 + 0.7j)):
        for two_j in (0, 1, 3):
            yield make_morse(MorseParams(a=a, d=d, b=b, two_j=two_j))


def test_residual_equals_the_term_by_term_reference_to_the_bit():
    levels = 0
    for model in _residual_reference_models():
        solutions, _ = solve_model(model)
        for s in solutions:
            assert residual_sup(model, s) == _reference_residual(model, s)
            levels += 1
    assert levels == 3 * 4 * (1 + 2 + 3 + 6 + 13 + 32) + 3 * (1 + 2 + 4)


def test_residual_overflow_raises():
    # 4a * 1e300 in p1 phi' is beyond the largest double
    model = make_sextic(SexticParams(a=1e10, two_j=1))
    level = QesSolution(energy_base=0j, phi_packed=pack([1, 1e300]), eigvec_residual=0.0)
    with pytest.raises(NumericOverflowError, match=r"^non-finite polynomial coefficient \(inf\+0j\)$"):
        residual_sup(model, level)


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
    doubled = dataclasses.replace(base, phi_packed=pack([2.0 * c for c in base.phi_coeffs]))
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

    def recording_psi_abs2(model, phi, x):
        assert x not in samples
        samples[x] = psi_abs2(model, phi, x)
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
    value = norm_squared(model, solutions[17])

    phi = solutions[17].phi_coeffs
    coeffs = [mp.mpc(c.real, c.imag) for c in phi]
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
    rounding = 2.0 * h * sum(analysis.psi_abs2(model, phi, k * h)[1] for k in range(-512, 513))
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
            assert s.phi_coeffs[0] == 1.0
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


@pytest.mark.parametrize("two_j", [0, 2, 5])
def test_morse_norm_is_its_translates_norm(two_j):
    # with a d = 1, V_{a,d}(x) is V_{1,1}(x - x0), x0 = ln(a), so each state is
    # its a = d = 1 translate times a constant and norm / |psi(x0)|^2 does not
    # depend on a; nodes about x = 0 summed zeros or subnormals from a = 2e4
    def ratios(a):
        model = make_morse(MorseParams.from_mu(0.5, two_j, a=a, d=1.0 / a))
        solutions, _ = solve_model(model)
        return [norm_squared(model, s) / abs(psi_eval(model, s, math.log(a))) ** 2 for s in solutions]

    reference = ratios(1.0)
    for a in (1e3, 2e4, 1e7, 1e-7):
        for got, want in zip(ratios(a), reference, strict=True):
            assert rel_err(got, want) <= 1e-12


def test_norm_of_a_state_underflowing_everywhere_raises():
    # at a = d = 300 the gauge factor is below e^-600 at every x, so every
    # sample of |psi|^2 is 0; the norm used to read 0
    model = make_morse(MorseParams.from_mu(0.5, 0, a=300.0, d=300.0))
    solutions, _ = solve_model(model)
    with pytest.raises(ConvergenceFailureError, match="sum underflowed") as excinfo:
        norm_squared(model, solutions[0])
    assert excinfo.value.best == 0.0 and excinfo.value.defect == 1.0


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
    # off the pole, an x whose square underflows leaves W' = ... + 1/x^2 infinite
    for x in (1e-160, 1e-200, 1e-320):
        with pytest.raises(NumericOverflowError, match=f"at x={x!r}$"):
            partner_potentials(model, x)


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
            rhs = 2.0 * model.superpotential(x)[1]
            scale = max(1.0, abs(v_plus), abs(v_minus))
            assert abs((v_plus - v_minus) - rhs) <= 1e-12 * scale


def test_tridiag_matvec_direct():
    # a random complex A with sub != sup, against the three-term row sums;
    # n = 2 has the two edge rows and no middle row
    from qesolve.tridiag import tridiag_matvec

    rng = fresh_rng()
    for n in (50, 2):
        sub, sup = ([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n - 1)] for _ in "ab")
        diag = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        ax = tridiag_matvec(sub, diag, sup, x)
        for i in range(n):
            acc = diag[i] * x[i]
            if i > 0:
                acc += sub[i - 1] * x[i - 1]
            if i < n - 1:
                acc += sup[i] * x[i + 1]
            assert ax[i] == acc
    assert tridiag_matvec([], [2.0 + 0j], [], [3.0 + 0j]) == [6.0 + 0j]


def test_zero_pivot_is_replaced():
    # [[0, 1, 0], [1, 0, 1], [0, 1, 0]] at z = 0: the first pivot down and the
    # last one up are exactly 0 and are divided by; their stand-in
    # eps * ||A|| = 2 eps gives the null vector (1, 0, -1) to rounding
    from qesolve.tridiag import tridiag_null_vectors

    ones = [1.0 + 0j, 1.0 + 0j]
    (x,) = tridiag_null_vectors(ones, [0j, 0j, 0j], ones, [0j])
    assert x[0] == 1.0 and abs(x[1]) <= 1e-15 and abs(x[2] + 1.0) <= 1e-15


def test_zero_pivot_uses_the_unshifted_norm():
    # [[3, 1], [1, 3]] - 2 I is [[1, 1], [1, 1]]: its zero last pivot becomes
    # eps * ||T|| = 4 eps of the unshifted T, not 2 eps of the shifted one, so
    # p'/p = e_0 + e_1 = -1 + (1 * -1 - 1) / (4 eps), exactly
    from qesolve.tridiag import tridiag_log_derivative

    eps = sys.float_info.epsilon
    assert tridiag_log_derivative([3.0 + 0j, 3.0 + 0j], [0.0, 1.0], 2.0 + 0j) == -1.0 - 0.5 / eps
    # the zero matrix has no norm to borrow: its zero pivots become 1
    assert tridiag_log_derivative([0j, 0j], [0.0, 0.0], 0j) == -2.0


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


def test_log_derivative_zero_pivot_reads_the_balanced_norm():
    # the 3 x 3 zero diagonal with coupling products 1 and 39.4 at z = 0: the
    # first pivot down is exactly 0, and its stand-in eps * ||T~|| balances the
    # couplings with math.sqrt, where 39.4 ** 0.5 can lie one ulp away
    from qesolve.tridiag import tridiag_balanced_norm, tridiag_log_derivative

    diag, prod = [0j, 0j, 0j], [0.0, 1.0, 39.4]
    norm = 1.0 + math.sqrt(39.4)
    assert tridiag_balanced_norm(diag, prod) == norm
    d = sys.float_info.epsilon * norm
    e = total = -1.0 / d
    for a, b in zip(diag[1:], prod[1:]):
        r = b / d
        d = a - 0j - r
        e = (r * e - 1.0) / d
        total += e
    assert tridiag_log_derivative(diag, prod, 0j) == total


def test_log_derivative_replaces_a_zero_pivot():
    from qesolve.tridiag import tridiag_log_derivative

    # [[0, 1], [1, 0]] at z = 0: the first pivot is exactly 0, and p = z^2 - 1
    # has p'(0)/p(0) = 0; the eps * ||T|| stand-in leaves eps
    value = tridiag_log_derivative([0j, 0j], [0.0, 1.0], 0j)
    assert abs(value) <= 2.0 * sys.float_info.epsilon


def _free_particle_level(n_points, guess, radius):
    """_grid_eigenvalue of -d^2/dx^2 on n_points interior points of the Dirichlet box [0, pi]."""
    h = math.pi / (n_points + 1)
    off = -1.0 / (h * h)
    diag, prod = [2.0 / (h * h) + 0j] * n_points, [0.0] + [off * off] * (n_points - 1)
    return analysis._grid_eigenvalue(diag, prod, guess, radius, -4.0 * off)


def test_fd_free_particle_second_order():
    # both grids refine by Newton: the roots lie well inside the 1e-3 disc
    refined = _free_particle_level(500, 1.0 + 0j, 1e-3)
    finer = _free_particle_level(1001, 1.0 + 0j, 1e-3)
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
    # each level inside the grid gate without a count; the levels outside
    # it, and every level when that Newton finds nothing, have their disc
    # counted once, which names the sector's grid eigenvalue in it or none
    np = pytest.importorskip("numpy")
    model = make_sextic(SexticParams.from_mu(mu, 5, sector))
    solutions, result = solve_model(model)
    shift = result.shift
    grid = GridSpec(*model.default_domain, analysis.FD_GRID_N)
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

    counts = []
    power_sum_roots = analysis._power_sum_roots

    def counting_roots(*args):
        counts[-1] += 1
        return power_sum_roots(*args)

    monkeypatch.setattr(analysis, "_power_sum_roots", counting_roots)
    newton_root = analysis._newton_root
    predictions = {s.energy_base + shift for s in solutions}

    def no_gate_newton(diag, prod, guess, *rest):
        # the level's own Newton, the one from its prediction, finds nothing
        return None if guess in predictions else newton_root(diag, prod, guess, *rest)

    bound = analysis.fd_defect_bound(model, grid)
    paths = []
    for root in (newton_root, no_gate_newton):
        monkeypatch.setattr(analysis, "_newton_root", root)
        for s in solutions:
            counts.append(0)
            (refined,) = fd_verify(model, [s], shift, grid).refined
            predicted = s.energy_base + shift
            nearest = reference[np.argmin(abs(reference - predicted))]
            if abs(nearest - predicted) <= bound:
                assert abs(refined - nearest) <= 1e-9
            else:
                assert refined is None
            paths.append(counts[-1] == 0)
            if root is no_gate_newton:
                assert counts[-1] == 1
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
    # n=2000 is the default grid, refined by Newton on its 1,000-row half.
    # A level whose disc holds no sector eigenvalue is refined to None
    np = pytest.importorskip("numpy")
    model = make_sextic(SexticParams.from_mu(0.7, two_j, sector))
    solutions, result = solve_model(model)
    reference = _sector_spectrum(np, model, grid, result.shift)
    check = fd_verify(model, solutions, result.shift, grid)
    assert len(check.refined) == two_j + 1
    for s, value in zip(solutions, check.refined):
        predicted = s.energy_base + result.shift
        nearest = reference[np.argmin(abs(reference - predicted))]
        if abs(nearest - predicted) <= check.defect_bound:
            assert abs(value - nearest) <= 1e-9
        else:
            assert value is None


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

    def no_count(*args):
        raise AssertionError("an in-gate level was counted")

    def no_matvec(*args):
        raise AssertionError("the grid check multiplies by H")

    tridiag_log_derivative = analysis.tridiag_log_derivative
    monkeypatch.setattr(analysis, "potential_eval", counting_potential)
    monkeypatch.setattr(analysis, "tridiag_log_derivative", counting_log_derivative)
    monkeypatch.setattr(analysis, "_power_sum_roots", no_count)
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

    def no_count(*args):
        raise AssertionError("an in-gate level was counted")

    model = make_morse(MorseParams.from_mu(0.7, 3))
    solutions, result = solve_model(model)
    grid = GridSpec(-12.0, 4.0, 701)
    diag, off = full_grid_hamiltonian(model, result.shift, grid)
    reference = np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    monkeypatch.setattr(analysis, "_power_sum_roots", no_count)
    refined = fd_verify(model, solutions, result.shift, grid).refined
    for s, value in zip(solutions, refined):
        nearest = reference[np.argmin(abs(reference - (s.energy_base + result.shift)))]
        assert abs(value - nearest) <= 1e-9


def _counted_centres(monkeypatch):
    """Record the centre of every disc fd_verify counts: each level whose rule reaches _power_sum_roots."""
    centres, level = [], []
    grid_eigenvalue, power_sum_roots = analysis._grid_eigenvalue, analysis._power_sum_roots

    def recording_level(diag, prod, centre, *rest):
        level[:] = [centre]
        return grid_eigenvalue(diag, prod, centre, *rest)

    def recording_roots(sums):
        centres.append(level[0])
        return power_sum_roots(sums)

    monkeypatch.setattr(analysis, "_grid_eigenvalue", recording_level)
    monkeypatch.setattr(analysis, "_power_sum_roots", recording_roots)
    return centres


def test_fd_exhausted_newton_budget_falls_back(monkeypatch):
    model = make_morse(MorseParams.from_mu(0.7, 2))
    solutions, result = solve_model(model)
    grid = GridSpec(-12.0, 4.0, 300)
    newton = fd_verify(model, solutions, result.shift, grid).refined
    newton_root = analysis._newton_root
    predictions = [s.energy_base + result.shift for s in solutions]

    def exhausted(diag, prod, guess, *rest):
        # the level's own Newton, the one from its prediction, runs out of steps
        return None if guess in predictions else newton_root(diag, prod, guess, *rest)

    centres = _counted_centres(monkeypatch)
    monkeypatch.setattr(analysis, "_newton_root", exhausted)
    fallback = fd_verify(model, solutions, result.shift, grid).refined
    # the fallback counts the disc about the prediction itself
    assert centres == predictions
    for a, b in zip(newton, fallback):
        assert abs(a - b) <= 1e-9 * abs(a)


@pytest.mark.parametrize("two_j, mu", [(9, 0.7), (12, 1.4)])
def test_fd_fallback_finds_the_in_gate_level_newton_leaves(two_j, mu, monkeypatch):
    # on these coarse grids Newton leaves the disc of some levels whose
    # nearest grid eigenvalue lies inside it; the count finds that
    # eigenvalue, so the model passes the gate
    np = pytest.importorskip("numpy")
    model = make_morse(MorseParams.from_mu(mu, two_j))
    solutions, result = solve_model(model)
    grid = GridSpec(-12.0, 4.0, 64)
    centres = _counted_centres(monkeypatch)
    check = fd_verify(model, solutions, result.shift, grid)
    assert centres
    diag, off = full_grid_hamiltonian(model, result.shift, grid)
    reference = np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for s, value in zip(solutions, check.refined):
        nearest = reference[np.argmin(abs(reference - (s.energy_base + result.shift)))]
        assert abs(value - nearest) <= 1e-9
    assert check.defect <= check.defect_bound


def test_fd_each_prediction_starts_newton_once(monkeypatch):
    # on this coarse grid some levels leave their disc and are counted; the
    # count starts from the level's own Newton root instead of a second
    # Newton from the prediction
    model = make_morse(MorseParams.from_mu(0.7, 9))
    solutions, result = solve_model(model)
    predictions = [s.energy_base + result.shift for s in solutions]
    centres = _counted_centres(monkeypatch)
    newton_root, starts = analysis._newton_root, []

    def recording_root(diag, prod, guess, *rest):
        starts.append(guess)
        return newton_root(diag, prod, guess, *rest)

    monkeypatch.setattr(analysis, "_newton_root", recording_root)
    fd_verify(model, solutions, result.shift, GridSpec(-12.0, 4.0, 64))
    assert centres
    assert [z for z in starts if z in predictions] == predictions


def test_fd_keeps_an_in_disc_newton_root():
    # Newton from the prediction 10.510 leaves its disc (radius 4.596) and
    # comes back to the grid eigenvalue 14.350 inside it; that root is kept,
    # though 7.879 lies nearer the prediction in the same disc
    model = make_morse(MorseParams.from_mu(0.0, 11))
    solutions, result = solve_model(model)
    grid = GridSpec(*model.default_domain, 65)
    check = fd_verify(model, solutions, result.shift, grid)
    (guess, value), = [
        (s.energy_base + result.shift, r)
        for s, r in zip(solutions, check.refined)
        if abs(s.energy_base + result.shift - 10.510) < 1e-3
    ]
    assert abs(value - 14.350) < 1e-3 and abs(check.defect_bound - 4.596) < 1e-3
    diag, prod, kinetic = _morse_grid(model, result.shift, grid)
    assert value == analysis._newton_root(diag, prod, guess, kinetic)
    assert check.defect <= check.defect_bound


@pytest.mark.parametrize(
    "family, two_j, mu, n_points, passed",
    [
        ("morse", 10, 0.7, 64, True),  # inverse iteration did not settle here
        ("morse", 31, 0.7, 257, False),  # 31 of 32 discs hold no grid eigenvalue
        ("sextic", 7, 0.0, 64, True),  # a disc's eigenvalue at 0.988 of its radius
        ("sextic", 12, 0.7, 64, False),  # a disc's eigenvalue at 0.999 of its radius
        ("morse", 11, 0.0, 65, True),  # discs that hold 2 grid eigenvalues
    ],
)
def test_fd_disc_count_matches_numpy_on_coarse_grids(family, two_j, mu, n_points, passed):
    # each level's value is a grid eigenvalue in its disc when one lies
    # there, the nearest unless Newton from the prediction settled on another
    # in the disc (one level of the Morse 2j = 11 case), and None otherwise;
    # the sextic reference is the full grid restricted to the sector's parity
    np = pytest.importorskip("numpy")
    if family == "morse":
        model = make_morse(MorseParams.from_mu(mu, two_j))
    else:
        model = make_sextic(SexticParams.from_mu(mu, two_j, EVEN))
    solutions, result = solve_model(model)
    grid = GridSpec(*model.default_domain, n_points)
    check = fd_verify(model, solutions, result.shift, grid)
    assert (check.defect <= check.defect_bound) == passed
    if family == "morse":
        diag, off = full_grid_hamiltonian(model, result.shift, grid)
        reference = np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    else:
        reference = _sector_spectrum(np, model, grid, result.shift)
    moved = 0
    for s, value in zip(solutions, check.refined, strict=True):
        predicted = s.energy_base + result.shift
        nearest = reference[np.argmin(abs(reference - predicted))]
        if abs(nearest - predicted) > check.defect_bound:
            assert value is None
        elif abs(value - nearest) > 1e-9 * max(1.0, abs(nearest)):
            assert abs(value - predicted) <= check.defect_bound
            assert min(abs(reference - value)) <= 1e-9 * max(1.0, abs(value))
            moved += 1
    assert moved == ((family, two_j) == ("morse", 11))


def test_fd_newton_rejects_a_non_finite_step():
    # p(z) = (1 - z)(-1 - z) has p'(0) = 0: the step 1 / (p'/p) is infinite; a
    # diagonal H has no off-diagonal entries, so its kinetic row sum 4 max|off| is 0
    diag, prod = [1.0 + 0j, -1.0 + 0j], [0.0, 0.0]
    assert analysis._newton_root(diag, prod, 0j, 0.0) is None
    root = analysis._newton_root(diag, prod, 0.5 + 0j, 0.0)
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
    """(level Newton passes, levels, [(diag, prod, kinetic, root)]) over the default grids.

    Only each level's own Newton, the one from its prediction, is recorded,
    not the ones of a disc count; kinetic is 4 / h^2 of each model's default
    grid, read from the grid itself, and root is the level's Newton root,
    None where Newton did not settle.
    """
    passes, roots = [], []
    log_derivative, newton_root = analysis.tridiag_log_derivative, analysis._newton_root
    levels = 0

    def counting_log_derivative(*args):
        passes.append(len(args[0]))
        return log_derivative(*args)

    with pytest.MonkeyPatch.context() as patch:
        for model in _default_grid_models():
            grid = GridSpec(*model.default_domain, analysis.FD_GRID_N)
            kinetic = 4.0 * ((grid.n_points + 1) / (grid.x_max - grid.x_min)) ** 2

            solutions, result = solve_model(model)
            predictions = {s.energy_base + result.shift for s in solutions}

            def recording_root(diag, prod, guess, *rest):
                if guess not in predictions:
                    return newton_root(diag, prod, guess, *rest)
                patch.setattr(analysis, "tridiag_log_derivative", counting_log_derivative)
                root = newton_root(diag, prod, guess, *rest)
                patch.setattr(analysis, "tridiag_log_derivative", log_derivative)
                roots.append((diag, prod, kinetic, root))
                return root

            patch.setattr(analysis, "_newton_root", recording_root)
            fd_verify(model, solutions, result.shift)
            levels += len(solutions)
    return passes, levels, roots


def test_fd_newton_passes_on_default_grids(default_grid_newton):
    # every level stopped on a step below FD_RQ_TOL took 538 passes here;
    # stopping once the next step is below the rounding floor takes 378
    passes, levels, roots = default_grid_newton
    assert levels == len(roots) == 189
    assert len(passes) <= 400


def test_fd_newton_roots_are_fixed_points(default_grid_newton):
    # one more Newton step from any returned root stays within twice its
    # rounding floor eps * (4 / h^2 + |z|): the pass that was saved would
    # only have confirmed the root
    _, _, roots = default_grid_newton
    kept = [entry for entry in roots if entry[3] is not None]
    assert len(kept) == 189  # 12 of them lie outside their disc, which is then counted
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
    assert analysis._newton_root(diag, prod, guess, kinetic) is None


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


def _free_particle_eigenvalue(n_points, k):
    """The k-th eigenvalue of _free_particle_level's grid: (4 / h^2) sin^2(k h / 2)."""
    h = math.pi / (n_points + 1)
    return 4.0 / (h * h) * math.sin(k * h / 2.0) ** 2


def _shifted_free_particle(n_points=8, shift=0.3j):
    """(diag, prod, eigenvalues) of tridiag(-1, 2 + shift, -1), whose k-th
    eigenvalue is 2 + shift - 2 cos(k pi / (n_points + 1))."""
    values = [2.0 + shift - 2.0 * math.cos(k * math.pi / (n_points + 1)) for k in range(1, n_points + 1)]
    return [2.0 + shift] * n_points, [0.0] + [1.0] * (n_points - 1), values


@pytest.mark.parametrize("centre_newton", [True, False], ids=["newton", "count-only"])
@pytest.mark.parametrize(
    "where, radius, held",
    [
        (lambda v: 5.0 + 0.3j, 0.5, []),
        (lambda v: v[3] + 0.05, 0.1, [3]),
        # a pair symmetric about the centre, where their centroid is no eigenvalue
        (lambda v: 2.0 + 0.3j, 0.5, [3, 4]),
        (lambda v: v[3], 0.8, [2, 3, 4]),
        (lambda v: v[3] - 0.999 * 0.1, 0.1, [3]),
        (lambda v: v[3] - 1.001 * 0.1, 0.1, []),
    ],
    ids=["none", "one", "pair", "three", "at-0.999", "at-1.001"],
)
def test_disc_count_finds_the_eigenvalues_it_holds(where, radius, held, centre_newton, monkeypatch):
    # the rule returns the held eigenvalue nearest the centre, or None; without
    # the Newton root from the centre the count alone must name every
    # eigenvalue the disc holds, and one at 0.999 or 1.001 of the radius must
    # be deflated at the node cap before the count settles
    diag, prod, values = _shifted_free_particle()
    centre = where(values)
    newton_root = analysis._newton_root
    roots = []

    def recording_newton(diag, prod, guess, *rest):
        skip = guess == centre and not centre_newton
        roots.append(None if skip else newton_root(diag, prod, guess, *rest))
        return roots[-1]

    monkeypatch.setattr(analysis, "_newton_root", recording_newton)
    value = analysis._grid_eigenvalue(diag, prod, centre, radius, 4.0)
    named = [z for z in roots if z is not None and abs(z - centre) <= radius]
    assert all(min(abs(z - values[k]) for k in held) <= 1e-12 for z in named)
    if not centre_newton:
        assert len(named) == len(held)
    if not held:
        assert value is None
        return
    gap = min(abs(values[k] - centre) for k in held)
    assert min(abs(value - values[k]) for k in held) <= 1e-12
    assert abs(abs(value - centre) - gap) <= 1e-12


def test_disc_count_names_nothing_false_at_a_jordan_block():
    # H = [[1, i], [i, -1]] is complex symmetric and nilpotent, p(z) = z^2
    # (inverse iteration met u^T u = 0 on it).  Newton converges only
    # linearly to the double root, so the disc about 0 may leave it unnamed,
    # and the level then fails the gate; no other value is ever named, and a
    # disc that misses 0 holds nothing
    diag, prod = [1.0 + 0j, -1.0 + 0j], [0.0, -1.0]
    value = analysis._grid_eigenvalue(diag, prod, 0.5 + 0j, 1.0, 4.0)
    assert value is None or abs(value) <= 1e-8
    assert analysis._grid_eigenvalue(diag, prod, 3.0 + 0j, 1.0, 4.0) is None


def test_fd_count_node_cap_raises_with_a_finite_defect(monkeypatch):
    # the level's eigenvalue lies at 0.999 of its disc's radius, where the
    # rule needs thousands of nodes undeflated; with one Newton step no pole
    # is ever found, so the count stops at the 8-node cap
    monkeypatch.setattr(analysis, "FD_NEWTON_STEPS", 1)
    monkeypatch.setattr(analysis, "FD_CONTOUR_NODES", 8)
    radius = abs(_free_particle_eigenvalue(200, 1) - 1.0) / 0.999
    with pytest.raises(ConvergenceFailureError) as info:
        _free_particle_level(200, 1.0 + 0j, radius)
    assert "count did not settle within 8 nodes" in str(info.value)
    # the defect is the change between the 4- and 8-node rules
    assert math.isfinite(info.value.defect) and info.value.defect > analysis.FD_COUNT_TOL


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


@pytest.mark.parametrize(
    "x_min, x_max",
    [
        (0.0, 1e-300),  # h^2 underflows to 0
        (0.0, 1e-80),  # 1/h^4 overflows
        (-1e150, 1e150),  # 1/h^4 underflows to 0
        (1e300, 1.0000000001e300),  # h^2 overflows, so 1/h^2 is 0
    ],
)
def test_grid_step_must_be_differenced(x_min, x_max):
    with pytest.raises(ValidationError) as excinfo:
        GridSpec(x_min, x_max, 2000)
    assert str(excinfo.value).startswith(f"grid step h = {(x_max - x_min) / 2001!r} cannot be")


def test_grid_step_at_the_differencing_edge_is_kept():
    assert GridSpec(0.0, 1e-70, 2000).step == 1e-70 / 2001  # 1/h^4 = 1.6e292


def test_newton_stop_test_cannot_overflow():
    # Newton on z^2 - 1 from 1e120 halves its step each pass; cubing a step
    # above 5.6e102 raised OverflowError, and 6 passes leave it unsettled
    assert analysis._newton_root([0j, 0j], [0.0, 1.0], 1e120 + 0j, 4.0) is None


def test_default_grids():
    # fd_verify's default grid: the model's default_domain at FD_GRID_N points
    def default_check(model):
        solutions, result = solve_model(model)
        return fd_verify(model, solutions, result.shift)

    sextic = default_check(make_sextic(SexticParams.from_mu(1.0, 0)))
    morse = default_check(make_morse(MorseParams.from_mu(1.0, 0)))
    assert (sextic.x_min, sextic.x_max, sextic.grid_n) == (-6.0, 6.0, 2000)
    assert (morse.x_min, morse.x_max, morse.grid_n) == (-12.0, 4.0, 2000)
    # a complex a or d of the same modulus leaves the Morse grid where it is
    tilted = default_check(make_morse(MorseParams.from_mu(1.0, 0, a=1j, d=0.6 + 0.8j)))
    assert (tilted.x_min, tilted.x_max) == (-12.0, 4.0)
    # V_{a,d}(x) = V_{1,1}(x - x0) for a d = 1, with x0 = ln(a / d) / 2 = ln 100
    moved = default_check(make_morse(MorseParams.from_mu(1.0, 0, a=100.0, d=0.01)))
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


def test_norm_raises_when_the_rounding_bound_overflows(monkeypatch):
    # a bound of 1e308 per node: its fsum overflows, the bound is inf, so no sum can be trusted
    model = make_sextic(SexticParams.from_mu(0.7, 0))
    solutions, _ = solve_model(model)
    psi_abs2 = analysis.psi_abs2
    monkeypatch.setattr(analysis, "psi_abs2", lambda m, phi, x: (psi_abs2(m, phi, x)[0], 1e308))
    with pytest.raises(ConvergenceFailureError, match="quadrature refinement did not converge") as info:
        norm_squared(model, solutions[0])
    assert info.value.defect == math.inf
