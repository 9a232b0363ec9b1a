import cmath
import math

import pytest

from qesolve.errors import NumericOverflowError, ValidationError
from qesolve.families import (
    EVEN,
    ODD,
    MorseParams,
    SexticParams,
    closed_form_block_action,
    make_morse,
    make_sextic,
    potential_eval,
)
from qesolve.sl2 import build_block

from _helpers import (
    fresh_rng,
    max_matrix_mismatch,
    random_morse_model,
    random_sextic_model,
    rel_err,
    tridiagonal_from_action,
)
from _oracles import Poly


def test_sextic_mu1_potential_coefficients():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    c6, c4, c2 = model.potential_coeffs
    assert c6 == 1.0
    assert c4 == 2.0j
    assert c2 == -8.0  # -(mu^2 + 7) at mu = 1


def test_sextic_real_self_checking_case():
    model = make_sextic(SexticParams(a=0.0, two_j=0))
    assert model.potential_coeffs == (1.0 + 0j, 0.0j, -3.0 + 0j)


def test_sextic_block_example():
    model = make_sextic(SexticParams(a=1j, two_j=1))
    block = build_block(model.combo, model.rep)
    expected = ((1j, -2.0 + 0j), (-4.0 + 0j, 5j))
    assert max_matrix_mismatch(block.entries, expected) <= 1e-14


def test_morse_mu1_exponential_coefficients():
    model = make_morse(MorseParams.from_mu(1.0, 0))
    c2p, c1p, c1m, c2m = model.potential_coeffs
    assert abs(c1m - (2.0 - 1j)) <= 1e-15  # -a(2b+1)
    assert abs(c1p - (-(4.0 - 1j))) <= 1e-15  # -d(1-2b), read as -d(4 - i*mu)
    assert c2p == 1.0 and c2m == 1.0


def test_morse_plain_parameters():
    model = make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0))
    assert model.potential_coeffs == (1.0 + 0j, -1.0 + 0j, -1.0 + 0j, 1.0 + 0j)
    assert model.combo.c_id == 2.0  # 2ad - b^2 at j = 0


def test_morse_block_example():
    model = make_morse(MorseParams.from_mu(1.0, 1))
    block = build_block(model.combo, model.rep)
    expected = ((1.5j, -2.0 + 0j), (-2.0 + 0j, 2.0 + 0.5j))
    assert max_matrix_mismatch(block.entries, expected) <= 1e-14


def test_potential_eval_sextic_example():
    model = make_sextic(SexticParams.from_mu(1.0, 1))
    assert abs(potential_eval(model, 1.0) - (-7.0 + 2.0j)) <= 1e-14


def test_potential_eval_origin_is_shift():
    model = make_sextic(SexticParams.from_mu(0.7, 2, ODD))
    s = 0.25 - 3.5j
    assert potential_eval(model, 0.0, s) == s


def test_potential_eval_morse_origin():
    model = make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0))
    assert potential_eval(model, 0.0) == 0.0  # 1 - 1 - 1 + 1


def test_closed_form_action_examples():
    even = make_sextic(SexticParams(a=1j, two_j=1))
    lower, diag, upper = closed_form_block_action(even, 1)
    assert (lower, diag, upper) == (-2.0 + 0j, 5j, 0.0j)
    assert closed_form_block_action(even, 1)[2] == 0.0  # quasi-invariance at the top

    morse = make_morse(MorseParams.from_mu(1.0, 1))
    lower, diag, upper = closed_form_block_action(morse, 0)
    assert lower == 0.0
    assert abs(diag - 1.5j) <= 1e-15
    assert upper == -2.0


def test_closed_form_action_index_validation():
    model = make_sextic(SexticParams(a=0.5j, two_j=2))
    with pytest.raises(ValidationError):
        closed_form_block_action(model, 3)
    with pytest.raises(ValidationError):
        closed_form_block_action(model, -1)


def test_generic_block_matches_closed_form_everywhere():
    rng = fresh_rng()
    for two_j in range(13):
        for make in (
            lambda: random_sextic_model(rng, two_j),
            lambda: random_sextic_model(rng, two_j, ODD),
            lambda: random_morse_model(rng, two_j),
        ):
            model = make()
            generic = build_block(model.combo, model.rep).entries
            oracle = tridiagonal_from_action(model)
            assert max_matrix_mismatch(generic, oracle) <= 1e-12


def test_decay_factor_matches_superpotential():
    # exp(-G) with G' = W: the logarithmic derivative of the decay factor is -W
    rng = fresh_rng()
    h = 1e-5
    cases = []
    even = make_sextic(SexticParams(a=0.3 - 0.8j, two_j=1))
    odd = make_sextic(SexticParams(a=0.3 - 0.8j, two_j=1, sector=ODD))
    morse = make_morse(MorseParams(a=0.9 + 0.2j, d=1.1 - 0.4j, b=0.5j, two_j=1))
    cases.append((even, [rng.uniform(-2.0, 2.0) for _ in range(20)]))
    cases.append((odd, [rng.uniform(0.2, 2.0) for _ in range(20)]))
    cases.append((morse, [rng.uniform(-2.0, 2.0) for _ in range(20)]))
    for model, xs in cases:
        for x in xs:
            ratio = model.decay_factor(x + h) / model.decay_factor(x - h)
            fd = -cmath.log(ratio) / (2.0 * h)
            assert rel_err(fd, model.superpotential(x)[0]) <= 1e-7


def test_gauge_derivative_closed_form():
    model = make_morse(MorseParams(a=0.9 + 0.2j, d=1.1 - 0.4j, b=0.5j, two_j=1))
    h = 1e-5
    for x in (-1.0, 0.0, 1.5):
        fd = (model.superpotential(x + h)[0] - model.superpotential(x - h)[0]) / (2.0 * h)
        assert rel_err(fd, model.superpotential(x)[1]) <= 1e-7


def test_sextic_constraint_identity():
    for two_j in range(6):
        for sector in (EVEN, ODD):
            model = make_sextic(SexticParams(a=0.3 + 0.4j, two_j=two_j, sector=sector))
            p0 = model.ode[2]
            z_coeff = p0[1] if len(p0) > 1 else 0.0j
            assert z_coeff == -4.0 * two_j  # -8j exactly, by construction


def test_shift_enters_linearly():
    model = make_morse(MorseParams.from_mu(0.8, 1))
    s = 1.75 - 2.5j
    for x in (-1.0, 0.0, 0.5, 2.0):
        base = potential_eval(model, x)
        shifted = potential_eval(model, x, s)
        assert abs((shifted - base) - s) <= 1e-13 * max(1.0, abs(base))


def test_parameter_validation():
    with pytest.raises(ValidationError):
        MorseParams(a=0.0, d=1.0, b=0.0, two_j=0)
    with pytest.raises(ValidationError):
        MorseParams(a=1.0, d=0.0, b=0.0, two_j=0)
    with pytest.raises(ValidationError):
        SexticParams(a=1.0, two_j=-1)
    with pytest.raises(ValidationError):
        SexticParams(a=1.0, two_j=1, sector="both")
    with pytest.raises(ValidationError):
        SexticParams(a=complex("inf"), two_j=1)


def test_morse_potential_overflow():
    model = make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0))
    with pytest.raises(NumericOverflowError):
        potential_eval(model, 400.0)


def test_morse_potential_is_refused_exactly_where_it_is_not_finite():
    # e^{2|x|} passes the largest double at |x| = 354.89, e^|x| at 709.78;
    # below that V is a finite double and is returned
    model = make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0))
    for x in (354.7, -354.7):
        assert cmath.isfinite(potential_eval(model, x))
    for x in (400.0, -400.0, 800.0, -800.0):
        with pytest.raises(NumericOverflowError, match=f"{x!r}"):
            potential_eval(model, x)


def test_morse_ode_overflow_raises_when_the_model_is_made():
    # 2ad = 2e400 in p0 is beyond the largest double: refused as an overflow
    # before any block is built, as the CLI's exit 2
    with pytest.raises(NumericOverflowError, match=r"^non-finite polynomial coefficient \(inf"):
        make_morse(MorseParams(a=1e200, d=1e200, b=0.0, two_j=1))


def test_sextic_potential_overflow_names_x():
    # the grid diagonal samples the potential first, so an overflow there
    # fails as overflow and not as a NaN further on
    model = make_sextic(SexticParams.from_mu(0.5, 1))
    with pytest.raises(NumericOverflowError, match=r"Sextic potential overflowed at x=1e\+60"):
        potential_eval(model, 1e60)
    huge_a = make_sextic(SexticParams(a=1e200, two_j=1))  # its x^2 coefficient a^2 is inf
    with pytest.raises(NumericOverflowError, match="at x=0.5"):
        potential_eval(huge_a, 0.5)


def test_morse_gauge_underflow_raises():
    # e^x underflows to exact 0 below x = -745.1, and the Morse W, W' and
    # decay factor divide by it
    model = make_morse(MorseParams.from_mu(1.0, 1))
    for evaluate in (model.superpotential, model.decay_factor):
        with pytest.raises(NumericOverflowError, match="underflow"):
            evaluate(-800.0)


@pytest.mark.parametrize("a", [0.7j, 0.3 + 0.4j])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_sector_coefficients(a, n):
    # the odd sector is the even one times the gauge factor x: each number
    # moves by the same offset, t = 1 even and t = 3 odd (n = 2j)
    even = make_sextic(SexticParams(a=a, two_j=n, sector=EVEN))
    odd = make_sextic(SexticParams(a=a, two_j=n, sector=ODD))
    for model, c_m, c_id, p1, p0, x2 in (
        (even, -(2 + 2 * n), a * (2 * n + 1), (-2.0, 4 * a, 4.0), (a, -4.0 * n), a * a - (4 * n + 3)),
        (odd, -(6 + 2 * n), a * (2 * n + 3), (-6.0, 4 * a, 4.0), (3 * a, -4.0 * n), a * a - (4 * n + 5)),
    ):
        assert (model.combo.c_m, model.combo.c_id) == (c_m, c_id)
        assert (model.combo.c_0m, model.combo.c_p, model.combo.c_0) == (-4.0, 4.0, 4 * a)
        assert model.ode == tuple(Poly(p).coeffs for p in ((0.0, -4.0), p1, p0))
        assert model.potential_coeffs == (1.0, 2 * a, x2)


def test_odd_sector_decay_factor_is_odd():
    model = make_sextic(SexticParams.from_mu(0.5, 1, ODD))
    for x in (0.3, 1.0, 1.7):
        assert abs(model.decay_factor(-x) + model.decay_factor(x)) <= 1e-15
    assert model.decay_factor(0.0) == 0.0


def test_change_of_variable():
    sextic = make_sextic(SexticParams(a=0.0, two_j=0))
    morse = make_morse(MorseParams(a=1.0, d=1.0, b=0.0, two_j=0))
    assert sextic.z_of_x(-3.0) == 9.0
    assert abs(morse.z_of_x(1.0) - math.exp(-1.0)) <= 1e-16


def test_models_carry_their_family_geometry():
    even = make_sextic(SexticParams.from_mu(0.7, 3))
    odd = make_sextic(SexticParams.from_mu(0.7, 3, ODD))
    for model, parity in ((even, 1), (odd, -1)):
        assert (model.centre, model.default_domain, model.parity, model.normalizable) == (
            0.0, (-6.0, 6.0), parity, True
        )
    # V_{a,d}(x) = V_{1,1}(x - x0) for a d = 1, x0 = ln(a / d) / 2 = ln 100
    morse = make_morse(MorseParams.from_mu(0.7, 3, a=100.0, d=0.01))
    assert abs(morse.centre - math.log(100.0)) <= 1e-15 * math.log(100.0)
    assert morse.default_domain == (-12.0 + morse.centre, 4.0 + morse.centre)
    assert (morse.parity, morse.normalizable) == (0, True)
    for a, d in ((-1.0, 1.0), (1.0, -1.0), (1j, 1.0), (1.0, 0.5j)):
        assert not make_morse(MorseParams.from_mu(0.7, 3, a=a, d=d)).normalizable


def test_decay_factor_overflow_and_far_tail():
    # Re a < 0: the Morse gauge exp(-a e^-x) grows past the largest double at x = -7
    morse = make_morse(MorseParams.from_mu(0.5, 1, a=-1.0))
    with pytest.raises(NumericOverflowError, match="exponential overflow"):
        morse.decay_factor(-7.0)
    # x^4 overflows at x = 1e80, where the sextic factor has long underflowed to 0
    assert make_sextic(SexticParams.from_mu(0.7, 0)).decay_factor(1e80) == 0j
