import pytest

from qesolve.errors import ValidationError
from qesolve.sl2 import BlockMatrix, OperatorCombination, SpinJ, build_block

from _helpers import (
    apply_combination,
    apply_generator,
    commutator_defect,
    fresh_rng,
    max_matrix_mismatch,
    unit_complex,
)
from _oracles import Poly, degree, is_zero, monomial


def test_raising_annihilates_top_state_exactly():
    for two_j in range(21):
        rep = SpinJ(two_j)
        image = apply_generator("plus", monomial(two_j), rep)
        assert is_zero(image)


def test_spin_beyond_exact_halves_is_rejected():
    # two_j / 2 is exact for every integer up to 2**53, the largest run of
    # consecutive integers a double holds
    assert SpinJ(2**53).j == 2**52
    for two_j in (2**53 + 1, 10**400):
        with pytest.raises(ValidationError, match="two_j must be at most 2\\*\\*53"):
            SpinJ(two_j)


def test_lowering_kills_constants():
    assert is_zero(apply_generator("minus", Poly([1.0]), SpinJ(4)))


def test_weight_action_is_diagonal():
    rep = SpinJ(3)  # j = 3/2
    for k in range(rep.dim):
        image = apply_generator("zero", monomial(k), rep)
        expected = k - rep.j
        if expected == 0:
            assert is_zero(image)
        else:
            assert image == monomial(k, expected)


def test_commutator_defect_spin_zero():
    assert commutator_defect(SpinJ(0)) == 0.0


def test_commutator_defect_spin_half():
    assert commutator_defect(SpinJ(1)) <= 1e-15


def test_commutator_defect_spin_five():
    assert commutator_defect(SpinJ(10)) <= 1e-13


def test_commutator_defect_through_two_j_twenty():
    assert max(commutator_defect(SpinJ(n)) for n in range(21)) <= 1e-13


def test_block_sextic_spin_half_example():
    # a = i: weight/lowering mix with coefficients from the sextic matching
    a = 1j
    combo = OperatorCombination(c_0m=-4.0, c_p=4.0, c_m=-4.0, c_0=4.0 * a, c_id=3.0 * a)
    block = build_block(combo, SpinJ(1))
    expected = ((1j, -2.0 + 0j), (-4.0 + 0j, 5j))
    assert max_matrix_mismatch(block.entries, expected) <= 1e-14


def test_block_morse_spin_zero_example():
    a = d = 1.0
    b = (1j - 3.0) / 2.0
    combo = OperatorCombination(
        c_pm=-1.0, c_p=2.0 * a, c_m=-2.0 * d, c_0=-(2.0 * b + 1.0), c_id=2.0 * a * d - b * b
    )
    block = build_block(combo, SpinJ(0))
    assert abs(block.entries[0][0] - (2.0 * a * d - b * b)) <= 1e-14


def test_block_raising_only():
    block = build_block(OperatorCombination(c_p=1.0), SpinJ(1))
    assert block.entries == ((0.0j, 0.0j), ((-1.0 + 0.0j), 0.0j))


def test_block_linearity():
    rng = fresh_rng()
    rep = SpinJ(4)
    for _ in range(10):
        c1 = OperatorCombination(*(unit_complex(rng) for _ in range(6)))
        c2 = OperatorCombination(*(unit_complex(rng) for _ in range(6)))
        alpha, beta = unit_complex(rng), unit_complex(rng)
        mixed = OperatorCombination(
            *(
                alpha * getattr(c1, name) + beta * getattr(c2, name)
                for name in ("c_pm", "c_0m", "c_p", "c_m", "c_0", "c_id")
            )
        )
        lhs = build_block(mixed, rep).entries
        b1 = build_block(c1, rep).entries
        b2 = build_block(c2, rep).entries
        scale = max(
            [1.0] + [abs(c) for row in lhs for c in row]
        )
        for i in range(rep.dim):
            for k in range(rep.dim):
                assert abs(lhs[i][k] - (alpha * b1[i][k] + beta * b2[i][k])) <= 1e-13 * scale


def test_combination_preserves_block_for_every_term():
    # each of the six terms maps the degree <= 2j space to itself
    rep = SpinJ(6)
    for name in ("c_pm", "c_0m", "c_p", "c_m", "c_0", "c_id"):
        combo = OperatorCombination(**{name: 1.0})
        for k in range(rep.dim):
            image = apply_combination(combo, monomial(k), rep)
            assert degree(image) is None or degree(image) <= rep.two_j


def test_block_matches_polynomial_oracle_exactly():
    # column k of the block is the oracle's image of z^k, which never leaves the block
    rng = fresh_rng()
    for two_j in range(32):
        rep = SpinJ(two_j)
        for _ in range(3):
            combo = OperatorCombination(*(unit_complex(rng) for _ in range(6)))
            entries = build_block(combo, rep).entries
            for k in range(rep.dim):
                image = apply_combination(combo, monomial(k), rep)
                assert degree(image) is None or degree(image) <= two_j
                padded = image.coeffs + (0.0j,) * (rep.dim - len(image.coeffs))
                assert tuple(row[k] for row in entries) == padded


def test_spin_validation():
    with pytest.raises(ValidationError):
        SpinJ(-1)
    with pytest.raises(ValidationError):
        SpinJ(1.5)  # type: ignore[arg-type]


def test_block_matrix_must_be_square():
    # a square tridiagonal block has n - 1 entries on each off-diagonal
    with pytest.raises(ValidationError):
        BlockMatrix((), (1.0,), (2.0,))
    with pytest.raises(ValidationError):
        BlockMatrix((3.0,), (1.0, 2.0), ())
    with pytest.raises(ValidationError):
        BlockMatrix((), (), ())


def test_block_matrix_rejects_non_finite_entries():
    for bad in (float("nan"), complex(0.0, float("inf"))):
        with pytest.raises(ValidationError, match="non-finite"):
            BlockMatrix((bad,), (1.0, 2.0), (3.0,))
        with pytest.raises(ValidationError, match="non-finite"):
            BlockMatrix((), (bad,), ())


def test_unknown_generator_rejected():
    with pytest.raises(ValidationError):
        apply_generator("raise", Poly([1.0]), SpinJ(0))
