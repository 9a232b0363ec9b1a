import cmath
import dataclasses
import itertools
import math
import sys
import time

import pytest

from qesolve import cli, spectrum
from qesolve.analysis import poly_eval_bounded
from qesolve.errors import ConvergenceFailureError, NumericOverflowError, ValidationError
from qesolve.families import ODD, MorseParams, SexticParams, make_morse, make_sextic
from qesolve.sl2 import BlockMatrix, CPolynomial, build_block
from qesolve.spectrum import common_imaginary_shift, eigen_solve, solve_model
from qesolve.tridiag import tridiag_norm, tridiag_null_vectors

from _helpers import fresh_rng, rel_err, unit_complex
from _oracles import char_poly, high_precision_spectrum, poly_roots

FIXTURE_BLOCK = BlockMatrix(sub=(-4.0,), diag=(1j, 5j), sup=(-2.0,))


def test_char_poly_2x2_fixture():
    # trace 6i and determinant 5i^2 - 8 = -13, by hand
    cp = char_poly(FIXTURE_BLOCK.entries)
    expected = (-13.0 + 0j, -6j, 1.0 + 0j)
    assert all(abs(a - b) <= 1e-14 for a, b in zip(cp.coeffs, expected))
    assert cp.coeffs[-1] == 1.0


def test_char_poly_1x1():
    c = 0.3 - 2.2j
    cp = char_poly(((c,),))
    assert cp.coeffs == (-c, 1.0 + 0j)


def test_char_poly_identity_3x3():
    eye = tuple(tuple(1.0 if i == k else 0.0 for k in range(3)) for i in range(3))
    cp = char_poly(eye)
    expected = (-1.0, 3.0, -3.0, 1.0)  # (lambda - 1)^3
    assert all(abs(a - b) <= 1e-14 for a, b in zip(cp.coeffs, expected))


def test_block_cap_checked_before_build(capsys):
    with pytest.raises(ValidationError):
        solve_model(make_sextic(SexticParams.from_mu(1.0, 32)))
    start = time.perf_counter()
    code = cli.main(["solve", "--family", "sextic", "--two-j", "2000", "--mu", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "exceeds the cap" in capsys.readouterr().err


def test_roots_of_fixture_quadratic():
    # quadratic formula: (6i +/- sqrt((6i)^2 + 52)) / 2 = 3i +/- 2
    roots = poly_roots(CPolynomial([-13.0, -6j, 1.0]))
    expected = sorted([3j - 2.0, 3j + 2.0], key=lambda z: (z.real, z.imag))
    assert all(abs(r - e) <= 1e-12 for r, e in zip(roots, expected))


def test_roots_of_unit_quadratic():
    roots = poly_roots(CPolynomial([-1.0, 0.0, 1.0]))
    assert abs(roots[0] + 1.0) <= 1e-13 and abs(roots[1] - 1.0) <= 1e-13


def test_roots_triple_zero_cluster():
    roots = poly_roots(CPolynomial([0.0, 0.0, 0.0, 1.0]), tol=1e-13)
    assert max(abs(r) for r in roots) <= 1e-13 ** (1.0 / 3.0)


def test_roots_need_degree_one():
    with pytest.raises(ValidationError):
        poly_roots(CPolynomial([2.0]))
    with pytest.raises(ValidationError):
        poly_roots(CPolynomial())


def test_roots_convergence_failure_carries_best():
    with pytest.raises(ConvergenceFailureError) as info:
        poly_roots(CPolynomial([-1.0, 0.0, 1.0]), max_iter=1)
    assert info.value.best is not None and len(info.value.best) == 2
    assert info.value.defect is not None and info.value.defect > 0


def test_eigen_solve_fixture_vectors():
    # null space by hand: v1 = (sqrt(2-mu^2) -/+ i*mu) at mu=1 -> 1 -/+ i with signs per level
    pairs = eigen_solve(FIXTURE_BLOCK)
    assert abs(pairs[0].energy_base - (-2.0 + 3j)) <= 1e-12
    assert abs(pairs[1].energy_base - (2.0 + 3j)) <= 1e-12
    low = pairs[0].phi_coeffs.coeffs
    high = pairs[1].phi_coeffs.coeffs
    assert abs(low[0] - 1.0) == 0.0
    assert abs(low[1] - (1.0 - 1j)) <= 1e-12
    assert abs(high[1] - (-1.0 - 1j)) <= 1e-12
    assert all(p.eigvec_residual <= 1e-10 for p in pairs)


def test_eigen_solve_morse_1x1():
    model = make_morse(MorseParams.from_mu(1.0, 0))
    pairs = eigen_solve(build_block(model.combo, model.rep))
    assert abs(pairs[0].energy_base - 1.5j) <= 1e-14
    assert pairs[0].phi_coeffs.coeffs == (1.0 + 0j,)


def test_eigen_solve_diagonal():
    pairs = eigen_solve(BlockMatrix(sub=(0.0,), diag=(2.0, 5.0), sup=(0.0,)))
    assert abs(pairs[0].energy_base - 2.0) <= 1e-13
    assert abs(pairs[1].energy_base - 5.0) <= 1e-13
    assert pairs[0].phi_coeffs.coeffs == (1.0 + 0j,)
    assert pairs[1].phi_coeffs.coeffs == (0.0j, 1.0 + 0j)
    # degenerate blocks: zero couplings split the block, multiple eigenvalues
    # come back as one centroid with its multiplicity
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    ramp = BlockMatrix((0.0,) * 9, tuple(k % 3 * 1.0 for k in range(10)), (0.0,) * 9)
    pairs_of_three = BlockMatrix((1.0, 0.0, 1.0, 0.0, 1.0), (1.0, 2.0) * 3, (1.0, 0.0, 1.0, 0.0, 1.0))
    cases = [
        (BlockMatrix((0.0, 0.0), (2.0, 2.0, 2.0), (0.0, 0.0)), [(2.0, 3)]),
        (BlockMatrix((0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0)), [(0.0, 3)]),
        (BlockMatrix((0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0)), [(1.0, 3)]),
        (BlockMatrix((1.0, 0.0, 1.0), (1.0, 2.0, 1.0, 2.0), (1.0, 0.0, 1.0)), [(golden, 2), (3.0 - golden, 2)]),
        (BlockMatrix((1e-300,), (1.0, 1.0), (1e-300,)), [(1.0, 2)]),
        # repeated eigenvalues of 1 x 1 and 2 x 2 pieces
        (ramp, [(0.0, 4), (1.0, 3), (2.0, 3)]),
        (pairs_of_three, [(golden, 3), (3.0 - golden, 3)]),
        # Jordan blocks: a nilpotent 3 x 3 and the 4 x 4 lower shift
        (BlockMatrix((1.0, -1.0), (0.0, 0.0, 0.0), (1.0, 1.0)), [(0.0, 3)]),
        (BlockMatrix((1.0, 1.0, 1.0), (0.0,) * 4, (0.0, 0.0, 0.0)), [(0.0, 4)]),
    ]
    for block, expected in cases:
        pairs = eigen_solve(block)
        levels = [(value, mult) for value, mult in expected for _ in range(mult)]
        assert len(pairs) == len(levels)
        for p, (value, mult) in zip(pairs, levels):
            assert abs(p.energy_base - value) <= 1e-13, (block, p.energy_base)
            assert p.multiplicity == mult
            assert p.eigvec_residual <= 1e-12


def test_eigen_solve_weakly_coupled_pair():
    # |p'| dominates the rounding scale of p here: the stopping test must
    # allow for the rounding of z itself or the iteration never stops
    block = BlockMatrix(
        sub=(0.0012261417085039075 - 0.0012832429032156173j,),
        diag=(0.045081460236451196 + 0.20454739820122475j, 0.6831563219854627 - 0.7060089764288094j),
        sup=(0.28085979939079425 - 0.06939202527120886j,),
    )
    (a, d), bc = block.diag, block.sub[0] * block.sup[0]
    half = cmath.sqrt(((a - d) / 2) ** 2 + bc)
    expected = sorted([(a + d) / 2 - half, (a + d) / 2 + half], key=lambda z: (z.real, z.imag))
    pairs = eigen_solve(block)
    assert all(abs(p.energy_base - e) <= 1e-15 for p, e in zip(pairs, expected))
    assert max(p.eigvec_residual for p in pairs) <= 1e-12


def test_eigen_solve_is_exact_under_power_of_two_scaling():
    # at 2^-660 the coupling products underflow and at 2^660 they overflow
    # unless the block is scaled first; scaling by a power of two is exact
    sub, diag, sup = (1.0, 3.0), (1.0, -2.0, 0.5j), (2.0, 1.0 - 1.0j)
    values = [p.energy_base for p in eigen_solve(BlockMatrix(sub, diag, sup))]
    for k in (-660, 660):
        scaled = [tuple(math.ldexp(1.0, k) * c for c in part) for part in (sub, diag, sup)]
        pairs = eigen_solve(BlockMatrix(*scaled))
        assert [p.energy_base for p in pairs] == [math.ldexp(1.0, k) * v for v in values]
        assert max(p.eigvec_residual for p in pairs) <= 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3, 5, 8])
def test_graded_morse_translates_keep_their_levels(two_j):
    # a = 10^p, d = 10^-p makes the block diagonally similar to the a = d = 1
    # one: the same levels in the same order, though ||M|| ~ 10^p dwarfs the
    # couplings' balanced size; scaled by ||M||, the 1e-300 side underflowed
    # to 0 and the block's diagonal came back as its levels, with exit 0
    reference = [s.energy_base for s in solve_model(make_morse(MorseParams.from_mu(0.5, two_j)))[0]]
    top = max(map(abs, reference))
    for p in (10, 77, 100, 154, 160, 170, 200, 250, 300, 307):
        model = make_morse(MorseParams.from_mu(0.5, two_j, 10.0**p, 10.0**-p))
        try:
            levels = [s.energy_base for s in solve_model(model)[0]]
        except NumericOverflowError:
            # the eigenvector grows by about 10^p a row and may not be representable
            assert p >= 200
            continue
        assert max(abs(e - r) for e, r in zip(levels, reference)) <= 1.5e-16 * top


def test_block_that_overflows_its_balanced_size_fails_loudly():
    # the levels are +-1e-6, so s is 2^-19 and 1e308 / s overflows; scaled
    # by ||M|| instead, 1e-320 underflowed to 0 and the levels came back as 0, 0
    with pytest.raises(NumericOverflowError, match="overflow when divided by its size"):
        eigen_solve(BlockMatrix(sub=(1e-320,), diag=(0.0, 0.0), sup=(1e308,)))


def test_continuant_rescales_far_from_the_spectrum():
    # p(z) = (-z)^32 for the zero block overflows at z = 1e20; the running
    # values are rescaled together, so p / p' = z / 32 stays exact
    n, z = 32, 1e20 + 0j
    p, dp, scale = spectrum._newton_terms([(0.0j, 0.0j, 0.0)] * n, z)
    assert abs(p / dp - z / n) <= 1e-15 * abs(z)
    assert abs(p) <= scale < math.inf


def _random_dense(rng, dim):
    return tuple(tuple(0.5 * unit_complex(rng) for _ in range(dim)) for _ in range(dim))


def _random_tridiagonal(rng, dim):
    # draws the entries row by row, left to right
    sub, diag, sup = [], [], []
    for i in range(dim):
        if i > 0:
            sub.append(0.5 * unit_complex(rng))
        diag.append(0.5 * unit_complex(rng))
        if i + 1 < dim:
            sup.append(0.5 * unit_complex(rng))
    return BlockMatrix(sub, diag, sup)


def test_trace_identity_random_matrices():
    rng = fresh_rng()
    for dim in range(1, 33):
        block = _random_tridiagonal(rng, dim)
        pairs = eigen_solve(block)
        trace = sum(block.diag)
        assert rel_err(sum(p.energy_base for p in pairs), trace) <= 1e-10


def test_trace_identity_family_blocks():
    rng = fresh_rng()
    for two_j in range(5):
        sextic = make_sextic(SexticParams.from_mu(rng.uniform(0, 1.3), two_j))
        morse = make_morse(MorseParams.from_mu(rng.uniform(0, 1.3), two_j))
        for model in (sextic, morse):
            block = build_block(model.combo, model.rep)
            pairs = eigen_solve(block)
            trace = sum(block.diag)
            assert rel_err(sum(p.energy_base for p in pairs), trace) <= 1e-10
            # the characteristic-polynomial route is an independent check on small blocks
            roots = poly_roots(char_poly(block.entries)) if block.dim > 1 else [block.diag[0]]
            for p in pairs:
                assert min(abs(p.energy_base - r) for r in roots) <= 1e-8 * max(1.0, abs(p.energy_base))


def test_root_defect_bound():
    rng = fresh_rng()
    matrices = [_random_dense(rng, d) for d in (2, 5, 9)]
    family_model = make_sextic(SexticParams.from_mu(1.0, 4))
    matrices.append(build_block(family_model.combo, family_model.rep).entries)
    for matrix in matrices:
        cp = char_poly(matrix)
        scale = max(abs(c) for c in cp.coeffs)
        for root in poly_roots(cp):
            assert abs(poly_eval_bounded(cp, root)[0]) <= 1e-9 * scale


def test_shift_equivariance():
    rng = fresh_rng()
    for dim in (2, 3, 5):
        block = _random_tridiagonal(rng, dim)
        c = unit_complex(rng)
        shifted = BlockMatrix(block.sub, [d + c for d in block.diag], block.sup)
        base_pairs = eigen_solve(block)
        shifted_pairs = eigen_solve(shifted)
        for p, q in zip(base_pairs, shifted_pairs):
            assert abs(q.energy_base - (p.energy_base + c)) <= 1e-10
            assert max(
                abs(x - y)
                for x, y in zip(
                    p.phi_coeffs.coeffs + (0.0j,) * dim, q.phi_coeffs.coeffs + (0.0j,) * dim
                )
            ) <= 1e-10


def test_common_shift_pair():
    result = common_imaginary_shift([3j - 2.0, 3j + 2.0])
    assert result.found and abs(result.shift + 3j) <= 1e-15
    assert result.spread <= 1e-15


def test_common_shift_single():
    result = common_imaginary_shift([1.5j])
    assert result.found and result.shift == -1.5j


def test_no_common_shift_spread():
    result = common_imaginary_shift([1.0 + 1j, 1.0 - 1j])
    assert not result.found
    assert result.shift == 0.0
    assert abs(result.spread - 2.0) <= 1e-15


def test_common_shift_needs_input():
    with pytest.raises(ValidationError):
        common_imaginary_shift([])


def test_reality_regime_sweep():
    for mu in (0.0, 0.5, 1.0, 1.3):
        solutions, result = solve_model(make_sextic(SexticParams.from_mu(mu, 1)))
        assert result.found
        assert max(abs((s.energy_base + result.shift).imag) for s in solutions) <= 1e-10
    for mu in (1.5, 2.0):
        solutions, result = solve_model(make_sextic(SexticParams.from_mu(mu, 1)))
        assert not result.found
        assert max(abs((s.energy_base + result.shift).imag) for s in solutions) > 0.1


def test_mu_zero_degenerates_to_real_spectra():
    for two_j in range(5):
        solutions, result = solve_model(make_sextic(SexticParams.from_mu(0.0, two_j)))
        assert result.found
        assert abs(result.shift) <= 1e-10
        assert max(abs(s.energy_base.imag) for s in solutions) <= 1e-10


def test_exact_eigenvalue_gives_zero_pivot():
    # near the exceptional point the computed eigenvalue makes T - lambda I exactly
    # singular in floating point, and a nudge of eps * ||T|| does not change that
    solutions, _ = solve_model(make_sextic(SexticParams.from_mu(1.4118, 1)))
    assert max(s.eigvec_residual for s in solutions) <= 1e-12
    assert [s.multiplicity for s in solutions] == [1, 1]


def test_boundary_double_root_is_clustered():
    mu = math.sqrt(2.0)
    solutions, result = solve_model(make_sextic(SexticParams.from_mu(mu, 1)))
    assert [s.multiplicity for s in solutions] == [2, 2]
    assert result.found
    assert max(abs(s.energy_base + result.shift) for s in solutions) <= 1e-12
    assert max(s.eigvec_residual for s in solutions) <= 1e-12


@pytest.mark.parametrize(
    "mu, two_j", [(1.7, 1), (2.0, 1), (2.6, 1), (2.7, 1), (2.9, 1), (1.0, 5)]
)
def test_equal_real_parts_are_ordered_by_imaginary_part(mu, two_j):
    # past the reality window the levels come in pairs whose real parts
    # agree only to rounding (sextic even 2j=1 at mu=1.7 has Re -3.8e-37 and
    # -2.9e-42); their order must follow Im, not the sign of the noise
    solutions, _ = solve_model(make_sextic(SexticParams.from_mu(mu, two_j)))
    values = [s.energy_base for s in solutions]
    tie = 1e-12 * max(abs(e) for e in values)
    ties = [(e, f) for e, f in zip(values, values[1:]) if abs(e.real - f.real) <= tie]
    assert ties
    assert all(e.imag <= f.imag for e, f in ties)


def _sweep_models(mu, two_j):
    yield make_sextic(SexticParams.from_mu(mu, two_j))
    yield make_sextic(SexticParams.from_mu(mu, two_j, ODD))
    yield make_morse(MorseParams.from_mu(mu, two_j))


def test_high_spin_blocks_stay_accurate():
    # every block up to the cap, each level within 10 * kappa * n * eps * ||M||_inf
    # of a 60-digit reference; kappa reaches ~1e10 for sextic at mu = 3
    for mu, two_j in itertools.product((0.0, 0.5, 1.0, 1.4, 3.0), range(32)):
        for model in _sweep_models(mu, two_j):
            block = build_block(model.combo, model.rep)
            n = block.dim
            norm = max(sum(abs(c) for c in row) for row in block.entries)
            reference, kappas = high_precision_spectrum(block.entries)
            pairs = eigen_solve(block)
            assert len(pairs) == n
            assert max(p.eigvec_residual for p in pairs) <= 1e-12
            trace = sum(block.diag)
            assert rel_err(sum(p.energy_base for p in pairs), trace) <= 1e-10
            for p in pairs:
                gaps = [abs(p.energy_base - r) for r in reference]
                k = min(range(n), key=gaps.__getitem__)
                assert gaps[k] <= 10.0 * kappas[k] * n * sys.float_info.epsilon * norm, (
                    model.family, model.params, p.energy_base
                )


def test_solve_refuses_degraded_residuals(monkeypatch):
    # a pair whose residual exceeds the gate must fail the solve loudly,
    # carrying the degraded pairs for inspection
    honest = spectrum.eigen_solve

    def degraded(block):
        pairs = honest(block)
        return [dataclasses.replace(pairs[0], eigvec_residual=1e-6)] + pairs[1:]

    monkeypatch.setattr(spectrum, "eigen_solve", degraded)
    with pytest.raises(ConvergenceFailureError) as info:
        solve_model(make_morse(MorseParams.from_mu(1.0, 13)))
    assert len(info.value.best) == 14
    assert info.value.defect == 1e-6


def test_aberth_step_cap_reports_best_and_defect(monkeypatch):
    monkeypatch.setattr(spectrum, "ABERTH_STEPS", 0)
    model = make_sextic(SexticParams.from_mu(1.0, 4))
    block = build_block(model.combo, model.rep)
    with pytest.raises(ConvergenceFailureError) as info:
        eigen_solve(block)
    # no step ran: best holds the starting values, defect their largest |p/p'|
    assert len(info.value.best) == block.dim
    assert 0 < info.value.defect < math.inf


def _aberth_starts(monkeypatch, block):
    """The Aberth start points of a one-piece block, in the block's own units.

    With no sweep allowed, the failure carries the starts of the block that
    eigen_solve divided by s, the power of two above its balanced size
    max |d| + max |sub sup|^(1/2), so multiplying back is exact.
    """
    monkeypatch.setattr(spectrum, "ABERTH_STEPS", 0)
    with pytest.raises(ConvergenceFailureError) as info:
        eigen_solve(block)
    root = max(abs(a * b) ** 0.5 for a, b in zip(block.sub, block.sup))
    s = math.ldexp(1.0, math.frexp(max(map(abs, block.diag)) + root)[1])
    return [s * z for z in info.value.best]


def _recording_ql(monkeypatch, pieces=None):
    """The list that receives each _ql_values result from here on (None: the circle start).

    pieces, when given, receives each (diag, prod) that QL reads: the piece as _aberth scaled it.
    """
    results = []
    ql_values = spectrum._ql_values

    def recording(diag, prod):
        if pieces is not None:
            pieces.append((list(diag), list(prod)))
        results.append(ql_values(diag, prod))
        return results[-1]

    monkeypatch.setattr(spectrum, "_ql_values", recording)
    return results


def test_aberth_starts_match_the_first_two_moments(monkeypatch):
    # the implicit-QL starts are eigenvalues to rounding, so they have the spectrum's moments
    results = _recording_ql(monkeypatch)
    model = make_sextic(SexticParams.from_mu(0.7, 8))
    block = build_block(model.combo, model.rep)
    starts = _aberth_starts(monkeypatch, block)
    assert len(results) == 1 and results[0] is not None
    n, rows = block.dim, block.entries
    m = sum(block.diag) / n
    # tr((T - mI)^2) from the full matrix, entry by entry
    shifted = [[rows[i][k] - (m if i == k else 0.0) for k in range(n)] for i in range(n)]
    second = sum(shifted[i][k] * shifted[k][i] for i in range(n) for k in range(n)) / n
    scale = tridiag_norm(block.sub, block.diag, block.sup)
    assert abs(sum(starts) / n - m) <= 8 * n * sys.float_info.epsilon * scale
    mean_square = sum((z - m) ** 2 for z in starts) / n
    assert abs(mean_square - second) <= 8 * n * sys.float_info.epsilon * scale**2
    # the paper's blocks have a spectrum on one line, which the starts lie on
    assert abs(second) >= 0.9 * sum(abs(z - m) ** 2 for z in starts) / n


def test_aberth_starts_on_a_circle_when_the_second_moment_vanishes(monkeypatch):
    # diag (2, -2) and sub * sup = -4: tr T = tr(T^2) = 0, so the block is a
    # Jordan block at 0, whose first QL rotation is isotropic; the start is the
    # circle of radius ||T~|| = |2| + |-4|^(1/2) = 4, T~ the balanced block
    results = _recording_ql(monkeypatch)
    starts = _aberth_starts(monkeypatch, BlockMatrix(sub=(2.0,), diag=(2.0, -2.0), sup=(-2.0,)))
    assert results == [None]
    circle = [4.0 * cmath.exp(1j * (math.pi * k + 0.4)) for k in range(2)]
    assert all(abs(z - c) <= 4 * sys.float_info.epsilon for z, c in zip(starts, circle))


def _block(model) -> BlockMatrix:
    return build_block(model.combo, model.rep)


@pytest.mark.parametrize(
    "block, multiplicity",
    [
        # a QL rotation with |r| = 2.3e-8 (|f| + |g|): QL alone would start at +-7e6
        (_block(make_sextic(SexticParams.from_mu(2.0, 2))), 1),
        # the exceptional point of the grid: one level of multiplicity 2
        (_block(make_sextic(SexticParams.from_mu(math.sqrt(2.0), 1))), 2),
        # the Jordan block of the circle test: r = sqrt(f^2 + g^2) = 0 exactly
        (BlockMatrix(sub=(2.0,), diag=(2.0, -2.0), sup=(-2.0,)), 2),
        # the coupling is negligible against the diagonal, so QL returns two
        # exactly equal values, on which an Aberth step would divide by zero
        (_block(make_morse(MorseParams.from_mu(0.0, 1, a=complex(-1.0, -1e8), d=complex(1e154, 1e8)))), 2),
    ],
    ids=["sextic even 2j=2 mu=2", "sextic even 2j=1 mu=sqrt2", "jordan 2x2", "morse 2j=1 equal values"],
)
def test_aberth_starts_on_the_circle_without_usable_ql_values(monkeypatch, block, multiplicity):
    results = _recording_ql(monkeypatch)
    pairs = eigen_solve(block)
    assert results == [None]
    assert len(pairs) == block.dim and max(p.eigvec_residual for p in pairs) <= 1e-10
    assert {p.multiplicity for p in pairs} == {multiplicity}


def _counting_newton_terms(monkeypatch):
    """A one-element list that counts the continuant evaluations from here on."""
    calls = [0]
    newton_terms = spectrum._newton_terms

    def counting(*args):
        calls[0] += 1
        return newton_terms(*args)

    monkeypatch.setattr(spectrum, "_newton_terms", counting)
    return calls


def _large_blocks():
    """27 blocks: the three families at 2j = 8, 16, 31 and mu = 0.3, 1.0, 2.2."""
    for two_j, mu in itertools.product((8, 16, 31), (0.3, 1.0, 2.2)):
        for model in _sweep_models(mu, two_j):
            yield _block(model)


def test_aberth_start_saves_continuant_evaluations(monkeypatch):
    # the implicit-QL values are accepted on the first sweep, one evaluation of p and p' per root
    calls = _counting_newton_terms(monkeypatch)
    roots = sum(len(eigen_solve(block)) for block in _large_blocks())
    assert roots == 522
    assert calls[0] <= 1.05 * roots


def test_circle_start_solves_large_blocks(monkeypatch):
    # with no QL values at all, Aberth from the circle finds the QL path's eigenvalues
    blocks = list(_large_blocks())
    expected = [[p.energy_base for p in eigen_solve(block)] for block in blocks]
    monkeypatch.setattr(spectrum, "_ql_values", lambda diag, prod: None)
    for block, values in zip(blocks, expected):
        pairs = eigen_solve(block)
        assert max(p.eigvec_residual for p in pairs) <= 1e-10
        norm = tridiag_norm(block.sub, block.diag, block.sup)
        for p in pairs:
            assert min(abs(p.energy_base - v) for v in values) <= 1e-13 * norm, (block.dim, p)


NON_NORMAL_4X4 = BlockMatrix(sub=(1e-300,) * 3, diag=(0.0, 1e-150j, 2e-150j, 3e-150j), sup=(1.0, 1.0, 1.0))


def _scaled_size(diag, prod) -> float:
    """max |d| + max |prod|^(1/2), which _aberth's power of two puts in [1/2, 1)."""
    return max(map(abs, diag)) + math.sqrt(max(map(abs, prod)))


def test_ql_values_are_the_roots_of_the_piece(monkeypatch):
    # QL reads each piece as _aberth scaled it; every coupling product of the
    # non-normal 4 x 4 is below 1e-300 before that scaling, so QL would
    # deflate at once and return the diagonal, and its continuant would
    # underflow near its spectrum
    pieces = []
    results = _recording_ql(monkeypatch, pieces)
    blocks = [*_large_blocks(), NON_NORMAL_4X4]
    for block in blocks:
        eigen_solve(block)
    assert len(pieces) == len(blocks)
    monkeypatch.undo()
    for block, (diag, prod), values in zip(blocks, pieces, results):
        assert 0.5 <= _scaled_size(diag, prod) < 1.0
        assert values is not None
        roots = spectrum._eigenvalues(diag, prod)
        for v in values:
            assert min(abs(v - r) for r in roots) <= 1e-12, (block.dim, v)


def test_ql_values_scale_a_piece_below_2_to_the_minus_512(monkeypatch):
    # the factor 2^1058 that scales these products is past the largest double,
    # so _aberth multiplies them by 2^529 twice; no OverflowError
    pieces = []
    results = _recording_ql(monkeypatch, pieces)
    zs, defect = spectrum._aberth([1e-160 + 0j, 3e-160 + 0j], [0j, 1e-320 + 0j])
    (diag, prod), = pieces
    assert 0.5 <= _scaled_size(diag, prod) < 1.0
    f = diag[0].real / 1e-160  # a power of two, so the quotient is exact
    assert f == math.ldexp(1.0, 529)
    roots = [(2.0 - math.sqrt(2.0)) * 1e-160, (2.0 + math.sqrt(2.0)) * 1e-160]
    assert all(abs(v / f - r) <= 1e-164 for v, r in zip(results[0], roots))
    assert defect == 0.0 and all(abs(z - r) <= 1e-164 for z, r in zip(zs, roots))


def _non_normal_levels() -> list[complex]:
    """The levels of NON_NORMAL_4X4 from the 60-digit oracle, which takes them
    from the balanced block because numpy's eigenvectors of the 4 x 4 are singular."""
    values, _ = high_precision_spectrum(NON_NORMAL_4X4.entries)
    return [complex(v) for v in values]


def _assert_non_normal_levels(pairs, rel: float = 1e-12):
    levels = _non_normal_levels()
    assert len(pairs) == 4 and max(p.eigvec_residual for p in pairs) <= 1e-10
    for level in levels:
        assert min(abs(p.energy_base - level) for p in pairs) <= rel * abs(level), level
    for p in pairs:
        assert min(abs(p.energy_base - level) for level in levels) <= rel * abs(p.energy_base), p


def test_non_normal_block_matches_its_60_digit_reference():
    # mpmath.eig of the block itself returns its diagonal 0, 1e-150i, 2e-150i,
    # 3e-150i; the balanced block gives these levels, and eigen_solve's agree
    # to 1.1e-16 of each
    expected = [
        complex(re, im)
        for re in (-7.5874495677599e-151, 7.5874495677599e-151)
        for im in (9.2930401312696e-151, 2.0706959868730e-150)
    ]
    levels = sorted(_non_normal_levels(), key=lambda z: (z.real, z.imag))
    assert levels == pytest.approx(expected, rel=1e-13)
    _assert_non_normal_levels(eigen_solve(NON_NORMAL_4X4), rel=1e-15)


def test_circle_start_finds_the_non_normal_levels(monkeypatch):
    # Aberth from the circle; unless the piece is scaled to size about 1 its
    # continuant underflows near the spectrum and any iterate passes (the
    # levels then come back 2e-150 off, at 1.56e-150 - 3.68e-150i and its
    # three quarter-turns, with residuals that pass the gate)
    monkeypatch.setattr(spectrum, "_ql_values", lambda diag, prod: None)
    _assert_non_normal_levels(eigen_solve(NON_NORMAL_4X4))


def test_diagonal_starts_never_pass_as_levels(monkeypatch):
    # starts at the diagonal, 7.6e-151 (their own size) off the levels, must
    # converge to the levels or fail loudly, not be accepted where they stand
    monkeypatch.setattr(spectrum, "_ql_values", lambda diag, prod: list(diag))
    try:
        pairs = eigen_solve(NON_NORMAL_4X4)
    except ConvergenceFailureError:
        return
    _assert_non_normal_levels(pairs)


def test_graded_block_converges(monkeypatch):
    # couplings graded over 10^-8 .. 10^8: the QL values start within a sweep
    # or two of the roots, where the circle start takes 114 sweeps
    n = 32
    sub = [10.0 ** (8 * math.sin(k)) for k in range(n - 1)]
    diag = [cmath.exp(1j * k) for k in range(n)]
    sup = [10.0 ** (8 * math.cos(k)) for k in range(n - 1)]
    calls = _counting_newton_terms(monkeypatch)
    assert len(eigen_solve(BlockMatrix(tuple(sub), tuple(diag), tuple(sup)))) == n
    assert calls[0] <= 2 * n
    # the sweeps end on the roots: their first two power sums are those of T = M / 2^27
    s = math.ldexp(1.0, 27)
    d = [x / s for x in diag]
    prod = [0j] + [a / s * (b / s) for a, b in zip(sub, sup)]
    values = spectrum._eigenvalues(d, prod)
    assert abs(sum(values) - sum(d)) <= 1e-15
    assert abs(sum(v * v for v in values) - sum(x * x for x in d) - 2 * sum(prod)) <= 1e-15


@pytest.mark.parametrize(
    "sector, two_j, mu", [("even", 2, 1e-310), ("odd", 20, 1e-308), ("even", 8, 1e-320)]
)
def test_subnormal_mu_blocks_solve(sector, two_j, mu):
    # a twisted-factorization pivot of these blocks is subnormal, not zero;
    # it is replaced by eps * ||A|| as a zero one is, or the vector is wrecked
    # (block residuals up to 0.4 when only exact zeros were replaced)
    solutions, _ = solve_model(make_sextic(SexticParams.from_mu(mu, two_j, sector)))
    assert len(solutions) == two_j + 1
    assert max(s.eigvec_residual for s in solutions) <= 1e-10


def test_overflowing_eigenvector_fails_loudly(monkeypatch):
    # strongly non-normal blocks (couplings 1 above, 1e-300 below a diagonal
    # in steps of 1e-150i): each row above the twist grows the unscaled
    # vector by about 1e150, so the 4 x 4's would pass the largest double
    # without the running 2^-500 rescale; both normalized vectors are
    # representable and both blocks solve
    block = BlockMatrix(sub=(1e-300, 1e-300), diag=(0.0, 1e-150j, 2e-150j), sup=(1.0, 1.0))
    assert max(p.eigvec_residual for p in eigen_solve(block)) <= 1e-10
    block = NON_NORMAL_4X4
    pairs = eigen_solve(block)
    assert len(pairs) == 4
    assert all(cmath.isfinite(c) for p in pairs for c in p.phi_coeffs.coeffs)
    assert max(p.eigvec_residual for p in pairs) <= 1e-10

    def overflowed(sub, diag, sup, zs):
        # a vector that does overflow must fail loudly, not escape as a bare StopIteration
        return ([complex(math.inf, 0.0)] * len(diag) for _ in zs)

    monkeypatch.setattr(spectrum, "tridiag_null_vectors", overflowed)
    with pytest.raises(NumericOverflowError, match="eigenvector .* overflowed"):
        eigen_solve(block)


def test_twist_ties_go_to_the_first_row():
    # [[0, 1/2], [2, 0]] at z = +-1: P_1 and Q_0 are exactly 0 and become the
    # same eps * ||A||, so rows 0 and 1 tie for the smallest twist gap; row 0
    # gives x = (1, 2) and (1, -2), row 1 would give (1/2, 1) and (-1/2, 1)
    vectors = list(tridiag_null_vectors([2.0 + 0j], [0j, 0j], [0.5 + 0j], [1.0 + 0j, -1.0 + 0j]))
    assert vectors == [[1.0, 2.0], [1.0, -2.0]]


def test_zero_coupling_decouples_the_batched_null_vectors():
    # an exactly zero coupling splits the block into [[1, 1], [1, 2]] and
    # [[3, 1], [1, 4]]: each piece's null vectors are exactly zero on the other
    sub, diag, sup = [1.0 + 0j, 0j, 1.0 + 0j], [1.0 + 0j, 2.0 + 0j, 3.0 + 0j, 4.0 + 0j], [1.0 + 0j, 0j, 1.0 + 0j]
    root5 = math.sqrt(5.0)
    zs = [(3.0 - root5) / 2, (3.0 + root5) / 2, (7.0 - root5) / 2, (7.0 + root5) / 2]
    vectors = list(tridiag_null_vectors(sub, diag, sup, zs))
    assert len(vectors) == 4
    for x in vectors[:2]:
        assert x[2] == x[3] == 0.0 and abs(x[0]) > 0.0 and abs(x[1]) > 0.0
    for x in vectors[2:]:
        assert x[0] == x[1] == 0.0 and abs(x[2]) > 0.0 and abs(x[3]) > 0.0
    # and eigen_solve keeps those zeros in phi
    for level in eigen_solve(BlockMatrix(tuple(sub), tuple(diag), tuple(sup))):
        coeffs = level.phi_coeffs.coeffs
        assert len(coeffs) == 2 or coeffs[:2] == (0j, 0j)


def test_solution_invariants():
    model = make_morse(MorseParams.from_mu(1.0, 3))
    report, _ = cli.build_report(model)
    for level in report.levels:
        assert level["energy_shifted"] == level["energy_base"] + report.shift
    solutions, _ = solve_model(model)
    for s in solutions:
        assert s.eigvec_residual <= 1e-10
        first = next(c for c in s.phi_coeffs.coeffs if abs(c) > 0)
        assert first == 1.0


def test_centroid_root_takes_no_step_beyond_its_tolerance():
    # p = z^2 - 1 and m = 2: the step p'/(2 p''/2) from 0.5 is 0.5, beyond tol 0
    assert spectrum._centroid_root([0j, 0j], [0j, 1.0 + 0j], 0.5 + 0j, 2, 0.0) == 0.5 + 0j
