"""Command-line front end: solve, verify, scan, partner.

Output is machine-readable and byte-deterministic: JSON from json.dumps and
CSV cells from str, so every float prints as Python's shortest repr that
round-trips (0.7, 1e-10, -0.0); complex numbers are {"re": ..., "im": ...}
objects, a non-finite float in JSON is null, and the CSV has a fixed header
and row order.

Exit codes: 0 success, 1 usage or parameter validation, 2 numerical or
verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

from .analysis import (
    FD_GRID_N,
    MAX_POINTS,
    GridCheck,
    GridSpec,
    fd_verify,
    is_pt_symmetric,
    norm_squared,
    partner_potentials,
    residual_sup,
)
from .errors import (
    ConvergenceFailureError,
    NumericOverflowError,
    PoleError,
    ValidationError,
)
from .families import (
    EVEN,
    MORSE,
    ODD,
    SEXTIC,
    MorseParams,
    QesModel,
    SexticParams,
    make_morse,
    make_sextic,
)
from .spectrum import RESIDUAL_GATE, QesSolution, ShiftResult, solve_model

SCAN_HEADER = "mu,level,re_base,im_base,re_shifted,im_shifted,shift_im,common_shift_found"


# ---------------------------------------------------------------------------
# deterministic serialization


def _plain(value):
    """value as json.dumps takes it: a dataclass as its fields in order, a
    complex as {"re", "im"}, a tuple as a list, a non-finite float as None
    (JSON has no inf or nan); json.dumps refuses any other type."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, complex):
        return {"re": _plain(value.real), "im": _plain(value.imag)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _fmt_c(c: complex) -> str:
    return f"{c.real + 0.0:.12g}{c.imag + 0.0:+.12g}i"  # + 0.0 turns -0.0 into 0.0


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class VerificationReport:
    residual_tolerance: float
    fd: GridCheck
    norms: tuple[float, ...] | None
    passed: bool


@dataclass(frozen=True)
class RunReport:
    family: str
    parameters: dict
    two_j: int
    shift: complex
    common_shift_found: bool
    shift_spread: float
    levels: tuple[dict, ...]
    residual_sup: float
    pt_symmetric: bool
    published_comparison: tuple[str, ...]
    verification: VerificationReport | None


def render_report(r: RunReport) -> str:
    return json.dumps(_plain(r), indent=2)


# ---------------------------------------------------------------------------
# the paper's closed forms for 2j = 0 and 1 of the even sextic and of Morse


def _closed_forms(
    model: QesModel, solutions: list[QesSolution], shift_result: ShiftResult
) -> tuple[list[tuple[str, complex, complex]], list[str]]:
    """(name, published, computed) of each published level, constant and coefficient; notes."""
    p, mu, shift = model.params, model.params.mu, shift_result.shift
    computed = [s.energy_base + shift for s in solutions]

    def levels(form: str, *published: complex) -> list[tuple[str, complex, complex]]:
        ordered = sorted(published, key=lambda c: (c.real, c.imag))
        return [(f"level E_{i} {form}", *pair) for i, pair in enumerate(zip(ordered, computed))]

    def constant(form: str, im: float) -> tuple[str, complex, complex]:
        return f"additive potential constant {form}", complex(0.0, im), shift

    if model.parity == 1 and p.two_j == 0:  # the even sextic, the one sector printed
        sign = "published +i*mu has the opposite sign of the computed shift: adjudicated a misprint"
        profile = "published ground state exp(-x^4/4 - i*mu*x^2/2) matches the gauge factor"
        notes = ([sign] if mu != 0.0 else []) + [profile]
        return [*levels("= 0", 0j), constant("+i*mu", mu)], notes
    if model.parity == 1 and p.two_j == 1:
        root = cmath.sqrt(2.0 - mu * mu)
        forms = levels("of -/+ 2*sqrt(2-mu^2)", -2.0 * root, 2.0 * root)
        forms.append(constant("-3*i*mu", -3.0 * mu))
        if mu == 0.0:
            return forms, []
        _, upper = max(zip(computed, solutions), key=lambda t: (t[0].real, t[0].imag))
        c1 = (*upper.phi_coeffs, 0.0j)[1]
        forms.append(("upper-level c_1 = -(sqrt(2-mu^2)-i*mu)", -(root - complex(0.0, mu)), c1))
        return forms, [
            "published upper-level c_1 adjudicated: the computed null vector has "
            "c_1 = -(sqrt(2-mu^2)+i*mu) and is retained"
        ]
    if model.family == MORSE and p.two_j <= 1:
        base = 2.0 * p.a * p.d - (9.0 - mu * mu) / 4.0
        if p.two_j == 0:
            return [*levels("= 2*a*d - (9-mu^2)/4", base), constant("-3*i*mu/2", -1.5 * mu)], [
                "published misprints adjudicated: the level's symbol c read as d, the e^x "
                "coefficient -d(4-i) as -d(4-i*mu), and the final a^2 e^{2x} term as a^2 e^{-2x}"
            ]
        root = cmath.sqrt(16.0 * p.a * p.d - mu * mu)
        spread = (
            f"imaginary parts of the computed pair differ by {shift_result.spread:.6g}; no "
            "constant shift makes both levels real, so the published levels are not reproduced"
        )
        gauge = (
            "with gauge offset b = (i*mu-1)/2 instead of (i*mu-3)/2 the block spectrum is real "
            "with zero shift: 2*a*d - (1-mu^2)/4 -/+ sqrt(16*a*d - mu^2)/2"
        )
        notes = ([] if shift_result.found else [spread]) + [gauge]
        form = "of 2*a*d - (9-mu^2)/4 -/+ sqrt(16*a*d - mu^2)"
        return levels(form, base - root, base + root), notes
    return [], []


def published_comparison(
    model: QesModel, solutions: list[QesSolution], shift_result: ShiftResult
) -> tuple[str, ...]:
    """One verdict per published closed form, AGREES within 1e-9, then the notes; no mu, none."""
    if model.params.mu is None:
        return ()
    forms, notes = _closed_forms(model, solutions, shift_result)
    verdicts = []
    for name, published, computed in forms:
        delta = abs(computed - published)
        outcome = "AGREES" if delta <= 1e-9 else "DISAGREES"
        verdicts.append(
            f"published {name} = {_fmt_c(published)}: computed {_fmt_c(computed)}, "
            f"|delta| = {delta:.3g} -> {outcome}"
        )
    return (*verdicts, *notes)


# ---------------------------------------------------------------------------
# report assembly


def _parameters_dict(model: QesModel) -> dict:
    p = model.params
    if model.family == SEXTIC:
        return {"a": p.a, "mu": p.mu, "sector": p.sector}
    return {"a": p.a, "d": p.d, "b": p.b, "mu": p.mu}


def build_report(
    model: QesModel, verify: bool = False, grid: GridSpec | None = None
) -> tuple[RunReport, bool]:
    """Solve (and optionally verify) a model; returns the report and pass/fail."""
    solutions, shift_result = solve_model(model)
    rsup = max(residual_sup(model, s) for s in solutions)
    shift = shift_result.shift
    pt = is_pt_symmetric(model, shift)
    notes = published_comparison(model, solutions, shift_result)
    levels = tuple(
        {
            "index": i,
            "energy_base": s.energy_base,
            "energy_shifted": s.energy_base + shift,
            "phi_coeffs": s.phi_coeffs,
            "eigvec_residual": s.eigvec_residual,
            "multiplicity": s.multiplicity,
        }
        for i, s in enumerate(solutions)
    )
    verification = None
    ok = True
    if verify:
        fd = fd_verify(model, solutions, shift, grid)
        norms = tuple(norm_squared(model, s) for s in solutions) if model.normalizable else None
        ok = rsup <= RESIDUAL_GATE and fd.defect <= fd.defect_bound
        verification = VerificationReport(RESIDUAL_GATE, fd, norms, ok)
    return RunReport(
        family=model.family,
        parameters=_parameters_dict(model),
        two_j=model.params.two_j,
        shift=shift,
        common_shift_found=shift_result.found,
        shift_spread=shift_result.spread,
        levels=levels,
        residual_sup=rsup,
        pt_symmetric=pt,
        published_comparison=notes,
        verification=verification,
    ), ok


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 through main, not argparse's exit 2
        raise ValidationError(message)


def _add_numbers(sub, flag: str, form: str, counts=(2,), make=lambda *xs: xs, **kwargs):
    """Add a real-valued flag whose argparse type is the one rule for all of them:
    the text splits on form's separator into one of counts numbers, each finite,
    and make builds the value.  Its ValidationError passes argparse by to main."""

    def parse(text: str):
        try:
            numbers = [float(part) for part in text.split(":" if ":" in form else ",")]
        except ValueError:
            numbers = []
        if len(numbers) not in counts:
            raise ValidationError(f"expected {flag} as {form} — got {text!r}")
        if not all(map(math.isfinite, numbers)):
            raise ValidationError(f"{flag} needs finite numbers — got {text!r}")
        return make(*numbers)

    sub.add_argument(flag, type=parse, **kwargs)


def _check_size(flag: str, count: int, what: str) -> None:
    """Refuse a flag asking for more than MAX_POINTS points, rows or samples, before any exist."""
    if count > MAX_POINTS:
        raise ValidationError(f"{flag} asks for more than {MAX_POINTS} {what}")


def _add_family_flags(sub: argparse.ArgumentParser, with_mu: bool = True) -> None:
    sub.add_argument("--family", required=True, choices=(SEXTIC, MORSE))
    sub.add_argument("--two-j", required=True, type=int, help="2j, a non-negative integer")
    if with_mu:
        mu_help = "sextic: a = i*mu; morse: b = (i*mu - 3)/2"
        _add_numbers(sub, "--mu", "a number", (1,), float, help=mu_help)
    _add_numbers(sub, "--a", "re,im", (1, 2), complex, help="complex parameter as re,im")
    _add_numbers(sub, "--b", "re,im", (1, 2), complex, help="morse gauge offset as re,im")
    _add_numbers(sub, "--d", "re,im", (1, 2), complex, help="morse parameter as re,im")
    sub.add_argument("--sector", choices=(EVEN, ODD), help="sextic parity sector")


def _resolve_model(args, mu: float | None) -> QesModel:
    """The model the family flags describe; mu comes from --mu, or from --mu-range for scan."""
    if args.family == SEXTIC:
        if args.b is not None or args.d is not None:
            raise ValidationError("--b/--d apply to the morse family only")
        sector = args.sector or EVEN
        if mu is not None and args.a is not None:
            raise ValidationError("give either mu or --a, not both")
        if mu is not None:
            params = SexticParams.from_mu(mu, args.two_j, sector)
        elif args.a is not None:
            params = SexticParams(args.a, args.two_j, sector)
        else:
            raise ValidationError("the sextic family needs --mu or --a")
        return make_sextic(params)
    if args.sector is not None:
        raise ValidationError("--sector applies to the sextic family only")
    a = 1.0 + 0.0j if args.a is None else args.a
    d = 1.0 + 0.0j if args.d is None else args.d
    if mu is not None and args.b is not None:
        raise ValidationError("give either mu or --b, not both")
    if mu is not None:
        params = MorseParams.from_mu(mu, args.two_j, a, d)
    elif args.b is not None:
        params = MorseParams(a, d, args.b, args.two_j)
    else:
        raise ValidationError("the morse family needs --mu or --b")
    return make_morse(params)


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args) -> int:
    report, _ = build_report(_resolve_model(args, args.mu))
    print(render_report(report))
    return 0


def cmd_verify(args) -> int:
    model = _resolve_model(args, args.mu)
    _check_size("--grid-n", args.grid_n, "grid points")
    grid = GridSpec(*(args.domain or model.default_domain), args.grid_n)
    report, ok = build_report(model, verify=True, grid=grid)
    print(render_report(report))
    return 0 if ok else 2


def cmd_scan(args) -> int:
    lo, hi, step = args.mu_range
    if step <= 0:
        raise ValidationError("range step must be positive")
    span = (hi - lo) / step if hi >= lo else -1.0  # no points when hi < lo
    if not math.isfinite(span):
        raise ValidationError("--mu-range needs finite numbers — its point count overflows")
    count = math.floor(span + 1e-9) + 1
    _resolve_model(args, lo)  # conflicting flags fail even when the range is empty
    _check_size("--mu-range", count * (args.two_j + 1), "rows")
    lines = [SCAN_HEADER]
    for k in range(count):
        mu = lo + k * step
        solutions, shift_result = solve_model(_resolve_model(args, mu))
        shift, found = shift_result.shift, int(shift_result.found)
        for level, s in enumerate(solutions):
            e, shifted = s.energy_base, s.energy_base + shift
            cells = (mu, level, e.real, e.imag, shifted.real, shifted.imag, shift.imag, found)
            lines.append(",".join(map(str, cells)))
    print("\n".join(lines))
    return 0


def cmd_partner(args) -> int:
    model = _resolve_model(args, args.mu)
    x_min, x_max = args.range
    n = args.samples
    if n < 1:
        raise ValidationError("--samples must be at least 1")
    _check_size("--samples", n, "samples")
    if not math.isfinite(x_max - x_min):
        raise ValidationError(f"--range span x_max - x_min overflows — got {x_min!r},{x_max!r}")
    xs = [x_min] if n == 1 else [x_min + i * (x_max - x_min) / (n - 1) for i in range(n)]
    rows = []
    for x in xs:
        try:
            v_minus, v_plus = partner_potentials(model, x)
            row = {"pole": False, "v_minus": v_minus, "v_plus": v_plus}
            row["difference"] = v_plus - v_minus
        except PoleError:
            row = {"pole": True, "v_minus": None, "v_plus": None, "difference": None}
        rows.append({"x": x, **row})
    output = {"family": model.family, "two_j": model.params.two_j, "samples": rows}
    print(json.dumps(_plain(output), indent=2))
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qesolve", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve the finite block and report the spectrum")
    _add_family_flags(solve)
    solve.set_defaults(func=cmd_solve)

    verify = subs.add_parser("verify", help="solve plus residual/normalization/grid checks")
    _add_family_flags(verify)
    verify.add_argument("--grid-n", type=int, default=FD_GRID_N)
    _add_numbers(verify, "--domain", "lo,hi", help="grid domain as xmin,xmax (default per family)")
    verify.set_defaults(func=cmd_verify)

    scan = subs.add_parser("scan", help="CSV sweep of the spectrum over mu")
    _add_family_flags(scan, with_mu=False)
    _add_numbers(scan, "--mu-range", "lo:hi:step", (3,), required=True, help="lo:hi:step")
    scan.set_defaults(func=cmd_scan)

    partner = subs.add_parser("partner", help="sample the isospectral partner pair")
    _add_family_flags(partner)
    partner.add_argument("--samples", type=int, default=9)
    _add_numbers(partner, "--range", "lo,hi", default="-2,2", help="xmin,xmax")
    partner.set_defaults(func=cmd_partner)

    return parser


def _failure_detail(exc: ConvergenceFailureError) -> str:
    """One JSON line saying how close the failed iteration came; a non-finite defect is null."""
    best = exc.best
    count = len(best) if isinstance(best, (list, tuple)) else int(best is not None)
    return json.dumps(_plain({"defect": exc.defect, "best_count": count}))


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericOverflowError, ConvergenceFailureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceFailureError):
            print(_failure_detail(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
