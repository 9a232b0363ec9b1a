"""Workloads, ops, failure labels and the timed loop of the qesolve benchmark.

Every input is generated here from the seed; qesolve only ever receives the
generated parameters.  In-process ops call qesolve through module
attributes (``families.make_sextic``, ``spectrum.solve_model``, ...) so the
traced run can interpose timing wrappers on exactly those names.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))

import qesolve  # noqa: E402
from qesolve import cli, families, spectrum  # noqa: E402
from qesolve.errors import QesError  # noqa: E402

if not Path(qesolve.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"qesolve was imported from {qesolve.__file__}, not from {SRC}")

FAMILIES = (("sextic", "even"), ("sextic", "odd"), ("morse", None))
WORKLOADS = ("solve_sweep", "verify_small", "cli_mix")

OK = "ok"
# Innermost qesolve frame of a QesError's traceback -> failure label.
FRAME_LABELS = {
    "fd_verify": "fd_nonconverged",
    "norm_squared": "norm_nonconverged",
    "eigen_solve": "root_iter",
    "solve_model": "residual_gate",
}
EXIT_LABELS = {0: OK, 1: "exit1", 2: "exit2"}
CLI_TIMEOUT_S = 120.0
CLI_ENV = dict(os.environ, PYTHONPATH=str(SRC))


class BenchAbort(Exception):
    """An outcome the benchmark cannot count: not a QesError, or an unexpected exit code."""


@dataclass(frozen=True)
class Case:
    """One model: family, sector (sextic only), 2j and mu (None for a scan's whole range)."""

    family: str
    sector: str | None
    two_j: int
    mu: float | None

    def model(self, mu: float | None = None):
        mu = self.mu if mu is None else mu
        if self.family == "morse":
            return families.make_morse(families.MorseParams.from_mu(mu, self.two_j))
        return families.make_sextic(families.SexticParams.from_mu(mu, self.two_j, self.sector))


@dataclass(frozen=True)
class CliOp:
    kind: str  # solve, scan or verify
    case: Case
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Outcome:
    """label is OK or a failure label; text is what the op printed or rendered.

    value holds solve_model's solutions for in-process solves; they are
    compared as values, not rendered, to keep formatting out of the timed op.
    """

    label: str
    text: str = ""
    value: tuple | None = None


# ---------------------------------------------------------------------------
# inputs


def _stratified(rng, cells, passes, mu_lo, mu_hi):
    """Each cell once per pass, in a fresh shuffled order per pass.

    A cell's mu values over the passes fall one in each of `passes` equal
    sub-intervals of [mu_lo, mu_hi], so every list covers the whole mu range
    evenly and the share of failing inputs varies little between seeds.
    """
    width = (mu_hi - mu_lo) / passes
    mus = {}
    for cell in cells:
        draws = [mu_lo + (s + rng.random()) * width for s in range(passes)]
        rng.shuffle(draws)
        mus[cell] = draws
    out = []
    for p in range(passes):
        order = list(cells)
        rng.shuffle(order)
        out.extend((cell, mus[cell][p]) for cell in order)
    return out


def _case(cell, two_j, mu):
    family, sector = FAMILIES[cell]
    return Case(family, sector, two_j, mu)


def _family_flags(case: Case) -> list[str]:
    flags = ["--family", case.family, "--two-j", str(case.two_j)]
    if case.sector is not None:
        flags += ["--sector", case.sector]
    return flags


# Passes per input list; a pass holds every cell of the workload once.
PASSES = {"solve_sweep": 9, "verify_small": 3, "cli_mix": 4}
CLI_SOLVE_MAX_TWO_J = 8
CLI_SCANS_PER_PASS = 4
CLI_VERIFIES_PER_PASS = 2


def make_inputs(workload: str, seed: int) -> list:
    """The seed's input list; every run attempts each entry at least once."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve_sweep":
        cells = [(f, tj) for f in range(len(FAMILIES)) for tj in range(32)]
        return [_case(f, tj, mu) for (f, tj), mu in _stratified(rng, cells, PASSES[workload], 0.0, 3.0)]
    if workload == "verify_small":
        cells = [(f, tj) for f in range(len(FAMILIES)) for tj in range(6)]
        return [
            _case(f, tj, mu) for (f, tj), mu in _stratified(rng, cells, PASSES[workload], 0.0, 1.4)
        ]
    if workload == "cli_mix":
        cells = [(f, tj) for f in range(len(FAMILIES)) for tj in range(CLI_SOLVE_MAX_TWO_J + 1)]
        solves = _stratified(rng, cells, PASSES[workload], 0.0, 3.0)
        per_pass = len(cells)
        ops = []
        for p in range(PASSES[workload]):
            batch = [_cli_solve(_case(f, tj, mu)) for (f, tj), mu in solves[p * per_pass:(p + 1) * per_pass]]
            batch += [_cli_scan(rng) for _ in range(CLI_SCANS_PER_PASS)]
            batch += [_cli_verify(rng) for _ in range(CLI_VERIFIES_PER_PASS)]
            rng.shuffle(batch)
            ops.extend(batch)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _cli_solve(case: Case) -> CliOp:
    return CliOp("solve", case, ("solve", *_family_flags(case), "--mu", repr(case.mu)))


def _cli_scan(rng) -> CliOp:
    """About 200 mu values at 2j in {0, 1}: hundreds of 2x2 blocks in one process."""
    case = _case(rng.randrange(len(FAMILIES)), rng.randrange(2), None)
    lo = round(rng.uniform(0.0, 1.0), 4)
    mu_range = f"{lo:.4f}:{lo + 2.0:.4f}:0.01"
    return CliOp("scan", case, ("scan", *_family_flags(case), "--mu-range", mu_range))


def _cli_verify(rng) -> CliOp:
    case = _case(rng.randrange(len(FAMILIES)), 0, rng.uniform(0.0, 1.4))
    return CliOp("verify", case, ("verify", *_family_flags(case), "--mu", repr(case.mu)))


# Fixed, seed-independent warm-up op per workload, so setup_s compares like with like.
WARMUP = {
    "solve_sweep": Case("sextic", "even", 8, 1.0),
    "verify_small": Case("sextic", "even", 1, 1.0),
    "cli_mix": _cli_solve(Case("sextic", "even", 1, 1.0)),
}


# ---------------------------------------------------------------------------
# ops


def classify(exc: QesError) -> str:
    """Failure label from the innermost qesolve function the error passed through."""
    names = [frame.f_code.co_name for frame, _ in traceback.walk_tb(exc.__traceback__)]
    for name in reversed(names):
        label = FRAME_LABELS.get(name)
        if label is not None:
            return label
    raise BenchAbort(f"unclassified {type(exc).__name__}: {exc}") from exc


def run_solve(case: Case) -> Outcome:
    """One in-process solve_model call on a freshly built model."""
    try:
        solutions, _ = spectrum.solve_model(case.model())
    except QesError as exc:
        return Outcome(classify(exc))
    return Outcome(OK, value=tuple(solutions))


def run_verify(case: Case) -> Outcome:
    """One in-process build_report(verify=True) followed by render_report."""
    try:
        report, passed = cli.build_report(case.model(), verify=True)
    except QesError as exc:
        return Outcome(classify(exc))
    text = cli.render_report(report)
    return Outcome(OK if passed else "verify_failed", text)


def run_cli(op: CliOp) -> Outcome:
    """One `python -m qesolve ...` subprocess."""
    proc = subprocess.run(
        [sys.executable, "-m", "qesolve", *op.argv],
        cwd=ROOT,
        env=CLI_ENV,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return _cli_outcome(op, proc.returncode, proc.stdout, proc.stderr)


def run_cli_in_process(op: CliOp) -> Outcome:
    """The same command through cli.main(argv) in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return _cli_outcome(op, code, out.getvalue(), err.getvalue())


def _cli_outcome(op: CliOp, code: int, stdout: str, stderr: str) -> Outcome:
    if code not in EXIT_LABELS:
        raise BenchAbort(f"{' '.join(op.argv)} exited {code}: {stderr.strip()}")
    return Outcome(EXIT_LABELS[code], stdout)


RUNNERS = {"solve_sweep": run_solve, "verify_small": run_verify, "cli_mix": run_cli}


# ---------------------------------------------------------------------------
# timing


@dataclass
class LoopResult:
    latencies: list[float]  # seconds, one per attempted op
    outcomes: list[Outcome]  # first outcome of each input in the list
    wall: float  # seconds for the whole loop
    nondeterministic: list[int]  # inputs whose repeat differed from their first outcome


def timed_loop(run, inputs, seconds: float, passes: int) -> LoopResult:
    """Closed loop over the input list, cycling it in whole passes.

    The list is always attempted once in full, so the outcome shares are a
    property of the seed, not of how fast the run went.  The loop then stops
    at the end of the pass that lands nearest to `seconds`, so every cell is
    timed equally often.
    """
    n = len(inputs)
    pass_len = n // passes
    latencies = []
    outcomes: list[Outcome] = []
    nondeterministic = []
    i = 0
    start = perf_counter()
    while True:
        op = inputs[i % n]
        t0 = perf_counter()
        outcome = run(op)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        if i < n:
            outcomes.append(outcome)
        elif outcome != outcomes[i % n]:
            nondeterministic.append(i % n)
        i += 1
        if i >= n and i % pass_len == 0:
            elapsed = t1 - start
            if elapsed * (1 + 0.5 * pass_len / i) >= seconds:
                break
    return LoopResult(latencies, outcomes, perf_counter() - start, nondeterministic)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued fraction (Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            return math.exp(log_front) * (f - 1.0) / a
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile, 0 < q < 100.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics, p =
    q/100.  Ops mix block sizes whose costs sit in separate clusters; the
    single order statistic at a quantile can jump across the gap between
    two clusters from one seed to the next, while this estimate moves
    smoothly.
    """
    s = sorted(values)
    n = len(s)
    if n == 0 or not 0 < q < 100:
        raise ValueError("percentile needs a nonempty sample and 0 < q < 100")
    a, b = (n + 1) * q / 100.0, (n + 1) * (1.0 - q / 100.0)
    cdf = [_betainc(a, b, k / n) for k in range(n + 1)]
    return sum((cdf[k + 1] - cdf[k]) * s[k] for k in range(n))
