"""Correctness oracle, independent of sl2.build_block and the spectrum module.

Each block is assembled from the hand-derived closed-form action
(families.closed_form_block_action), compared entry by entry with
build_block, and solved with numpy.linalg.eig.  A returned level is wrong
when it lies more than 10 * kappa * n * eps * ||M||_2 from the nearest
reference eigenvalue, kappa = ||x|| * ||row of V^-1|| being that
eigenvalue's condition number.  numpy is used here only; the package stays
stdlib-only.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from bench import OK, Case, families, spectrum

SCAN_HEADER = "mu,level,re_base,im_base,re_shifted,im_shifted,shift_im,common_shift_found"
EPS = float(np.finfo(float).eps)
BLOCK_RTOL = 16 * EPS


@dataclass
class Verdict:
    """Oracle totals over a run's input list."""

    levels: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def wrong_frac(self) -> float:
        return self.wrong / self.levels if self.levels else 0.0


def closed_form_block(model) -> np.ndarray:
    n = model.rep.dim
    m = np.zeros((n, n), dtype=complex)
    for k in range(n):
        lower, diag, upper = families.closed_form_block_action(model, k)
        if k > 0:
            m[k - 1, k] = lower
        m[k, k] = diag
        if k + 1 < n:
            m[k + 1, k] = upper
    return m


def block_mismatch(model, m: np.ndarray) -> float:
    """Largest |build_block - closed form| entry, relative to max(1, largest entry)."""
    built = np.array(spectrum.build_block(model.combo, model.rep).entries, dtype=complex)
    if built.shape != m.shape:
        return math.inf
    return float(np.max(np.abs(built - m)) / max(1.0, float(np.max(np.abs(m)))))


def reference(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference eigenvalues and the distance each one allows."""
    values, vectors = np.linalg.eig(m)
    try:
        inverse = np.linalg.inv(vectors)
        kappa = np.linalg.norm(vectors, axis=0) * np.linalg.norm(inverse, axis=1)
    except np.linalg.LinAlgError:
        kappa = np.full(len(values), np.inf)
    n = m.shape[0]
    return values, 10.0 * kappa * n * EPS * np.linalg.norm(m, 2)


def wrong_levels(energies, values: np.ndarray, allowed: np.ndarray) -> int:
    """How many energies lie farther from their nearest reference value than it allows."""
    wrong = 0
    for e in energies:
        gaps = np.abs(values - e)
        k = int(np.argmin(gaps))
        wrong += bool(gaps[k] > allowed[k])
    return wrong


def check_case(case: Case, energies, verdict: Verdict, mu: float | None = None) -> None:
    """Check one model's block, then its returned levels (None for a failed op)."""
    model = case.model(mu)
    m = closed_form_block(model)
    mismatch = block_mismatch(model, m)
    if mismatch > BLOCK_RTOL:
        verdict.problems.append(f"{case} mu={mu}: build_block differs from the closed form by {mismatch:.2e}")
    if energies is None:
        return
    if len(energies) != model.rep.dim:
        verdict.problems.append(f"{case} mu={mu}: {len(energies)} levels for a block of {model.rep.dim}")
    values, allowed = reference(m)
    verdict.levels += len(energies)
    verdict.wrong += wrong_levels(energies, values, allowed)


def report_energies(text: str) -> list[complex]:
    data = json.loads(text)
    return [complex(lv["energy_base"]["re"], lv["energy_base"]["im"]) for lv in data["levels"]]


def scan_energies(text: str) -> dict[float, list[complex]]:
    """mu -> base energies, from the CSV scan output."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != SCAN_HEADER:
        raise ValueError("scan output lacks the CSV header")
    out: dict[float, list[complex]] = {}
    for row in rows[1:]:
        out.setdefault(float(row[0]), []).append(complex(float(row[2]), float(row[3])))
    return out


def check_run(workload: str, inputs, outcomes) -> Verdict:
    """Oracle over the first outcome of every input in the list."""
    verdict = Verdict()
    for op, outcome in zip(inputs, outcomes):
        ok = outcome.label == OK
        try:
            if workload == "solve_sweep":
                check_case(op, [x.energy_base for x in outcome.value] if ok else None, verdict)
            elif workload == "verify_small":
                check_case(op, report_energies(outcome.text) if ok else None, verdict)
            elif op.kind != "scan":
                check_case(op.case, report_energies(outcome.text) if ok else None, verdict)
            elif ok:
                for mu, energies in scan_energies(outcome.text).items():
                    check_case(op.case, energies, verdict, mu)
        except (ValueError, KeyError, IndexError) as exc:
            verdict.problems.append(f"{op}: unreadable output ({type(exc).__name__}: {exc})")
    return verdict
