"""Solvers for the q-periodic homogeneous boundary-law equation.

A q-periodic law a solves the tree recursion when a_k is proportional to
(sum_m C[k, m] a_m)**d for the wrapped interaction matrix C, with the constant
eliminated by the a_0 = 1 normalization. This module provides the residual of
that equation, one batched damped iteration shared by the single-start solver
and the multi-start branch search, the closed-form period-2 reduction for the
SOS model on the binary tree, effective Ising/Potts temperatures for periods
2, 3, 4, their closed-form critical temperatures, the log-grid scalar root
scan, and the normalizability certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Diverged,
    MaxIterations,
    UnsupportedDegree,
    UnsupportedPeriod,
)
from .model import (
    PeriodicBoundaryLaw,
    TransferOperator,
    interaction_matrix,
    wrapped_row,
)

__all__ = [
    "SolveReport",
    "residual",
    "fixed_point_solve",
    "find_branches",
    "closed_form_q2_sos",
    "effective_beta",
    "critical_beta",
    "ising_type_solve",
    "is_normalizable",
]

BRANCH_TRIVIAL = "trivial"
BRANCH_UPPER = "upper"
BRANCH_LOWER = "lower"
BRANCH_OTHER = "other"

_LOWER_GUARD = 1e-12
_UPPER_GUARD = 1e12


@dataclass(frozen=True)
class SolveReport:
    solution: PeriodicBoundaryLaw
    residual: float
    iterations: int
    branch_label: str


def residual(law: PeriodicBoundaryLaw, op: TransferOperator, d: int) -> float:
    """Max-norm violation of the normalized boundary-law fixed point."""
    return _residual_of(interaction_matrix(op, law.q), law.as_array(), d)


def _residual_of(C: np.ndarray, a: np.ndarray, d: int) -> float:
    F = (C @ a) ** d
    return float(np.max(np.abs(a - F / F[0])))


def _label(a: np.ndarray, atol: float = 1e-6) -> str:
    if np.max(np.abs(a - 1.0)) <= atol:
        return BRANCH_TRIVIAL
    if len(a) == 2:
        return BRANCH_UPPER if a[1] > 1.0 else BRANCH_LOWER
    return BRANCH_OTHER


def _damped(C: np.ndarray, d: int, rows: np.ndarray, damping: float,
            max_iter: int, tol: float):
    """Damped iteration on a batch of a_0 = 1 normalized starts, in place.

    Returns per-row update counts and the diverged and budget-exhausted masks.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    n = len(rows)
    active = np.ones(n, dtype=bool)
    diverged = np.zeros(n, dtype=bool)
    iters = np.zeros(n, dtype=int)
    for _ in range(max_iter + 1):
        if not active.any():
            break
        cur = rows[active]
        F = (cur @ C.T) ** d
        G = F / F[:, :1]
        res = np.max(np.abs(cur - G), axis=1)
        done = res <= tol
        nxt = (1.0 - damping) * cur + damping * G
        nxt /= nxt[:, :1]
        bad = np.any((nxt <= _LOWER_GUARD) | (nxt >= _UPPER_GUARD), axis=1)
        idx = np.flatnonzero(active)
        rows[idx[~done]] = nxt[~done]
        iters[idx[~done]] += 1
        diverged[idx[bad & ~done]] = True
        active[idx[done | bad]] = False
    return iters, diverged, active


def fixed_point_solve(op: TransferOperator, q: int, d: int,
                      init, damping: float = 0.7,
                      max_iter: int = 5000, tol: float = 1e-12) -> SolveReport:
    """Damped iteration a <- (1 - damping) a + damping F(a)/F_0(a).

    Raises ``Diverged`` when an entry leaves (1e-12, 1e12) and
    ``MaxIterations`` (carrying the last iterate and its residual) when the
    budget runs out.
    """
    C = interaction_matrix(op, q)
    a = np.asarray(init, dtype=float)
    if a.shape != (q,) or np.any(a <= 0):
        raise ValueError("init must be a strictly positive q-vector")
    rows = (a / a[0])[None, :]
    iters, diverged, running = _damped(C, d, rows, damping, max_iter, tol)
    a, it = rows[0], int(iters[0])
    if diverged[0]:
        raise Diverged(f"iterate left the admissible region after {it} steps")
    report = SolveReport(PeriodicBoundaryLaw.from_values(a), _residual_of(C, a, d),
                         max_iter if running[0] else it, _label(a))
    if running[0]:
        raise MaxIterations(f"no convergence to {tol} in {max_iter} iterations", report)
    return report


def _default_inits(q: int, n_starts: int) -> np.ndarray:
    if q == 1:
        return np.ones((1, 1))
    if q == 2:
        xs = np.logspace(-4, 4, n_starts)
        rows = np.column_stack([np.ones(n_starts), xs])
        return np.vstack([np.ones((1, 2)), rows])
    # one favored or suppressed class per start, cycled over positions
    per = max(2, math.ceil(n_starts / q))
    rows = [np.ones(q)]
    for j in range(q):
        for x in np.logspace(-3, 3, per):
            v = np.ones(q)
            v[j] = x
            rows.append(v / v[0])
    return np.array(rows)


def find_branches(op: TransferOperator, q: int, d: int, n_starts: int = 50,
                  damping: float = 0.7, max_iter: int = 5000, tol: float = 1e-10,
                  dedup_atol: float = 1e-6) -> list[SolveReport]:
    """Multi-start sweep; converged iterates are merged into distinct branches.

    Starts run as one vectorized batch. Diverged starts are dropped silently;
    the trivial solution is always part of the result.
    """
    C = interaction_matrix(op, q)
    a = _default_inits(q, n_starts)
    iters, diverged, active = _damped(C, d, a, damping, max_iter, tol)
    solutions: list[tuple[np.ndarray, float, int]] = []
    for row, it, bad, still in zip(a, iters, diverged, active):
        if bad or still:
            continue
        res = _residual_of(C, row, d)
        if res > tol:
            continue
        if any(np.max(np.abs(row - s[0])) <= dedup_atol for s in solutions):
            continue
        solutions.append((row, res, int(it)))
    solutions.sort(key=lambda s: tuple(s[0]))
    return [
        SolveReport(PeriodicBoundaryLaw.from_values(row), res, it, _label(row))
        for row, res, it in solutions
    ]


def closed_form_q2_sos(beta: float, d: int = 2) -> list[PeriodicBoundaryLaw]:
    """All period-2 SOS boundary laws on the binary tree.

    The nontrivial pair a_1 = u**2 with u solving u**2 + (1 - cosh(beta)) u + 1
    exists once cosh(beta) >= 3; at equality the double root u = 1 merges with
    the trivial law.
    """
    if d != 2:
        raise UnsupportedDegree("the closed cubic reduction holds for d = 2 only")
    if not beta > 0:
        raise ValueError("beta must be positive")
    laws = [PeriodicBoundaryLaw.trivial(2)]
    c = math.cosh(beta)
    disc = c * c - 2.0 * c - 3.0
    if disc <= 0.0:
        return laws
    root = math.sqrt(disc)
    for u in ((c - 1.0) / 2.0 + root / 2.0, (c - 1.0) / 2.0 - root / 2.0):
        # a float-evaluated threshold leaves the double root u = 1 split by
        # sqrt(eps); fold that back onto the trivial law
        if u > 0 and abs(u - 1.0) > 1e-7:
            laws.append(PeriodicBoundaryLaw(2, (1.0, u * u)))
    return laws


def effective_beta(op: TransferOperator, q: int, variant: str = "generic") -> float:
    """Inverse temperature of the Ising/Potts model matching the wrapped row.

    q = 2 maps to Ising, q = 3 to the 3-state Potts model, and q = 4 with the
    paired ansatz (classes {0,1} vs {2,3}) back to Ising on the pair classes.
    """
    if variant not in ("generic", "q4_paired"):
        raise ValueError("variant must be 'generic' or 'q4_paired'")
    row = wrapped_row(op, q)
    if q == 2:
        return 0.5 * math.log(row[0] / row[1])
    if q == 3:
        return math.log(row[0] / row[1])
    if q == 4:
        if variant != "q4_paired":
            raise UnsupportedPeriod("q = 4 supports only the paired ansatz")
        # diagonal vs off-diagonal weight between the pair classes
        return 0.5 * math.log((row[0] + row[1]) / (row[1] + row[2]))
    raise UnsupportedPeriod(f"no effective reduction for q = {q}")


def critical_beta(q: int, d: int, family: str = "sos") -> float:
    """Onset of multiple q-periodic boundary laws for the SOS family.

    Setting the effective temperature to the Ising threshold atanh(1/d), or
    to log(1 + 2 sqrt(2)) for the 3-state Potts model on the binary tree,
    gives cosh(beta) = (d + 1)/(d - 1) for q = 2, 1 + sqrt(2) for q = 3 and
    d/(d - 1) for q = 4 with the paired ansatz.
    """
    if family != "sos":
        raise ValueError("critical temperatures are implemented for the SOS family")
    if q not in (2, 3, 4):
        raise UnsupportedPeriod(f"no critical temperature for q = {q}")
    if d < 2:
        raise UnsupportedDegree("need d >= 2")
    if q == 2:
        return math.acosh((d + 1.0) / (d - 1.0))
    if q == 4:
        return math.acosh(d / (d - 1.0))
    if d != 2:
        raise UnsupportedDegree("the q = 3 threshold is known for d = 2 only")
    return math.acosh(1.0 + math.sqrt(2.0))


def grid_roots(f, grid) -> list[float]:
    """Roots of f: grid points where f is exactly zero, and each sign change
    between neighbouring grid points bisected down to two adjacent floats."""
    vals = [f(x) for x in grid]
    roots: list[float] = []
    for lo, hi, flo, fhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if flo == 0.0:
            roots.append(float(lo))
        elif flo * fhi < 0.0:
            lo, hi = float(lo), float(hi)
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if (f(mid) < 0.0) == (flo < 0.0):
                    lo = mid
                else:
                    hi = mid
            roots.append(lo)
    return roots


def ising_type_solve(Qpp: float, Qpm: float, d: int) -> list[float]:
    """All positive fixed points of the scalar two-class recursion
    a = ((Qpm + a Qpp) / (Qpp + a Qpm))**d, by log-grid bracketing."""
    if Qpp <= 0 or Qpm <= 0:
        raise ValueError("weights must be positive")

    def f(a: float) -> float:
        return ((Qpm + a * Qpp) / (Qpp + a * Qpm)) ** d - a

    # a = 1 solves the symmetric equation identically
    roots = [1.0] + grid_roots(f, np.logspace(-12.0, 12.0, 4001))
    out: list[float] = []
    for r in sorted(roots):
        if not any(abs(r - s) <= 1e-9 * max(1.0, s) for s in out):
            out.append(r)
    return out


def is_normalizable(law: PeriodicBoundaryLaw, op: TransferOperator, d: int) -> bool:
    """Single-site summability of a boundary law: always False here.

    The summand at height w is (sum_j Q(w - j) l(j))**(d + 1). For a
    q-periodic law it is q-periodic in w and bounded below by a positive
    constant, so the sum over w diverges.
    """
    return False
