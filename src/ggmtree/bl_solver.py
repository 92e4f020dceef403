"""Solvers for the q-periodic homogeneous boundary-law equation.

A q-periodic law a solves the tree recursion when a_k is proportional to
(sum_m C[k, m] a_m)**d for the wrapped interaction matrix C, with the constant
eliminated by the a_0 = 1 normalization. This module provides:

- the residual of that equation;
- one batched iteration loop, ``_damped``, behind both the single-start solver
  and the multi-start branch search. It starts with a few damped updates,
  then takes Newton steps on a - F(a)/F_0(a) (analytic (q-1) x (q-1)
  Jacobian) wherever they lower the residual, and polishes each converged row
  with Newton;
- the branch search's closure under the cyclic shifts and the reflection of
  C, and its merge rule, which folds the rows lying in one flat residual well
  onto one branch;
- the closed-form period-2 reduction for the SOS model on the binary tree;
- effective Ising/Potts temperatures for periods 2, 3, 4 and their
  closed-form critical temperatures;
- the normalizability certificate.
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
    grid_roots,
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
]

BRANCH_TRIVIAL = "trivial"
BRANCH_UPPER = "upper"
BRANCH_LOWER = "lower"
BRANCH_OTHER = "other"

_LOWER_GUARD = 1e-12
_UPPER_GUARD = 1e12
# damped updates each row takes before Newton steps: they pull the far starts
# (1e-4 and 1e4) towards a solution
_WARMUP = 8
# Newton steps taken by each row once its residual is at most tol
_POLISH = 2
# updates without the residual halving after which a row stops trying Newton
_STALL = 20


@dataclass(frozen=True)
class SolveReport:
    solution: PeriodicBoundaryLaw
    residual: float
    iterations: int
    branch_label: str


def residual(law: PeriodicBoundaryLaw, op: TransferOperator, d: int) -> float:
    """Max-norm violation of the normalized boundary-law fixed point."""
    a = law.as_array()[None, :]
    return float(_fixed_point_map(interaction_matrix(op, law.q), d, a)[2][0])


def _fixed_point_map(C: np.ndarray, d: int, rows: np.ndarray):
    """G(a) = F(a)/F_0(a) with F = (C a)**d for each row a, returned with the
    sums S = C a and the residuals max |a - G(a)|."""
    S = rows @ C.T
    F = S ** d
    G = F / F[:, :1]
    return S, G, np.max(np.abs(rows - G), axis=1)


def _newton(C: np.ndarray, d: int, rows: np.ndarray, S: np.ndarray,
            G: np.ndarray) -> np.ndarray:
    """One Newton step on a - G(a) in a_1 .. a_{q-1} for each row, with a_0 = 1
    held. Rows whose Jacobian is singular, or whose step leaves the guards,
    come back as NaN."""
    q = C.shape[0]
    # dG_k/da_j = d G_k (C[k, j]/S_k - C[0, j]/S_0)
    J = np.eye(q - 1) - d * G[:, 1:, None] * (
        C[1:, 1:] / S[:, 1:, None] - C[0, 1:] / S[:, :1, None])
    singular = ~(np.abs(np.linalg.det(J)) > 0.0)
    J[singular] = np.eye(q - 1)
    out = rows.copy()
    out[:, 1:] += np.linalg.solve(J, (G - rows)[:, 1:, None])[..., 0]
    inside = np.all((out > _LOWER_GUARD) & (out < _UPPER_GUARD), axis=1)
    out[singular | ~inside] = np.nan
    return out


def _label(a: np.ndarray, atol: float = 1e-6) -> str:
    if np.max(np.abs(a - 1.0)) <= atol:
        return BRANCH_TRIVIAL
    if len(a) == 2:
        return BRANCH_UPPER if a[1] > 1.0 else BRANCH_LOWER
    return BRANCH_OTHER


def _damped(C: np.ndarray, d: int, rows: np.ndarray, damping: float,
            max_iter: int, tol: float):
    """Damped iteration finished by Newton, on a batch of a_0 = 1 normalized
    starts, in place.

    Each row first takes ``_WARMUP`` damped updates
    a <- (1 - damping) a + damping G(a), which pull far starts towards a
    solution. After that, each update is the Newton step on a - G(a) in
    a_1 .. a_{q-1} (analytic Jacobian, solved for the whole batch) where that
    step stays inside the guards and lowers the residual, and the damped
    update elsewhere. Newton also lowers the residual towards a minimum that
    is not a root (the ghost of a solution pair just past a fold), where it
    would hold a row for the whole budget; so a row whose residual has not
    halved within ``_STALL`` updates takes damped updates alone until it
    does. A row stops once its residual is at most ``tol``, and then takes up
    to ``_POLISH`` more Newton steps, each kept only if the residual does not
    grow: next to a bifurcation the Jacobian is nearly singular, and a
    residual of 1e-10 can still leave an error of about 1e-7 in the law.

    Returns per-row update counts (damped and Newton updates before the row
    reached ``tol``; polish steps are not counted) and the diverged and
    budget-exhausted masks.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    n = len(rows)
    iters = np.full(n, max_iter + 1)
    converged = np.zeros(n, dtype=bool)
    diverged = np.zeros(n, dtype=bool)
    idx = np.arange(n)  # the rows still iterating, held in cur
    cur = rows.copy()
    ref = np.full(n, np.inf)  # residual at the row's last halving
    since = np.zeros(n, dtype=int)  # and the update it happened at
    for step in range(max_iter + 1):
        if not idx.size:
            break
        S, G, res = _fixed_point_map(C, d, cur)
        done = res <= tol
        halved = res <= 0.5 * ref
        ref = np.where(halved, res, ref)
        since = np.where(halved, step, since)
        nxt = (1.0 - damping) * cur + damping * G
        nxt /= nxt[:, :1]
        if step >= _WARMUP:
            live = np.flatnonzero(~done & (step - since < _STALL))
            if live.size:
                trial = _newton(C, d, cur[live], S[live], G[live])
                better = _fixed_point_map(C, d, trial)[2] < res[live]
                nxt[live[better]] = trial[better]
        bad = ~done & np.any((nxt <= _LOWER_GUARD) | (nxt >= _UPPER_GUARD), axis=1)
        stop = done | bad
        if stop.any():
            rows[idx[stop]] = np.where(done[:, None], cur, nxt)[stop]
            iters[idx[stop]] = step + bad[stop]
            converged[idx[done]] = True
            diverged[idx[bad]] = True
            keep = ~stop
            idx, nxt, ref, since = idx[keep], nxt[keep], ref[keep], since[keep]
        cur = nxt
    rows[idx] = cur
    conv = np.flatnonzero(converged)
    for _ in range(_POLISH):
        cur = rows[conv]
        S, G, res = _fixed_point_map(C, d, cur)
        trial = _newton(C, d, cur, S, G)
        keep = _fixed_point_map(C, d, trial)[2] <= res
        rows[conv[keep]] = trial[keep]
    return iters, diverged, ~(converged | diverged)


def fixed_point_solve(op: TransferOperator, q: int, d: int,
                      init, damping: float = 0.7,
                      max_iter: int = 5000, tol: float = 1e-12) -> SolveReport:
    """Solve from one start with the shared loop ``_damped``: ``_WARMUP``
    damped updates a <- (1 - damping) a + damping F(a)/F_0(a), then Newton
    steps where they lower the residual and damped updates elsewhere, and a
    Newton polish once the residual is at most ``tol``. ``iterations`` counts
    the damped and Newton updates taken before the residual reached ``tol``
    (``max_iter`` when it never did), not the polish steps.

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
    it = int(iters[0])
    if diverged[0]:
        raise Diverged(f"iterate left the admissible region after {it} steps")
    report = SolveReport(PeriodicBoundaryLaw.from_values(rows[0]),
                         float(_fixed_point_map(C, d, rows)[2][0]),
                         max_iter if running[0] else it, _label(rows[0]))
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


def _orbits(rows: np.ndarray) -> np.ndarray:
    """The 2q images a(k + s) and a(s - k) of each row, renormalized to
    a_0 = 1, row by row (2q consecutive images per source row)."""
    q = rows.shape[1]
    k = np.arange(q)
    perm = np.vstack([(k + s) % q for s in range(q)] + [(s - k) % q for s in range(q)])
    images = rows[:, perm].reshape(-1, q)
    return images / images[:, :1]


def _distinct(C: np.ndarray, d: int, rows: np.ndarray, tol: float,
              atol: float) -> list[int]:
    """Indices of the rows that stand for distinct branches. In row order, a
    row is dropped when it lies within ``atol`` of an earlier kept row, or
    when the residual at their midpoint is at most ``tol``; the scan is one
    array comparison per kept row."""
    keep = []
    left = np.arange(len(rows))
    while left.size:
        first, rest = left[0], left[1:]
        keep.append(int(first))
        near = np.max(np.abs(rows[rest] - rows[first]), axis=1) <= atol
        mid = _fixed_point_map(C, d, 0.5 * (rows[rest] + rows[first]))[2]
        left = rest[~(near | (mid <= tol))]
    return keep


def find_branches(op: TransferOperator, q: int, d: int, n_starts: int = 50,
                  damping: float = 0.7, max_iter: int = 5000, tol: float = 1e-10,
                  dedup_atol: float = 1e-6) -> list[SolveReport]:
    """Multi-start sweep; converged iterates and their symmetry images are
    merged into distinct branches.

    The starts run as one batch through ``_damped``. Diverged and unconverged
    starts are dropped silently; the trivial solution is always part of the
    result. C is circulant and symmetric, so every cyclic shift a(k + s) of a
    solution, and its reflection a(s - k), renormalized to a_0 = 1, solves
    the same equation: these images join the converged rows (with the
    ``iterations`` of their source), pass the same residual filter (at most
    ``tol``) and are merged with them. So do the laws ``find_branches`` finds
    at each proper divisor p of q, tiled to period q: the q-wrapped sums of a
    p-periodic law are its p-wrapped sums, so it solves the q-periodic
    equation too. Two rows count as one branch when they lie within
    ``dedup_atol`` of each other or the residual at their midpoint is at most
    ``tol``, which folds the rows Newton leaves in the flat residual well at a
    critical point onto one; the first row (starts, then their images, then
    the tiled laws) stands for its branch, and its ``iterations`` are the
    damped and Newton updates its start took (see ``_damped``). Reports are
    sorted by the law's values.
    """
    C = interaction_matrix(op, q)
    a = _default_inits(q, n_starts)
    iters, diverged, active = _damped(C, d, a, damping, max_iter, tol)
    conv = ~(diverged | active)
    rows = [a[conv], _orbits(a[conv])]
    its = [iters[conv], np.repeat(iters[conv], 2 * q)]
    for p in range(2, q):
        if q % p == 0:
            for rep in find_branches(op, p, d, n_starts, damping, max_iter, tol, dedup_atol):
                rows.append(np.tile(rep.solution.as_array(), q // p)[None])
                its.append([rep.iterations])
    rows, its = np.vstack(rows), np.concatenate(its)
    res = _fixed_point_map(C, d, rows)[2]
    ok = res <= tol
    rows, its, res = rows[ok], its[ok], res[ok]
    keep = sorted(_distinct(C, d, rows, tol, dedup_atol), key=lambda i: tuple(rows[i]))
    return [
        SolveReport(PeriodicBoundaryLaw.from_values(rows[i]), float(res[i]), int(its[i]),
                    _label(rows[i]))
        for i in keep
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
