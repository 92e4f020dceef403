"""The multi-start solver for the q-periodic homogeneous boundary-law equation.

A q-periodic law a solves the tree recursion when a_k is proportional to
(sum_m C[k, m] a_m)**d for the wrapped interaction matrix C, with the constant
eliminated by the a_0 = 1 normalization. Laws span many decades at large q
and beta, so the solver works in x = log a, x_0 = 0, where the equation is
x = g(x), g_k(x) = d (log S_k - log S_0), S = C e**x. This module provides:

- the scale-free residual max_k |x_k - g_k(x)|, the one residual of the
  solver, its merge, its labels and its reports;
- one batched iteration loop, ``_damped``, behind the multi-start branch
  search: damped updates, then Newton steps on x - g(x), then a Newton polish;
- the branch search's closure under the cyclic shifts and the reflection of
  C, and its merge rule, which folds the rows lying in one flat residual well
  onto one branch;
- the closed-form period-2 reduction for the SOS model on the binary tree;
- the closed-form critical temperatures of the SOS family for periods 2, 3
  and 4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonSummable, UnsupportedDegree, UnsupportedPeriod
from .model import PeriodicBoundaryLaw, TransferOperator, interaction_matrix

__all__ = [
    "SolveReport",
    "residual",
    "find_branches",
    "closed_form_q2_sos",
    "critical_beta",
]

BRANCH_TRIVIAL = "trivial"
BRANCH_UPPER = "upper"
BRANCH_LOWER = "lower"
BRANCH_OTHER = "other"
BRANCHES = (BRANCH_TRIVIAL, BRANCH_UPPER, BRANCH_LOWER, BRANCH_OTHER)  # every branch_label

DAMPING = 0.7  # the weight of e**g(x) in a damped update
MAX_ITER = 5000  # updates each start may take before it counts as unconverged
TOL = 1e-10  # the residual every law is solved to
# damped updates each row takes before Newton steps: they pull the far starts
# (1e-4 and 1e4) towards a solution
_WARMUP = 8
# Newton steps taken by each row once its residual is at most tol
_POLISH = 2
# updates without the residual halving after which a row stops trying Newton
_STALL = 20
_MERGE = 1e-6  # laws this close in every entry of log a are one branch
_SEGMENT = (0.5, 0.25, 0.75)  # where a flat residual well joins two rows


@dataclass(frozen=True)
class SolveReport:
    solution: PeriodicBoundaryLaw
    residual: float
    iterations: int
    branch_label: str


def residual(law: PeriodicBoundaryLaw, op: TransferOperator, d: int) -> float:
    """Max-norm violation of the boundary-law equation in x = log a."""
    x = np.log(law.as_array())[None, :]
    return float(_log_map(interaction_matrix(op, law.q), d, x)[1][0])


def _log_map(C: np.ndarray, d: int, x: np.ndarray):
    """g(x) = d (log S - log S_0), S = C e**x, for each row x (x_0 = 0), with
    the residuals max |x - g(x)|, w = e**(x - max x) and S = C w. Shifting by
    the row's largest entry cancels in g, so no law overflows, and S is
    summed term by term, not by a matrix product, so a row gives the same
    bits alone and in any batch."""
    w = np.exp(x - x.max(axis=1, keepdims=True))
    S = sum(C[:, j] * w[:, j, None] for j in range(len(C)))
    log_s = np.log(S)
    g = d * (log_s - log_s[:, :1])
    return g, np.abs(x - g).max(axis=1), w, S


def _newton(C: np.ndarray, d: int, x: np.ndarray, g: np.ndarray, w: np.ndarray,
            S: np.ndarray) -> np.ndarray:
    """One Newton step on x - g(x) in x_1 .. x_{q-1} for each row, x_0 = 0
    held, from ``_log_map``'s g, w and S; NaN where the Jacobian is singular."""
    P = C * w[:, None, :] / S[:, :, None]  # C[k, j] a_j / S_k
    # dg_k/dx_j = d (P[k, j] - P[0, j])
    J = np.eye(len(C) - 1) - d * (P[:, 1:, 1:] - P[:, :1, 1:])
    singular = ~(np.abs(np.linalg.det(J)) > 0.0)
    J[singular] = np.eye(len(C) - 1)
    out = x.copy()
    out[:, 1:] += np.linalg.solve(J, (g - x)[:, 1:, None])[..., 0]
    out[singular] = np.nan
    return out


def _label(x: np.ndarray) -> str:
    if np.max(np.abs(x)) <= _MERGE:
        return BRANCH_TRIVIAL
    if len(x) == 2:
        return BRANCH_UPPER if x[1] > 0.0 else BRANCH_LOWER
    return BRANCH_OTHER


@np.errstate(all="ignore")  # non-finite rows diverge, and non-finite trials never win
def _damped(C: np.ndarray, d: int, rows: np.ndarray, damping: float,
            max_iter: int, tol: float):
    """Damped iteration finished by Newton, on a batch of starts x = log a
    with x_0 = 0, in place.

    Each row first takes ``_WARMUP`` damped updates
    a <- (1 - damping) a + damping e**g, which pull far starts towards a
    solution. After that, each update is the Newton step on x - g(x) in
    x_1 .. x_{q-1} where it lowers the residual, else half that step where
    that does, else the damped update. g is bounded (g_k lies within d times
    the range of log(C[k, m] / C[0, m])), so no update runs away, and a row
    diverges only when it stops being finite. Newton also lowers the
    residual towards a minimum that is not a root (the ghost of a solution
    pair just past a fold), where it would hold a row for the whole budget;
    so a row whose residual has not halved within ``_STALL`` updates takes
    damped updates alone until it does. A row stops once its residual is at
    most ``tol``, and then takes up to ``_POLISH`` more Newton steps, each
    kept only if the residual does not grow: next to a bifurcation the
    Jacobian is nearly singular, and a residual of 1e-10 can still leave an
    error of about 1e-7 in the law.

    Returns per-row update counts (damped and Newton updates before the row
    reached ``tol``; polish steps are not counted) and the diverged and
    budget-exhausted masks.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    n, q = rows.shape
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
        g, res, w, S = _log_map(C, d, cur)
        done = res <= tol
        halved = res <= 0.5 * ref
        ref = np.where(halved, res, ref)
        since = np.where(halved, step, since)
        # a <- (1 - damping) a + damping e**g, put back to a_0 = 1
        nxt = np.logaddexp(math.log1p(-damping) + cur, math.log(damping) + g)
        nxt -= nxt[:, :1]
        if step >= _WARMUP:
            live = np.flatnonzero(~done & (step - since < _STALL))
            if live.size:
                full = _newton(C, d, cur[live], g[live], w[live], S[live])
                trials = np.stack([full, 0.5 * (cur[live] + full)])
                lower = _log_map(C, d, trials.reshape(-1, q))[1].reshape(2, -1) < res[live]
                lower[1] &= ~lower[0]  # the half step where the whole one fails
                for trial, ok in zip(trials, lower):
                    nxt[live[ok]] = trial[ok]
        bad = ~done & ~np.isfinite(nxt).all(axis=1)
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
        g, res, w, S = _log_map(C, d, cur)
        trial = _newton(C, d, cur, g, w, S)
        keep = _log_map(C, d, trial)[1] <= res
        rows[conv[keep]] = trial[keep]
    return iters, diverged, ~(converged | diverged)


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
    """The 2q images x(k + s) and x(s - k) of each row of log a, put back to
    x_0 = 0, row by row (2q consecutive images per source row)."""
    q = rows.shape[1]
    k = np.arange(q)
    perm = np.vstack([(k + s) % q for s in range(q)] + [(s - k) % q for s in range(q)])
    images = rows[:, perm].reshape(-1, q)
    return images - images[:, :1]


def _distinct(C: np.ndarray, d: int, rows: np.ndarray, tol: float) -> list[int]:
    """Indices of the rows of log a that stand for distinct branches. In row
    order, a row is dropped when it lies within ``_MERGE`` of an earlier kept
    row in every entry, or when the residual is at most ``tol`` at each of
    the points ``_SEGMENT`` of the way between them. The midpoint alone
    would not do: the midpoint in x of a law and its image under a -> 1/a,
    such as the q = 2 pair (1, u) and (1, 1/u), is the trivial law."""
    keep = []
    left = np.arange(len(rows))
    while left.size:
        first, rest = left[0], left[1:]
        keep.append(int(first))
        rest = rest[np.abs(rows[rest] - rows[first]).max(axis=1) > _MERGE]
        joined = rest
        for t in _SEGMENT:
            if joined.size:
                point = rows[first] + t * (rows[joined] - rows[first])
                joined = joined[_log_map(C, d, point)[1] <= tol]
        left = rest[~np.isin(rest, joined)]
    return keep


def find_branches(op: TransferOperator, q: int, d: int, n_starts: int = 50,
                  tol: float = TOL) -> list[SolveReport]:
    """Multi-start sweep; converged iterates and their symmetry images are
    merged into distinct branches.

    The starts run as one batch through ``_damped``, in x = log a, with
    ``DAMPING`` and at most ``MAX_ITER`` updates each. Diverged and
    unconverged starts are dropped silently; the trivial solution is always
    part of the result. C is circulant and symmetric, so every cyclic shift
    a(k + s) of a solution, and its reflection a(s - k), renormalized to
    a_0 = 1, solves the same equation: these images join the converged rows
    (with the ``iterations`` of their source). So do the laws
    ``find_branches`` finds at each proper divisor p of q, tiled to period q:
    the q-wrapped sums of a p-periodic law are its p-wrapped sums. Each row
    is judged as the law e**x it reports, at its log, so its residual is
    ``residual`` of the printed law: rows above ``tol`` are dropped, and
    ``_distinct`` merges the rest. The first row (starts, then their images,
    then the tiled laws) stands for its branch, and its ``iterations`` are
    the damped and Newton updates its start took. Reports are sorted by the
    law's values. ``NonSummable`` reports a map that overflows at the
    trivial law: (C 1)**d is not finite.
    """
    C = interaction_matrix(op, q)
    with np.errstate(over="ignore"):
        if not np.isfinite(C.sum(axis=1) ** d).all():
            raise NonSummable(f"the boundary-law map of {op!r} overflows at q = {q}, "
                              f"d = {d}: (C 1)**d is not finite")
    x = np.log(_default_inits(q, n_starts))
    iters, diverged, active = _damped(C, d, x, DAMPING, MAX_ITER, tol)
    conv = ~(diverged | active)
    rows = [x[conv], _orbits(x[conv])]
    its = [iters[conv], np.repeat(iters[conv], 2 * q)]
    for p in range(2, q):
        if q % p == 0:
            for rep in find_branches(op, p, d, n_starts, tol):
                rows.append(np.tile(np.log(rep.solution.as_array()), q // p)[None])
                its.append([rep.iterations])
    laws, its = np.exp(np.vstack(rows)), np.concatenate(its)
    x = np.log(laws)
    res = _log_map(C, d, x)[1]
    ok = res <= tol
    laws, x, its, res = laws[ok], x[ok], its[ok], res[ok]
    keep = sorted(_distinct(C, d, x, tol), key=lambda i: tuple(laws[i]))
    return [
        SolveReport(PeriodicBoundaryLaw.from_values(laws[i]), float(res[i]), int(its[i]),
                    _label(x[i]))
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


def critical_beta(q: int, d: int) -> float:
    """Onset of multiple q-periodic boundary laws for the SOS family.

    Setting the effective temperature to the Ising threshold atanh(1/d), or
    to log(1 + 2 sqrt(2)) for the 3-state Potts model on the binary tree,
    gives cosh(beta) = (d + 1)/(d - 1) for q = 2, 1 + sqrt(2) for q = 3 and
    d/(d - 1) for q = 4 with the paired ansatz.
    """
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
