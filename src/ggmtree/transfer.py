"""Integer-valued operators engineered to wrap onto finite clock models.

Any summable symmetric operator wraps mod q onto a reflection-symmetric
circulant over the residues, so its q-periodic boundary-law equation equals a
clock-model equation. The constructions here go the other way: build integer
operators whose wrap is exactly a q-state Potts row, either truncated to
|m| <= q // 2 or strictly positive with exponential tails.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bl_solver import grid_roots
from .errors import NonSummable
from .model import (
    LiftedPotts,
    LiftedPottsPositive,
    PeriodicBoundaryLaw,
    TransferOperator,
    wrapped_row,
)

__all__ = [
    "CirculantSpec",
    "lift_potts",
    "lift_potts_positive",
    "clock_reduction",
    "potts_row",
    "potts_boundary_laws",
]


@dataclass(frozen=True)
class CirculantSpec:
    """Wrapped operator values for residues 0 .. q//2; the remaining residues
    follow by reflection. The free dimension modulo an overall constant is
    q // 2."""

    q: int
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.q // 2 + 1:
            raise ValueError("need exactly q//2 + 1 values")
        if any(v < 0 for v in self.values):
            raise ValueError("wrapped values must be non-negative")

    @property
    def free_dimension(self) -> int:
        return self.q // 2

    def full_row(self) -> np.ndarray:
        row = np.empty(self.q)
        for r in range(self.q):
            row[r] = self.values[min(r, self.q - r)]
        return row


def potts_row(q: int, beta_tilde: float) -> np.ndarray:
    """The q-state Potts transfer row: diagonal weight e**bt, off-diagonal 1,
    normalized by e**bt + q - 1."""
    denom = np.exp(beta_tilde) + q - 1
    row = np.full(q, 1.0 / denom)
    row[0] = np.exp(beta_tilde) / denom
    return row


def lift_potts(q: int, beta_tilde: float) -> TransferOperator:
    """Truncated integer operator wrapping exactly onto the Potts row.

    The constructor re-checks the wrap residue by residue; for even q the
    shared residue q/2 is covered by both signs, which the operator absorbs
    by halving that entry.
    """
    op = LiftedPotts(q, beta_tilde)
    got = wrapped_row(op, q, method="numeric")
    want = potts_row(q, beta_tilde)
    if not np.allclose(got, want, rtol=0.0, atol=1e-14):
        raise NonSummable("lifted operator failed to reproduce the Potts row")
    return op


def lift_potts_positive(q: int, beta_tilde: float, tail_beta: float) -> TransferOperator:
    """Strictly positive lift; raises ``TailTooFat`` (with the minimal
    admissible rate) when the tail corrections exceed a central weight."""
    op = LiftedPottsPositive(q, beta_tilde, tail_beta)
    got = wrapped_row(op, q)
    want = potts_row(q, beta_tilde)
    if not np.allclose(got, want, rtol=0.0, atol=1e-12):
        raise NonSummable("positive lift failed to reproduce the Potts row")
    return op


def clock_reduction(op: TransferOperator, q: int) -> CirculantSpec:
    """Wrapped values of any operator as a clock-model transfer row."""
    row = wrapped_row(op, q)
    return CirculantSpec(q, tuple(float(row[r]) for r in range(q // 2 + 1)))


def potts_boundary_laws(q: int, beta_tilde: float, d: int) -> list[PeriodicBoundaryLaw]:
    """Boundary laws of the q-state Potts model with one distinguished class,
    l = (1, ..., 1, a), found by scalar bracketing. The trivial law is always
    included."""
    eb = float(np.exp(beta_tilde))

    def f(a: float) -> float:
        return ((q - 1.0 + eb * a) / (eb + q - 2.0 + a)) ** d - a

    laws = [PeriodicBoundaryLaw.trivial(q)]
    for r in grid_roots(f, np.logspace(-8.0, 8.0, 3001)):
        if abs(r - 1.0) <= 1e-9:
            continue
        if any(abs(r - law.a[-1]) <= 1e-9 for law in laws[1:]):
            continue
        laws.append(PeriodicBoundaryLaw(q, (1.0,) * (q - 1) + (r,)))
    return laws
