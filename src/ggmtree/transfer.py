"""Integer-valued operators engineered to wrap onto finite clock models.

Any summable symmetric operator wraps mod q onto a reflection-symmetric
circulant over the residues, so its q-periodic boundary-law equation equals a
clock-model equation. The constructions here go the other way: build integer
operators whose wrap is exactly a q-state Potts row: ``lift_potts`` builds
the one lifted kind, ``LiftedPotts``, truncated to |m| <= q // 2 or, with a
tail rate, strictly positive with exponential tails. ``potts_row`` reads the
row from the same formula the lifted operator is built from.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonSummable
from .model import (
    LiftedPotts,
    PeriodicBoundaryLaw,
    TransferOperator,
    _certified_wrapped_sum,
    _potts_row_value,
    grid_roots,
    wrapped_row,
)

__all__ = [
    "CirculantSpec",
    "lift_potts",
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


def potts_row(q: int, beta_tilde: float) -> np.ndarray:
    """The q-state Potts transfer row: diagonal weight e**bt, off-diagonal 1,
    normalized by e**bt + q - 1."""
    return np.array([_potts_row_value(q, beta_tilde, r) for r in range(q)])


def lift_potts(q: int, beta_tilde: float, tail_beta: float | None = None) -> TransferOperator:
    """Integer operator wrapping exactly onto the Potts row: truncated to
    |m| <= q // 2, or strictly positive with tail rate ``tail_beta``.

    Raises ``TailTooFat`` (with the minimal admissible rate) when the tail
    corrections exceed a central weight. The wrap is re-checked residue by
    residue by certified summation, independently of the closed form that
    ``wrapped_sum`` uses.
    """
    op = LiftedPotts(q, beta_tilde, tail_beta)
    got = np.array([_certified_wrapped_sum(op, q, m) for m in range(q)])
    if not np.allclose(got, potts_row(q, beta_tilde), rtol=0.0, atol=1e-14):
        raise NonSummable("lifted operator failed to reproduce the Potts row")
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
