"""Core domain types: increment potentials, periodic boundary laws, tree volumes.

Heights live on the vertices of a regular tree, but everything here is phrased
in terms of integer height increments along directed edges. A potential
assigns a positive summable weight Q(m) to an increment m, a boundary law is a
positive q-periodic vector normalized to a[0] = 1, and a volume is a closed
ball whose outermost level is its boundary. ``grid_roots`` is the one
scalar root finder; the lifted Potts operator's tail check calls it.

The four potential kinds are SOS, the discrete Gaussian, a table, and the
lifted Potts operator, with or without an exponential tail. ``wrapped_sum``
folds a potential onto the residues mod q, in closed form for SOS and for a
lift at its own period, and otherwise by one certified summation.

``cayley_ball`` numbers the ball level by level from its centre, vertex 0,
and the ball is its degree and the index range of each level, so the
library walks it a level at a time: the parent of the j-th vertex of level
k >= 2 is the (j // d)-th of level k - 1, and vertex 0 that of level 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NonSummable, TailTooFat

__all__ = [
    "SOS",
    "DiscreteGaussian",
    "Table",
    "LiftedPotts",
    "TransferOperator",
    "eval_q",
    "tail_mass",
    "wrapped_sum",
    "wrapped_row",
    "interaction_matrix",
    "PeriodicBoundaryLaw",
    "IncrementWindow",
    "FiniteTreeVolume",
    "cayley_ball",
    "potential_to_json",
    "potential_from_json",
    "model_to_json",
    "model_from_json",
]

_LOG_MAX = math.log(sys.float_info.max)  # the largest x whose exp(x) is finite
WINDOW_BOUND = 1e-12  # the tail mass a certified window may drop from each kernel row
MAX_CUTOFF = 100_000  # the widest certified window, past which a model is not summable


# ---------------------------------------------------------------------------
# increment potentials


@dataclass(frozen=True)
class SOS:
    """Solid-on-solid weights Q(m) = exp(-beta * |m|)."""

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("SOS beta must be finite and positive")


@dataclass(frozen=True)
class DiscreteGaussian:
    """Discrete Gaussian weights Q(m) = exp(-beta * m**2)."""

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("DiscreteGaussian beta must be finite and positive")


@dataclass(frozen=True)
class Table:
    """Tabulated symmetric weights, optionally continued by a geometric tail.

    ``values[k]`` is Q(k) = Q(-k) for k up to the table edge. With a tail
    ratio r in (0, 1) the weights continue as ``values[-1] * r**(|m| - edge)``
    beyond the table; without a tail they are zero there.
    """

    values: tuple[float, ...]
    tail: float | None = None

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("Table needs at least the m=0 weight")
        if not all(0 < v < math.inf for v in self.values):
            raise ValueError("Table weights must be finite and positive")
        if self.tail is not None and not 0 < self.tail < 1:
            raise ValueError("Table tail ratio must lie in (0, 1)")

    @classmethod
    def from_map(cls, weights: Mapping[int, float], tail: float | None = None) -> "Table":
        edge = max((abs(int(m)) for m in weights), default=-1)
        vals = []
        for k in range(edge + 1):
            pos, neg = weights.get(k), weights.get(-k)
            if pos is None and neg is None:
                raise ValueError(f"Table map is missing |m| = {k}")
            if pos is not None and neg is not None and pos != neg:
                raise ValueError("Table map must be symmetric in m")
            vals.append(float(pos if pos is not None else neg))
        return cls(tuple(vals), tail)


@dataclass(frozen=True)
class LiftedPotts:
    """Integer operator whose mod-q wrap is exactly a q-state Potts row.

    Each central weight, |m| <= q // 2, is the Potts row value of its residue
    minus the tail mass wrapping onto the same residue, split evenly when +q/2
    and -q/2 share a residue. Without ``tail_beta`` there is no tail and the
    operator is supported on the centre; with it the weights continue as
    exp(-tail_beta * |m|), and ``TailTooFat`` reports a tail too fat for some
    central weight to stay positive.
    """

    q: int
    beta_tilde: float
    tail_beta: float | None = None

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("LiftedPotts needs q >= 2")
        if not 0 <= self.beta_tilde < math.inf:
            raise ValueError("LiftedPotts beta_tilde must be finite and >= 0")
        if self.beta_tilde > _LOG_MAX:
            raise ValueError(f"LiftedPotts beta_tilde must be at most {_LOG_MAX}, beyond "
                             "which exp(beta_tilde) overflows")
        if self.tail_beta is not None and not 0 < self.tail_beta < math.inf:
            raise ValueError("LiftedPotts tail_beta must be finite and positive")
        central = _potts_central(self.q, self.beta_tilde, self.tail_beta)
        if min(central) <= 0.0:
            # the smallest central weight increases with the tail rate, so
            # admissibility changes sign once; grid_roots returns the last
            # float before it does
            def admissible(t: float) -> float:
                weight = min(_potts_central(self.q, self.beta_tilde, t))
                return 1.0 if weight > 0.0 else -1.0

            roots = grid_roots(admissible, np.geomspace(self.tail_beta, 1e6, 400))
            if not roots:
                raise TailTooFat("no admissible tail rate found")
            lowest = math.nextafter(roots[0], math.inf)
            raise TailTooFat(
                f"tail_beta={self.tail_beta} makes a central weight non-positive; "
                f"minimal admissible tail_beta is about {lowest:.6f}",
                min_tail_beta=lowest,
            )
        object.__setattr__(self, "_central", tuple(central))


def _tail_gap(x: float, what) -> float:
    """1 - x for the ratio x = exp(-rate) of a geometric tail of ``what``:
    the sum's denominator. ``NonSummable`` where x rounds to 1, for a rate
    below about 1.1e-16, where the sum has no finite value."""
    if x == 1.0:
        raise NonSummable(f"the geometric tail of {what} has a ratio that rounds to 1, "
                          "so its sum is not finite")
    return 1.0 - x


def _potts_row_value(q: int, beta_tilde: float, residue: int) -> float:
    denom = math.exp(beta_tilde) + q - 1
    return (math.exp(beta_tilde) if residue % q == 0 else 1.0) / denom


def _potts_tail_wrap(q: int, tail_beta: float | None, k: int) -> float:
    # Mass of the exponential tail members sitting on the residue class of k,
    # for 0 <= k <= q//2. The member at -k is central when q is even, k = q/2.
    if tail_beta is None:
        return 0.0
    h = q // 2
    geo = _tail_gap(math.exp(-tail_beta * q), f"LiftedPotts(tail_beta={tail_beta})")
    pos = math.exp(-tail_beta * (q + k)) / geo
    j0 = 1 if (q - k) > h else 2
    neg = math.exp(-tail_beta * (q * j0 - k)) / geo
    return pos + neg


def _potts_central(q: int, beta_tilde: float, tail_beta: float | None) -> list[float]:
    # +k and -k are one central member each, except k = q/2 (q even) which
    # is both members of its residue
    return [(_potts_row_value(q, beta_tilde, k) - _potts_tail_wrap(q, tail_beta, k))
            / (2 if 2 * k == q else 1) for k in range(q // 2 + 1)]


TransferOperator = SOS | DiscreteGaussian | Table | LiftedPotts


def eval_q(op: TransferOperator, m: int) -> float:
    """Weight Q(m) of a single increment."""
    k = abs(int(m))
    if isinstance(op, SOS):
        return math.exp(-op.beta * k)
    if isinstance(op, DiscreteGaussian):
        return math.exp(-op.beta * k * k)
    if isinstance(op, Table):
        edge = len(op.values) - 1
        if k <= edge:
            return op.values[k]
        if op.tail is None:
            return 0.0
        return op.values[edge] * op.tail ** (k - edge)
    if isinstance(op, LiftedPotts):
        if k <= op.q // 2:
            return op._central[k]
        return 0.0 if op.tail_beta is None else math.exp(-op.tail_beta * k)
    raise TypeError(f"unknown transfer operator {op!r}")


def tail_mass(op: TransferOperator, start: int) -> float:
    """Upper bound on the total weight of increments with |m| >= start >= 1."""
    if start < 1:
        raise ValueError("tail starts at |m| >= 1")
    if isinstance(op, SOS):
        x = math.exp(-op.beta)
        return 2.0 * x**start / _tail_gap(x, op)
    if isinstance(op, DiscreteGaussian):
        # ratio between consecutive terms is below exp(-beta * (2*start + 1))
        r = math.exp(-op.beta * (2 * start + 1))
        return 2.0 * math.exp(-op.beta * start * start) / _tail_gap(r, op)
    if isinstance(op, Table):
        edge = len(op.values) - 1
        exact = 2.0 * sum(op.values[k] for k in range(start, edge + 1))
        if op.tail is None:
            return exact
        s = max(start, edge + 1)
        return exact + 2.0 * op.values[edge] * op.tail ** (s - edge) / (1.0 - op.tail)
    if isinstance(op, LiftedPotts):
        h = op.q // 2
        exact = 2.0 * sum(op._central[k] for k in range(start, h + 1))
        if op.tail_beta is None:
            return exact
        x = math.exp(-op.tail_beta)
        return exact + 2.0 * x ** max(start, h + 1) / _tail_gap(x, op)
    raise TypeError(f"unknown transfer operator {op!r}")


def wrapped_sum(op: TransferOperator, q: int, m: int) -> float:
    """Total weight of the residue class m mod q: sum of Q(q*j + m) over j.

    SOS has a closed hyperbolic form, and a lifted Potts operator wrapped at
    its own period gives its central member(s) plus their tail wrap. Other
    cases are summed by ``_certified_wrapped_sum``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    m = m % q
    if isinstance(op, SOS):
        x = math.exp(-op.beta * q)
        gap = _tail_gap(x, op)
        if m == 0:
            return (1.0 + x) / gap
        return (math.exp(-op.beta * m) + math.exp(-op.beta * (q - m))) / gap
    if isinstance(op, LiftedPotts) and q == op.q:
        k = min(m, q - m)
        members = 2 if 2 * k == q else 1
        return members * op._central[k] + _potts_tail_wrap(q, op.tail_beta, k)
    return _certified_wrapped_sum(op, q, m)


_WRAP_TOL = 1e-14  # the neglected tail of a certified wrapped sum is below half this


def _certified_wrapped_sum(op: TransferOperator, q: int, m: int) -> float:
    """Sum of Q(q*j + m) over the j with |q*j + m| <= cutoff, the cutoff
    doubled until ``tail_mass`` certifies the rest below ``_WRAP_TOL / 2``."""
    cutoff = 1
    while tail_mass(op, cutoff) > 0.5 * _WRAP_TOL:
        cutoff *= 2
        if cutoff > 10**7:
            raise NonSummable(f"cannot certify wrapped sum of {op!r} to tol={_WRAP_TOL}")
    j_lo = math.ceil((-cutoff - m) / q)
    j_hi = math.floor((cutoff - m) / q)
    total = float(sum(eval_q(op, q * j + m) for j in range(j_lo, j_hi + 1)))
    if not math.isfinite(total):
        raise NonSummable(f"the wrapped sum of {op!r} at residue {m} mod {q} overflows")
    return total


def wrapped_row(op: TransferOperator, q: int) -> np.ndarray:
    """Vector of wrapped sums for residues 0 .. q-1."""
    return np.array([wrapped_sum(op, q, m) for m in range(q)])


def interaction_matrix(op: TransferOperator, q: int) -> np.ndarray:
    """Symmetric circulant C[k, m] = wrapped_sum(op, q, (k - m) mod q)."""
    row = wrapped_row(op, q)
    idx = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    return row[idx]


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


# ---------------------------------------------------------------------------
# boundary laws


@dataclass(frozen=True)
class PeriodicBoundaryLaw:
    """Positive q-periodic boundary law normalized so that a[0] = 1."""

    q: int
    a: tuple[float, ...]

    def __post_init__(self):
        if self.q < 1 or len(self.a) != self.q:
            raise ValueError("law must carry exactly q entries")
        if any(not v > 0 for v in self.a):
            raise ValueError("law entries must be strictly positive")
        if self.a[0] != 1.0:
            raise ValueError("law must be normalized to a[0] = 1")

    @classmethod
    def trivial(cls, q: int) -> "PeriodicBoundaryLaw":
        return cls(q, (1.0,) * q)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "PeriodicBoundaryLaw":
        vals = [float(v) for v in values]
        return cls(len(vals), tuple(v / vals[0] for v in vals))

    def as_array(self) -> np.ndarray:
        return np.array(self.a)


# ---------------------------------------------------------------------------
# truncation windows


@dataclass(frozen=True)
class IncrementWindow:
    """Certified truncation of increment sums to |m| <= cutoff.

    ``tail_mass_bound`` bounds the neglected kernel-row mass, i.e. the tail of
    Q weighted by the largest boundary-law entry and divided by the smallest
    one-step normalizer.
    """

    cutoff: int
    tail_mass_bound: float

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if not self.tail_mass_bound > 0:
            raise ValueError("tail_mass_bound must be positive")

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    @classmethod
    def for_model(cls, op: TransferOperator, law: PeriodicBoundaryLaw) -> "IncrementWindow":
        """Smallest window whose weighted tail mass is certified below
        ``WINDOW_BOUND``, of cutoff at most ``MAX_CUTOFF``; an untailed
        lifted Potts operator gets its whole support."""
        if isinstance(op, LiftedPotts) and op.tail_beta is None:
            return cls(op.q // 2, WINDOW_BOUND)
        scale = _tail_scale(op, law)
        cutoff = 1
        while tail_mass(op, cutoff + 1) * scale > WINDOW_BOUND:
            cutoff += 1
            if cutoff > MAX_CUTOFF:
                raise NonSummable(f"no window of size <= {MAX_CUTOFF} certifies {WINDOW_BOUND}")
        return cls(cutoff, WINDOW_BOUND)

    @classmethod
    def manual(cls, op: TransferOperator, cutoff: int,
               law: PeriodicBoundaryLaw) -> "IncrementWindow":
        """Window with a user-chosen cutoff; the declared bound is the actual tail."""
        actual = tail_mass(op, cutoff + 1) * _tail_scale(op, law)
        return cls(cutoff, max(actual, 1e-300))


def _tail_scale(op: TransferOperator, law: PeriodicBoundaryLaw) -> float:
    a = law.as_array()
    norms = interaction_matrix(op, law.q) @ a
    return float(a.max() / norms.min())


# ---------------------------------------------------------------------------
# tree volumes

class FiniteTreeVolume:
    """Closed ball of the d-regular tree around vertex 0, built by
    ``cayley_ball``: its degree ``d`` and level starts ``starts``. Level k,
    the vertices at distance k from vertex 0, is the index range
    ``starts[k]:starts[k + 1]``; the last level is the boundary, which
    carries the boundary-law factor, and the others are interior. A vertex's
    children are consecutive: the d + 1 of vertex 0 are level 1, and the d
    of the j-th vertex of level k >= 1 start at the (j d)-th of level k + 1.
    Edge v - 1, the edge into v, is stored away from vertex 0.
    """

    def __init__(self, d: int, starts: tuple[int, ...]):
        self.d = d
        self.starts = starts

    @property
    def n_vertices(self) -> int:
        return self.starts[-1]

    @property
    def n_edges(self) -> int:
        return self.n_vertices - 1


def cayley_ball(d: int, radius: int) -> FiniteTreeVolume:
    """Closed ball of the d-regular tree: the root has d + 1 children, every
    other interior vertex has d, and the outermost layer is the boundary.
    Vertices are numbered level by level, and no array is built."""
    if d < 2:
        raise ValueError("branching degree d must be >= 2")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    starts = [0, 1]
    for k in range(radius):
        starts.append(starts[-1] + (d + 1) * d ** k)
    return FiniteTreeVolume(d, tuple(starts))


# ---------------------------------------------------------------------------
# JSON model descriptions


def potential_to_json(op: TransferOperator) -> dict:
    if isinstance(op, SOS):
        return {"kind": "sos", "beta": op.beta}
    if isinstance(op, DiscreteGaussian):
        return {"kind": "discrete_gaussian", "beta": op.beta}
    if isinstance(op, Table):
        doc = {"kind": "table", "weights": {str(k): v for k, v in enumerate(op.values)}}
        if op.tail is not None:
            doc["tail"] = op.tail
        return doc
    if isinstance(op, LiftedPotts):
        doc = {"kind": "lifted_potts", "q": op.q, "beta_tilde": op.beta_tilde}
        if op.tail_beta is not None:
            doc["tail_beta"] = op.tail_beta
        return doc
    raise TypeError(f"unknown transfer operator {op!r}")


def _integer(doc: Mapping, key: str) -> int:
    """doc[key] as an int. int() truncates a float and reads a bool as 0 or
    1, so a q of 2.7 or true would silently run as 2 or 1."""
    value = doc[key]
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def potential_from_json(doc: Mapping) -> TransferOperator:
    try:
        kind = doc["kind"]
    except (TypeError, KeyError):
        raise ValueError("potential description needs a 'kind' field") from None
    if kind == "sos":
        return SOS(float(doc["beta"]))
    if kind == "discrete_gaussian":
        return DiscreteGaussian(float(doc["beta"]))
    if kind == "table":
        weights = {int(k): float(v) for k, v in doc["weights"].items()}
        tail = doc.get("tail")
        return Table.from_map(weights, None if tail is None else float(tail))
    if kind == "lifted_potts":
        tail = float(doc["tail_beta"]) if "tail_beta" in doc else None
        return LiftedPotts(_integer(doc, "q"), float(doc["beta_tilde"]), tail)
    raise ValueError(f"unknown potential kind {kind!r}")


def model_to_json(op: TransferOperator, q: int, d: int) -> dict:
    return {"potential": potential_to_json(op), "q": int(q), "d": int(d)}


def model_from_json(doc: Mapping) -> tuple[TransferOperator, int, int]:
    for key in ("potential", "q", "d"):
        if key not in doc:
            raise ValueError(f"model description is missing {key!r}")
    q, d = _integer(doc, "q"), _integer(doc, "d")
    if q < 1:
        raise ValueError("period q must be >= 1")
    if d < 2:
        raise ValueError("branching degree d must be >= 2")
    return potential_from_json(doc["potential"]), q, d
