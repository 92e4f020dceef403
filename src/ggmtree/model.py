"""Core domain types: increment potentials, periodic boundary laws, tree volumes.

Heights live on the vertices of a regular tree, but everything here is phrased
in terms of integer height increments along directed edges. A potential
assigns a positive summable weight Q(m) to an increment m, a boundary law is a
positive q-periodic vector normalized to a[0] = 1, and a volume is a finite
rooted subtree with a marked outer boundary layer. ``grid_roots`` is the one
scalar root finder, shared with the boundary-law solver and the Potts lifts.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import NonSummable, TailTooFat

__all__ = [
    "SOS",
    "DiscreteGaussian",
    "Table",
    "LiftedPotts",
    "LiftedPottsPositive",
    "TransferOperator",
    "eval_q",
    "tail_mass",
    "total_mass",
    "wrapped_sum",
    "wrapped_row",
    "interaction_matrix",
    "PeriodicBoundaryLaw",
    "IncrementWindow",
    "FiniteTreeVolume",
    "cayley_ball",
    "path_volume",
    "GradientConfiguration",
    "vertex_layers",
    "vertex_heights",
    "potential_to_json",
    "potential_from_json",
    "model_to_json",
    "model_from_json",
]


# ---------------------------------------------------------------------------
# increment potentials


@dataclass(frozen=True)
class SOS:
    """Solid-on-solid weights Q(m) = exp(-beta * |m|)."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("SOS beta must be positive")


@dataclass(frozen=True)
class DiscreteGaussian:
    """Discrete Gaussian weights Q(m) = exp(-beta * m**2)."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("DiscreteGaussian beta must be positive")


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
        if any(v <= 0 for v in self.values):
            raise ValueError("Table weights must be positive")
        if self.tail is not None and not 0 < self.tail < 1:
            raise ValueError("Table tail ratio must lie in (0, 1)")

    @classmethod
    def from_map(cls, weights: Mapping[int, float], tail: float | None = None) -> "Table":
        ms = sorted(abs(int(m)) for m in weights)
        edge = ms[-1]
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
    """Truncated operator whose mod-q wrap is exactly a q-state Potts row.

    Supported on |m| <= q // 2. For even q the residue q/2 is reached by both
    +q/2 and -q/2, so that entry carries half the Potts weight and the wrapped
    row stays exact.
    """

    q: int
    beta_tilde: float

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("LiftedPotts needs q >= 2")
        if self.beta_tilde < 0:
            raise ValueError("LiftedPotts beta_tilde must be >= 0")


@dataclass(frozen=True)
class LiftedPottsPositive:
    """Strictly positive operator wrapping to a q-state Potts row.

    Beyond |m| = q // 2 the weights are exp(-tail_beta * |m|). Each central
    entry is the Potts row value of its residue minus the tail mass wrapping
    onto the same residue, split evenly when +q/2 and -q/2 share a residue.
    """

    q: int
    beta_tilde: float
    tail_beta: float

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("LiftedPottsPositive needs q >= 2")
        if self.beta_tilde < 0:
            raise ValueError("LiftedPottsPositive beta_tilde must be >= 0")
        if not self.tail_beta > 0:
            raise ValueError("LiftedPottsPositive tail_beta must be positive")
        central = _potts_positive_central(self.q, self.beta_tilde, self.tail_beta)
        if min(central) <= 0.0:
            # the smallest central weight increases with the tail rate, so
            # admissibility changes sign once; grid_roots returns the last
            # float before it does
            def admissible(t: float) -> float:
                weight = min(_potts_positive_central(self.q, self.beta_tilde, t))
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


def _potts_row_value(q: int, beta_tilde: float, residue: int) -> float:
    denom = math.exp(beta_tilde) + q - 1
    return (math.exp(beta_tilde) if residue % q == 0 else 1.0) / denom


def _potts_positive_tail_wrap(q: int, tail_beta: float, k: int) -> float:
    # Mass of the exponential tail members sitting on the residue class of k,
    # for 0 <= k <= q//2. The member at -k is central when q is even, k = q/2.
    h = q // 2
    geo = 1.0 - math.exp(-tail_beta * q)
    pos = math.exp(-tail_beta * (q + k)) / geo
    j0 = 1 if (q - k) > h else 2
    neg = math.exp(-tail_beta * (q * j0 - k)) / geo
    return pos + neg


def _potts_positive_central(q: int, beta_tilde: float, tail_beta: float) -> list[float]:
    h = q // 2
    central = []
    for k in range(h + 1):
        members = 2 if (q % 2 == 0 and k == h and k > 0) else 1
        target = _potts_row_value(q, beta_tilde, k)
        psi = _potts_positive_tail_wrap(q, tail_beta, k)
        central.append((target - psi) / members)
    return central


TransferOperator = SOS | DiscreteGaussian | Table | LiftedPotts | LiftedPottsPositive


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
        h = op.q // 2
        if k > h:
            return 0.0
        if k == 0:
            return _potts_row_value(op.q, op.beta_tilde, 0)
        halve = 2 if (op.q % 2 == 0 and k == h) else 1
        return _potts_row_value(op.q, op.beta_tilde, k) / halve
    if isinstance(op, LiftedPottsPositive):
        h = op.q // 2
        if k <= h:
            return op._central[k]
        return math.exp(-op.tail_beta * k)
    raise TypeError(f"unknown transfer operator {op!r}")


def tail_mass(op: TransferOperator, start: int) -> float:
    """Upper bound on the total weight of increments with |m| >= start >= 1."""
    if start < 1:
        raise ValueError("tail starts at |m| >= 1")
    if isinstance(op, SOS):
        x = math.exp(-op.beta)
        return 2.0 * x**start / (1.0 - x)
    if isinstance(op, DiscreteGaussian):
        # ratio between consecutive terms is below exp(-beta * (2*start + 1))
        r = math.exp(-op.beta * (2 * start + 1))
        return 2.0 * math.exp(-op.beta * start * start) / (1.0 - r)
    if isinstance(op, Table):
        edge = len(op.values) - 1
        exact = 2.0 * sum(op.values[k] for k in range(start, edge + 1))
        if op.tail is None:
            return exact
        s = max(start, edge + 1)
        return exact + 2.0 * op.values[edge] * op.tail ** (s - edge) / (1.0 - op.tail)
    if isinstance(op, LiftedPotts):
        h = op.q // 2
        return 2.0 * sum(eval_q(op, k) for k in range(start, h + 1))
    if isinstance(op, LiftedPottsPositive):
        h = op.q // 2
        exact = 2.0 * sum(op._central[k] for k in range(start, h + 1))
        s = max(start, h + 1)
        x = math.exp(-op.tail_beta)
        return exact + 2.0 * x**s / (1.0 - x)
    raise TypeError(f"unknown transfer operator {op!r}")


def wrapped_sum(op: TransferOperator, q: int, m: int, tol: float = 1e-14,
                method: str = "auto") -> float:
    """Total weight of the residue class m mod q: sum of Q(q*j + m) over j.

    Closed hyperbolic forms are used for SOS and Potts-type operators; other
    kinds are summed numerically with a certified geometric tail bound.
    ``method="numeric"`` forces the summation path (used for cross-checks).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    m = m % q
    if method not in ("auto", "numeric"):
        raise ValueError("method must be 'auto' or 'numeric'")
    if method == "auto":
        if isinstance(op, SOS):
            x = math.exp(-op.beta * q)
            if m == 0:
                return (1.0 + x) / (1.0 - x)
            return (math.exp(-op.beta * m) + math.exp(-op.beta * (q - m))) / (1.0 - x)
        if isinstance(op, LiftedPotts) and q == op.q:
            return _potts_row_value(q, op.beta_tilde, m)
        if isinstance(op, LiftedPottsPositive) and q == op.q:
            h = q // 2
            k = m if m <= h else q - m
            members = 2 if (q % 2 == 0 and k == h and k > 0) else 1
            return members * op._central[k] + _potts_positive_tail_wrap(q, op.tail_beta, k)
    # numeric path with certified truncation
    cutoff = 1
    while tail_mass(op, cutoff) > 0.5 * tol:
        cutoff *= 2
        if cutoff > 10**7:
            raise NonSummable(f"cannot certify wrapped sum of {op!r} to tol={tol}")
    j_lo = math.ceil((-cutoff - m) / q)
    j_hi = math.floor((cutoff - m) / q)
    return float(sum(eval_q(op, q * j + m) for j in range(j_lo, j_hi + 1)))


def wrapped_row(op: TransferOperator, q: int, tol: float = 1e-14,
                method: str = "auto") -> np.ndarray:
    """Vector of wrapped sums for residues 0 .. q-1."""
    return np.array([wrapped_sum(op, q, m, tol, method) for m in range(q)])


def interaction_matrix(op: TransferOperator, q: int, tol: float = 1e-14) -> np.ndarray:
    """Symmetric circulant C[k, m] = wrapped_sum(op, q, (k - m) mod q)."""
    row = wrapped_row(op, q, tol)
    idx = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    return row[idx]


def total_mass(op: TransferOperator, tol: float = 1e-14) -> float:
    """Sum of Q(m) over all integers m."""
    return wrapped_sum(op, 1, 0, tol)


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

    def shifted(self, j: int) -> "PeriodicBoundaryLaw":
        """Cyclic shift l(i) -> l(i + j), renormalized to a[0] = 1."""
        rolled = [self.a[(i + j) % self.q] for i in range(self.q)]
        return PeriodicBoundaryLaw.from_values(rolled)

    def is_shift_of(self, other: "PeriodicBoundaryLaw", atol: float = 1e-9) -> bool:
        if self.q != other.q:
            return False
        mine = self.as_array()
        return any(
            np.allclose(mine, other.shifted(j).as_array(), rtol=0.0, atol=atol)
            for j in range(self.q)
        )


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
    def for_model(cls, op: TransferOperator, law: PeriodicBoundaryLaw | None = None,
                  bound: float = 1e-12, max_cutoff: int = 100_000) -> "IncrementWindow":
        """Smallest window whose weighted tail mass is certified below ``bound``."""
        scale = _tail_scale(op, law)
        if isinstance(op, LiftedPotts):
            return cls(max(op.q // 2, 1), bound)
        cutoff = 1
        while tail_mass(op, cutoff + 1) * scale > bound:
            cutoff += 1
            if cutoff > max_cutoff:
                raise NonSummable(f"no window of size <= {max_cutoff} certifies {bound}")
        return cls(cutoff, bound)

    @classmethod
    def manual(cls, op: TransferOperator, cutoff: int,
               law: PeriodicBoundaryLaw | None = None) -> "IncrementWindow":
        """Window with a user-chosen cutoff; the declared bound is the actual tail."""
        scale = _tail_scale(op, law)
        actual = tail_mass(op, cutoff + 1) * scale if not isinstance(op, LiftedPotts) else 0.0
        return cls(cutoff, max(actual, 1e-300))


def _tail_scale(op: TransferOperator, law: PeriodicBoundaryLaw | None) -> float:
    if law is None:
        return 1.0 / total_mass(op)
    a = law.as_array()
    norms = interaction_matrix(op, law.q) @ a
    return float(a.max() / norms.min())


# ---------------------------------------------------------------------------
# tree volumes


class FiniteTreeVolume:
    """Finite rooted subtree of the d-regular tree with a marked boundary.

    Vertices are integers 0 .. n-1 with vertex 0 as root; ``parents[i] < i``
    so that the stored directed edges (parent, child) are ordered away from
    the root. Boundary vertices are the outer layer: they carry the
    boundary-law factor in closed-volume formulas and must be leaves.
    """

    def __init__(self, d: int, parents: Sequence[int | None], boundary: Iterable[int]):
        if d < 2:
            raise ValueError("branching degree d must be >= 2")
        n = len(parents)
        if n == 0 or parents[0] is not None:
            raise ValueError("vertex 0 must be the root")
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            p = parents[i]
            if p is None or not 0 <= p < i:
                raise ValueError("parents must reference earlier vertices")
            children[p].append(i)
        self.d = d
        self.n_vertices = n
        self.parents = tuple(parents)
        self.children: tuple[tuple[int, ...], ...] = tuple(map(tuple, children))
        self.directed_edges: tuple[tuple[int, int], ...] = tuple(
            (parents[i], i) for i in range(1, n)
        )
        self.edge_index = {e: k for k, e in enumerate(self.directed_edges)}
        self.boundary = frozenset(int(b) for b in boundary)
        if any(not 0 <= b < n for b in self.boundary):
            raise ValueError("boundary vertex outside the volume")
        if 0 in self.boundary:
            raise ValueError("the root cannot be a boundary vertex")
        if any(self.children[b] for b in self.boundary):
            raise ValueError("boundary vertices must be leaves")
        self.interior = frozenset(range(n)) - self.boundary
        depth = [0] * n
        for i in range(1, n):
            depth[i] = depth[parents[i]] + 1
        self.depth = tuple(depth)
        self._orientations: dict[int, tuple] = {}

    @property
    def n_edges(self) -> int:
        return len(self.directed_edges)

    @property
    def full(self) -> bool:
        """True for closed Cayley-regular volumes: every leaf is boundary and
        every interior vertex has all its tree neighbors inside."""
        for v in self.interior:
            want = self.d + 1 if v == 0 else self.d
            if len(self.children[v]) != want:
                return False
        return all(not self.children[v] for v in self.boundary)

    def neighbors(self, v: int) -> list[int]:
        out = list(self.children[v])
        if self.parents[v] is not None:
            out.append(self.parents[v])
        return out

    def orientation_from(self, w: int):
        """Edges in BFS order away from w as (edge_id, src, dst, sign).

        ``sign`` is +1 when the stored (parent, child) direction agrees with
        the traversal, so the increment along src -> dst is sign * zeta[edge].
        """
        if w not in self._orientations:
            order = []
            seen = {w}
            queue = deque([w])
            while queue:
                src = queue.popleft()
                for dst in self.neighbors(src):
                    if dst in seen:
                        continue
                    seen.add(dst)
                    if (src, dst) in self.edge_index:
                        order.append((self.edge_index[(src, dst)], src, dst, 1))
                    else:
                        order.append((self.edge_index[(dst, src)], src, dst, -1))
                    queue.append(dst)
            self._orientations[w] = tuple(order)
        return self._orientations[w]

    def path(self, x: int, y: int) -> list[tuple[int, int]]:
        """The steps (from, to) of the tree path from x to y."""
        up, down = [x], [y]
        while up[-1] != down[-1]:
            if self.depth[up[-1]] >= self.depth[down[-1]]:
                up.append(self.parents[up[-1]])
            else:
                down.append(self.parents[down[-1]])
        nodes = up + down[-2::-1]
        return list(zip(nodes, nodes[1:]))

    def distance(self, x: int, y: int) -> int:
        return len(self.path(x, y))

    def edges_touching(self, vertices: Iterable[int]) -> list[int]:
        vs = set(vertices)
        return [k for k, (x, y) in enumerate(self.directed_edges) if x in vs or y in vs]

    def adjacent_outside(self, vertices: Iterable[int]) -> set[int]:
        vs = set(vertices)
        out = set()
        for v in vs:
            out.update(u for u in self.neighbors(v) if u not in vs)
        return out


def cayley_ball(d: int, radius: int) -> FiniteTreeVolume:
    """Closed ball of the d-regular tree: the root has d + 1 children, every
    other interior vertex has d, and the outermost layer is the boundary."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    parents: list[int | None] = [None]
    level = [0]
    for r in range(radius):
        nxt = []
        for v in level:
            for _ in range(d + 1 if v == 0 else d):
                parents.append(v)
                nxt.append(len(parents) - 1)
        level = nxt
    return FiniteTreeVolume(d, parents, level)


def path_volume(n_edges: int, d: int = 2) -> FiniteTreeVolume:
    """Chain of n_edges edges (an irregular volume with empty boundary)."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    parents: list[int | None] = [None] + list(range(n_edges))
    return FiniteTreeVolume(d, parents, ())


@dataclass(frozen=True)
class GradientConfiguration:
    """Integer increments on the directed edges of a volume.

    The orientation convention is child minus parent relative to the root;
    walking an edge against its stored direction negates the increment.
    """

    volume: FiniteTreeVolume
    increments: tuple[int, ...]

    def __post_init__(self):
        if len(self.increments) != self.volume.n_edges:
            raise ValueError("one increment per directed edge required")

    @classmethod
    def zeros(cls, volume: FiniteTreeVolume) -> "GradientConfiguration":
        return cls(volume, (0,) * volume.n_edges)

    @classmethod
    def from_map(cls, volume: FiniteTreeVolume,
                 mapping: Mapping[tuple[int, int], int]) -> "GradientConfiguration":
        vals = [0] * volume.n_edges
        for (x, y), z in mapping.items():
            if (x, y) in volume.edge_index:
                vals[volume.edge_index[(x, y)]] = int(z)
            elif (y, x) in volume.edge_index:
                vals[volume.edge_index[(y, x)]] = -int(z)
            else:
                raise KeyError(f"no edge between {x} and {y}")
        return cls(volume, tuple(vals))

    def as_array(self) -> np.ndarray:
        return np.array(self.increments, dtype=np.int64)

    def increment(self, x: int, y: int) -> int:
        if (x, y) in self.volume.edge_index:
            return self.increments[self.volume.edge_index[(x, y)]]
        return -self.increments[self.volume.edge_index[(y, x)]]


def vertex_heights(volume: FiniteTreeVolume, pin: int, s: int,
                   zeta: Sequence[int]) -> np.ndarray:
    """Integer heights with height[pin] = s, accumulated along tree paths."""
    h = np.zeros(volume.n_vertices, dtype=np.int64)
    h[pin] = s
    for e, src, dst, sign in volume.orientation_from(pin):
        h[dst] = h[src] + sign * zeta[e]
    return h


def vertex_layers(volume: FiniteTreeVolume, q: int, pin: int, s: int,
                  zeta: Sequence[int]) -> np.ndarray:
    """Mod-q layer labels reached from class s at the pin vertex."""
    return vertex_heights(volume, pin, s, zeta) % q


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
        return {"kind": "lifted_potts", "q": op.q, "beta_tilde": op.beta_tilde}
    if isinstance(op, LiftedPottsPositive):
        return {"kind": "lifted_potts", "q": op.q, "beta_tilde": op.beta_tilde,
                "tail_beta": op.tail_beta}
    raise TypeError(f"unknown transfer operator {op!r}")


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
        if "tail_beta" in doc:
            return LiftedPottsPositive(int(doc["q"]), float(doc["beta_tilde"]),
                                       float(doc["tail_beta"]))
        return LiftedPotts(int(doc["q"]), float(doc["beta_tilde"]))
    raise ValueError(f"unknown potential kind {kind!r}")


def model_to_json(op: TransferOperator, q: int, d: int) -> dict:
    return {"potential": potential_to_json(op), "q": int(q), "d": int(d)}


def model_from_json(doc: Mapping) -> tuple[TransferOperator, int, int]:
    for key in ("potential", "q", "d"):
        if key not in doc:
            raise ValueError(f"model description is missing {key!r}")
    q, d = int(doc["q"]), int(doc["d"])
    if q < 1:
        raise ValueError("period q must be >= 1")
    if d < 2:
        raise ValueError("branching degree d must be >= 2")
    return potential_from_json(doc["potential"]), q, d
