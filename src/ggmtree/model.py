"""Core domain types: increment potentials, periodic boundary laws, tree volumes.

Heights live on the vertices of a regular tree, but everything here is phrased
in terms of integer height increments along directed edges. A potential
assigns a positive summable weight Q(m) to an increment m, a boundary law is a
positive q-periodic vector normalized to a[0] = 1, and a volume is a finite
rooted subtree with a marked outer boundary layer. ``grid_roots`` is the one
scalar root finder, shared with the boundary-law solver and the Potts lifts.

The four potential kinds are SOS, the discrete Gaussian, a table, and the
lifted Potts operator, with or without an exponential tail. ``wrapped_sum``
folds a potential onto the residues mod q, in closed form for SOS and for a
lift at its own period, and otherwise by one certified summation.

Every walk over a volume reads one step table per pin,
``FiniteTreeVolume.orientation_from``: the steps away from the pin as
(src, dst) integer arrays, one pair per distance from it, built by an array
BFS and cached for the last few pins. A step's edge and direction follow from
its two ends, so no walk looks edges up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
    "total_mass",
    "wrapped_sum",
    "wrapped_row",
    "interaction_matrix",
    "PeriodicBoundaryLaw",
    "IncrementWindow",
    "FiniteTreeVolume",
    "cayley_ball",
    "path_volume",
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
        if self.beta_tilde < 0:
            raise ValueError("LiftedPotts beta_tilde must be >= 0")
        if self.tail_beta is not None and not self.tail_beta > 0:
            raise ValueError("LiftedPotts tail_beta must be positive")
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


def _potts_row_value(q: int, beta_tilde: float, residue: int) -> float:
    denom = math.exp(beta_tilde) + q - 1
    return (math.exp(beta_tilde) if residue % q == 0 else 1.0) / denom


def _potts_tail_wrap(q: int, tail_beta: float | None, k: int) -> float:
    # Mass of the exponential tail members sitting on the residue class of k,
    # for 0 <= k <= q//2. The member at -k is central when q is even, k = q/2.
    if tail_beta is None:
        return 0.0
    h = q // 2
    geo = 1.0 - math.exp(-tail_beta * q)
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
        exact = 2.0 * sum(op._central[k] for k in range(start, h + 1))
        if op.tail_beta is None:
            return exact
        x = math.exp(-op.tail_beta)
        return exact + 2.0 * x ** max(start, h + 1) / (1.0 - x)
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
        if m == 0:
            return (1.0 + x) / (1.0 - x)
        return (math.exp(-op.beta * m) + math.exp(-op.beta * (q - m))) / (1.0 - x)
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
    return float(sum(eval_q(op, q * j + m) for j in range(j_lo, j_hi + 1)))


def wrapped_row(op: TransferOperator, q: int) -> np.ndarray:
    """Vector of wrapped sums for residues 0 .. q-1."""
    return np.array([wrapped_sum(op, q, m) for m in range(q)])


def interaction_matrix(op: TransferOperator, q: int) -> np.ndarray:
    """Symmetric circulant C[k, m] = wrapped_sum(op, q, (k - m) mod q)."""
    row = wrapped_row(op, q)
    idx = (np.arange(q)[:, None] - np.arange(q)[None, :]) % q
    return row[idx]


def total_mass(op: TransferOperator) -> float:
    """Sum of Q(m) over all integers m."""
    return wrapped_sum(op, 1, 0)


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
    def for_model(cls, op: TransferOperator, law: PeriodicBoundaryLaw,
                  bound: float = 1e-12, max_cutoff: int = 100_000) -> "IncrementWindow":
        """Smallest window whose weighted tail mass is certified below
        ``bound``; an untailed lifted Potts operator gets its whole support."""
        if isinstance(op, LiftedPotts) and op.tail_beta is None:
            return cls(op.q // 2, bound)
        scale = _tail_scale(op, law)
        cutoff = 1
        while tail_mass(op, cutoff + 1) * scale > bound:
            cutoff += 1
            if cutoff > max_cutoff:
                raise NonSummable(f"no window of size <= {max_cutoff} certifies {bound}")
        return cls(cutoff, bound)

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

ORIENTATIONS = 4  # pins whose orientation a volume caches; verify walks from three


class FiniteTreeVolume:
    """Finite rooted subtree of the d-regular tree with a marked boundary.

    Vertices are integers 0 .. n-1 with vertex 0 as root; ``parents[i] < i``
    so that the stored directed edges (parent, child) are ordered away from
    the root, and edge i - 1 is the edge (parents[i], i). ``parents`` (-1 at
    the root) and ``depth`` are integer arrays. Boundary vertices are the
    outer layer: they carry the boundary-law factor in closed-volume formulas
    and must be leaves.
    """

    def __init__(self, d: int, parents: Sequence[int | None], boundary: Iterable[int]):
        if d < 2:
            raise ValueError("branching degree d must be >= 2")
        n = len(parents)
        if n == 0 or parents[0] is not None:
            raise ValueError("vertex 0 must be the root")
        try:
            self.parents = np.array([-1, *parents[1:]], dtype=np.int64)
        except TypeError:  # None below the root
            raise ValueError("parents must reference earlier vertices") from None
        up = self.parents[1:]
        if np.any((up < 0) | (up >= np.arange(1, n))):
            raise ValueError("parents must reference earlier vertices")
        self.d = d
        self.n_vertices = n
        # the neighbours of v, its children in index order and then its
        # parent, are _adjacent[_first[v]:_first[v + 1]]
        owner = np.concatenate((up, np.arange(1, n)))
        other = np.concatenate((np.arange(1, n), up))
        order = np.lexsort((other, other < owner, owner))
        self._adjacent = other[order]
        self._first = np.searchsorted(owner[order], np.arange(n + 1))
        n_kids = np.bincount(up, minlength=n)
        flat = self._adjacent.tolist()
        self.children: tuple[tuple[int, ...], ...] = tuple(
            tuple(flat[a:a + c]) for a, c in zip(self._first.tolist(), n_kids.tolist()))
        self.directed_edges: tuple[tuple[int, int], ...] = tuple(zip(up.tolist(), range(1, n)))
        self.boundary = frozenset(int(b) for b in boundary)
        if any(not 0 <= b < n for b in self.boundary):
            raise ValueError("boundary vertex outside the volume")
        if 0 in self.boundary:
            raise ValueError("the root cannot be a boundary vertex")
        if n_kids[list(self.boundary)].any():
            raise ValueError("boundary vertices must be leaves")
        self.interior = frozenset(range(n)) - self.boundary
        self._orientations: dict[int, tuple] = {}
        depth = [0] * n
        for i, p in enumerate(up.tolist(), 1):
            depth[i] = depth[p] + 1
        self.depth = np.array(depth, dtype=np.int64)

    @property
    def n_edges(self) -> int:
        return len(self.directed_edges)

    @property
    def full(self) -> bool:
        """True for closed Cayley-regular volumes: every leaf is boundary and
        every interior vertex has all its tree neighbors inside, d + 1 of
        them."""
        degree = np.diff(self._first)
        degree[list(self.boundary)] = self.d + 1
        return bool(np.all(degree == self.d + 1))

    def neighbors(self, v: int) -> list[int]:
        return self._adjacent[self._first[v]:self._first[v + 1]].tolist()

    def orientation_from(self, w: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The steps away from w in BFS order, as one (src, dst) pair of
        integer arrays per level: level k holds the steps whose src lies at
        distance k from w, and the steps of one src are consecutive.

        A step walks edge max(src, dst) - 1, along its stored (parent, child)
        direction exactly when dst > src. The last ``ORIENTATIONS`` pins
        asked for are cached.
        """
        if w not in self._orientations:
            if len(self._orientations) >= ORIENTATIONS:
                del self._orientations[next(iter(self._orientations))]
            self._orientations[w] = self._steps_from(w)
        return self._orientations[w]

    def _steps_from(self, w: int, inside: Iterable[int] | None = None):
        """The levels of ``orientation_from(w)``, or those of its steps that
        stay inside the vertex set ``inside`` (which holds w), by one numpy
        expansion of the frontier per level."""
        if inside is not None:
            mask = np.zeros(self.n_vertices, dtype=bool)
            mask[list(inside)] = True
        levels = []
        src, came = np.array([w]), np.array([-1])
        while True:
            lo = self._first[src]
            count = self._first[src + 1] - lo
            start = np.cumsum(count) - count
            dst = self._adjacent[np.repeat(lo - start, count) + np.arange(count.sum())]
            src = np.repeat(src, count)
            keep = dst != np.repeat(came, count)
            if inside is not None:
                keep &= mask[dst]
            if not keep.any():
                return tuple(levels)
            came, src = src[keep], dst[keep]
            levels.append((came, src))

    def path(self, x: int, y: int) -> list[tuple[int, int]]:
        """The steps (from, to) of the tree path from x to y."""
        up, down = [x], [y]
        while up[-1] != down[-1]:
            if self.depth[up[-1]] >= self.depth[down[-1]]:
                up.append(int(self.parents[up[-1]]))
            else:
                down.append(int(self.parents[down[-1]]))
        nodes = up + down[-2::-1]
        return list(zip(nodes, nodes[1:]))

    def distance(self, x: int, y: int) -> int:
        return len(self.path(x, y))

    def edges_touching(self, vertices: Iterable[int]) -> list[int]:
        return sorted({max(v, u) - 1 for v in set(vertices) for u in self.neighbors(v)})

    def adjacent_outside(self, vertices: Iterable[int]) -> set[int]:
        vs = set(vertices)
        out = set()
        for v in vs:
            out.update(u for u in self.neighbors(v) if u not in vs)
        return out


def cayley_ball(d: int, radius: int) -> FiniteTreeVolume:
    """Closed ball of the d-regular tree: the root has d + 1 children, every
    other interior vertex has d, and the outermost layer is the boundary.
    Vertices are numbered level by level, each vertex's children in turn."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    inner = 1 + (d + 1) * (d ** (radius - 1) - 1) // (d - 1)  # vertices below the radius
    parents = [None] + [0] * (d + 1) + np.repeat(np.arange(1, inner), d).tolist()
    return FiniteTreeVolume(d, parents, range(inner, len(parents)))


def path_volume(n_edges: int, d: int = 2) -> FiniteTreeVolume:
    """Chain of n_edges edges (an irregular volume with empty boundary)."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    parents: list[int | None] = [None] + list(range(n_edges))
    return FiniteTreeVolume(d, parents, ())


def vertex_heights(volume: FiniteTreeVolume, pin: int, s: int,
                   zeta: Sequence[int]) -> np.ndarray:
    """Integer heights with height[pin] = s, accumulated along tree paths
    one level of ``orientation_from(pin)`` at a time; zeta[e] is the
    increment along the stored direction of edge e."""
    zeta = np.asarray(zeta, dtype=np.int64)
    h = np.zeros(volume.n_vertices, dtype=np.int64)
    h[pin] = s
    for src, dst in volume.orientation_from(pin):
        z = zeta[np.maximum(src, dst) - 1]
        h[dst] = h[src] + np.where(dst > src, z, -z)
    return h


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
        return LiftedPotts(int(doc["q"]), float(doc["beta_tilde"]), tail)
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
