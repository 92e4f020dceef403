"""Brute-force oracles for ``ggmtree``, kept in the tests.

The verifier's certificates in ``ggmtree.measures`` are checked against two
generations of exact checks. The ``scan_*`` functions are the numpy class
scans the library used before the certificates: the dual gaps scan the
q**edges residue vectors, consistency the residue classes of the inner
increments, the restricted conditional check the heights of the inner
vertices, and homogeneity evaluates enumerated (or sampled) configurations
in one batch. Each is exact and is checked against the enumerating
implementation it replaced in turn: ``check_consistency`` and
``check_restricted_dlr`` visit every windowed inner configuration, and the
dual-gap loops visit the residue vectors one at a time in Python. They are
slow, so tests run them on depth-1 to depth-3 volumes only. The scans of the
two representations and of consistency return a pair: the largest
difference and the largest |ratio - 1| between the compared forms, each of
which the library's single bound must cover. The enumerations and scans
take any inner vertex set; the library takes a ball by its radius, and
``consistency_bound`` and ``restricted_bound`` are its certificates summed
vertex by vertex over any set, which on a ball equal the library's bit for
bit. ``PinInsideInner`` is what the conditional oracles raise on a set
holding the pin.

The kernel-table oracles (``kernel_prob``, ``balance_defect``,
``product_probs``, ``two_bond_marginal`` and ``windowed_matrix``) are the formulas the library used before every consumer
read ``LayerKernel.probs``: each writes Q(z) a(t + z) / N(t) out again, or
loops over it, in the same order of operations, so they agree bit for bit.
``weights`` is the Q(z) row over the window that ``LayerKernel`` carried
until no library code read it. ``LayerKernel`` no longer carries the
potential either, so every oracle that reads Q takes it first, as ``op``.

``sample_ggm_batch`` is the per-edge sampler, an int64 batch with one
``searchsorted`` per layer on the uniforms of one vertex at a time
(``vertex_uniforms``), and ``sample_csv`` the ``csv.writer`` output of
``ggmtree sample``, the references for the blocked guide-table sampler and
the table-driven encoder. ``splitmix64`` and ``uniform`` are the sampler's
counter-based stream in Python ints, and ``library_batch`` stacks the
library sampler's blocks into one batch. The scalar reference
forms (``pinned_prob_bl``, ``ggm_prob``, ``alt_ggm_prob``), the window
enumerator, ``coupling_expectation``, ``bond_marginals_by_position``,
``is_normalizable`` and ``stationary_by_power_iteration`` are answers the
library has no use for.

The ``truncated_potts_*`` oracles are the truncated lifted Potts operator as a
kind of its own, as the library had it before an untailed ``LiftedPotts``
became the zero-tail case of the one lifted kind: weights written out from
the Potts row, the tail summed from them, the own-period wrap read off the
Potts row, the other wraps summed numerically, and the window set to the
support.

``VolumeTooLarge`` is what the enumerating oracles raise when a volume would
exceed their state budget; the library enumerates nothing and never raises it.

The library's volume is a ball pinned at its centre; the oracles walk any
rooted tree from any pin. ``Tree`` is such a tree as ``parents`` and a
boundary mask, ``tree`` reads a ball as one (its last level is the
boundary), and ``path_volume`` is a chain of edges. The oracles take the
kernel, the chain and the volume they read, as the library does. Those that
pin a measure take its class after the volume, and the pin vertex as
``pin``, the centre by default.

``steps`` is a ball's step table, one array of parents and one range of
children per level, read off its level starts. The scalar tree walks are
its references: ``scalar_orientation`` is the one-step-at-a-time BFS from
any vertex, as (edge, src, dst, sign) tuples, which from a ball's centre
visits the steps of ``steps(ball)`` in order, ``scalar_upward`` the upward pass
one vertex at a time, whose unit vector at every vertex is its level's row
in the radial ``measures._upward``, bit for bit, ``scalar_heights`` the heights one
step at a time, and ``step_product_probs`` the product form one step at a
time, on a volume or on a connected part of it, each layer kept in a dict.
The library evaluates no product form of its own; every pinned and mixture
probability of the tests comes from ``step_product_probs``. Every other
oracle here walks ``scalar_orientation``.
``directed_edges`` and ``children`` are the tuple forms of a volume, built
once per volume, and ``neighbors``, ``adjacent_outside`` (the rim of a
set: of the inner ball of radius r, level r + 1), ``descendants`` (a ball
or a sub-ball by its radius) and ``path`` (parent climbs) its walks, built
from ``parents`` alone, which ``tree`` reads off a ball's step table.
``spanning_edges`` counts the edges spanning pins anywhere, the k that
``measures.check_homogeneity`` reads off the depths of pins on one ray.
``GradientConfiguration``, ``vertex_layers``, ``pinned_prob_product``,
``sample_ggm`` and ``event_prob_ggm`` are the test-only forms the library no
longer carries: a configuration as a tuple
with edge lookups, the layers of the heights, the product form of one
configuration, one sample as a configuration, and the mixture of the
product form of an event on a connected part. ``table_prob`` (a point
read of ``LayerKernel.probs``), ``shifted`` and ``is_shift_of`` (the cyclic
shift of a law, and shift equivalence), ``free_dimension`` (of a wrapped
row), ``path_volume`` (a chain of edges) and ``two_bond_marginal`` (the joint
law of two successive edges) are the library functions only tests called.

The paper's relations to the Potts and Ising models are oracles here too:
``potts_row`` is the q-state Potts transfer row; ``potts_boundary_laws``
solves the Potts law equation with one distinguished class, and
``ising_type_solve`` the two-class recursion, each by scalar bracketing with
``model.grid_roots``; ``effective_beta`` is the Ising/Potts temperature
matching a wrapped row, against which ``critical_beta`` is checked; and
``identifiability_check`` compares the single-bond marginals of two laws,
which coincide exactly for cyclic shifts.
``_bl_partition`` is the boundary-law partition sum by an unscaled pass,
and ``log_bl_partition`` its log by the library's scaled pass, which the
verifier no longer needs.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from ggmtree import cli, measures
from ggmtree.chains import FuzzyChain, LayerKernel
from ggmtree.diagnostics import CounterexampleChain, path_mixture_prob
from ggmtree.errors import GGMError, UnsupportedPeriod
from ggmtree.measures import single_bond_marginal
from ggmtree.model import (
    FiniteTreeVolume,
    IncrementWindow,
    PeriodicBoundaryLaw,
    TransferOperator,
    cayley_ball,
    eval_q,
    grid_roots,
    wrapped_row,
)

BLOCK = 2**14  # rows per block, so scans need O(BLOCK x vertices) memory


class VolumeTooLarge(GGMError):
    """An enumeration would exceed the configured state budget."""


class PinInsideInner(GGMError):
    """The pinning vertex must lie outside the conditioned sub-volume."""


# ---------------------------------------------------------------------------
# the scalar tree walks and the test-only forms of the library


@dataclass(frozen=True, eq=False)
class Tree:
    """A finite rooted subtree of the d-regular tree: ``parents`` (-1 at the
    root, each parent before its child, edge e being (parents[e + 1], e + 1))
    and the boundary mask ``is_boundary``. The library's volumes are balls;
    the oracles also take paths and other trees in this form."""

    d: int
    parents: np.ndarray
    is_boundary: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.parents)

    @property
    def n_edges(self) -> int:
        return self.n_vertices - 1

    @property
    def boundary(self) -> np.ndarray:
        return np.flatnonzero(self.is_boundary)

    @property
    def full(self) -> bool:
        """Closed and Cayley-regular: every boundary vertex is a leaf and every
        interior vertex has d + 1 neighbours."""
        n = self.n_vertices
        degree = np.bincount(self.parents[1:], minlength=n) + (np.arange(n) > 0)
        return bool(np.all(degree == np.where(self.is_boundary, 1, self.d + 1)))


Volume = FiniteTreeVolume | Tree


def steps(ball: FiniteTreeVolume) -> list[tuple[np.ndarray, slice]]:
    """The steps away from vertex 0, one (src, dst) pair per level k: dst is
    level k + 1 as a slice, and src its parents, each vertex of level k once
    per child, so d + 1 times at the root and d times elsewhere. A step
    walks edge dst - 1 along its stored direction."""
    s = ball.starts
    return [(np.repeat(np.arange(s[k], s[k + 1]), ball.d + (k == 0)),
             slice(s[k + 1], s[k + 2])) for k in range(len(s) - 2)]


@functools.lru_cache(maxsize=64)
def _ball_tree(ball: FiniteTreeVolume) -> Tree:
    is_boundary = np.zeros(ball.n_vertices, dtype=bool)
    is_boundary[ball.starts[-2]:] = True
    parents = np.concatenate([[-1], *(src for src, _ in steps(ball))])
    return Tree(ball.d, parents, is_boundary)


def tree(volume: Volume) -> Tree:
    """``volume`` as a ``Tree``: a ball's parents are the srcs of its step
    table (``steps``) in order, and its boundary is its last level."""
    return volume if isinstance(volume, Tree) else _ball_tree(volume)


@functools.lru_cache(maxsize=64)
def directed_edges(volume: Volume) -> tuple[tuple[int, int], ...]:
    """The stored (parent, child) pair of each edge: edge e is
    (parents[e + 1], e + 1)."""
    return tuple(zip(tree(volume).parents[1:].tolist(), range(1, volume.n_vertices)))


@functools.lru_cache(maxsize=64)
def children(volume: Volume) -> tuple[tuple[int, ...], ...]:
    """The children of each vertex, in index order."""
    kids = [[] for _ in range(volume.n_vertices)]
    for p, v in directed_edges(volume):
        kids[p].append(v)
    return tuple(map(tuple, kids))


def neighbors(volume: Volume, v: int) -> list[int]:
    """The neighbours of v: its children in index order, then its parent."""
    return [*children(volume)[v], *([int(tree(volume).parents[v])] if v else [])]


def adjacent_outside(volume: Volume, vertices: Iterable[int]) -> set[int]:
    """The vertices outside the set that neighbour a vertex of it."""
    vs = set(vertices)
    return {u for v in vs for u in neighbors(volume, v) if u not in vs}


def descendants(volume: Volume, v: int, radius: int) -> set[int]:
    """v and its descendants at most ``radius`` levels below it: on a ball,
    the ball of that radius for v = 0 and the sub-ball hanging below v
    otherwise."""
    out, level = {v}, [v]
    for _ in range(radius):
        level = [c for x in level for c in children(volume)[x]]
        out.update(level)
    return out


def path(volume: Volume, x: int, y: int) -> list[tuple[int, int]]:
    """The steps (from, to) of the tree path from x to y, climbing from
    the larger vertex: a parent's index is smaller, so it is no ancestor."""
    parents = tree(volume).parents
    up, down = [x], [y]
    while up[-1] != down[-1]:
        if up[-1] > down[-1]:
            up.append(int(parents[up[-1]]))
        else:
            down.append(int(parents[down[-1]]))
    nodes = up + down[-2::-1]
    return list(zip(nodes, nodes[1:]))


def path_volume(n_edges: int, d: int = 2) -> Tree:
    """Chain of n_edges edges (an irregular volume with empty boundary)."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    return Tree(d, np.arange(-1, n_edges), np.zeros(n_edges + 1, dtype=bool))


@functools.lru_cache(maxsize=64)
def scalar_orientation(volume: Volume,
                       w: int) -> tuple[tuple[int, int, int, int], ...]:
    """Edges in BFS order away from w as (edge_id, src, dst, sign), one step
    at a time, neighbours visited children first and then the parent.

    ``sign`` is +1 when the stored (parent, child) direction agrees with
    the traversal, so the increment along src -> dst is sign * zeta[edge].
    """
    edge_index = {e: k for k, e in enumerate(directed_edges(volume))}
    order = []
    seen = {w}
    queue = deque([w])
    while queue:
        src = queue.popleft()
        for dst in neighbors(volume, src):
            if dst in seen:
                continue
            seen.add(dst)
            if (src, dst) in edge_index:
                order.append((edge_index[(src, dst)], src, dst, 1))
            else:
                order.append((edge_index[(dst, src)], src, dst, -1))
            queue.append(dst)
    return tuple(order)


def scalar_upward(volume: Volume, pin: int, matrix: np.ndarray,
                  leaf: Mapping[int, np.ndarray]) -> tuple[list[np.ndarray], list[float]]:
    """``measures._upward`` one vertex at a time, the srcs of
    ``scalar_orientation(volume, pin)`` in reverse: v starts from ``leaf[v]``
    (else ones), each step's message ``matrix @ u[dst]`` is scaled to largest
    entry 1, a src's messages are multiplied as a left fold in step order,
    and the fold times u[src] is scaled once more. Returns the unit vectors
    and the log of every scale, in the order taken."""
    q = len(matrix)
    unit = [np.ones(q)] * volume.n_vertices
    logs = []
    for v, vec in leaf.items():
        top = vec.max()
        unit[v] = vec / top
        logs.append(math.log(top))
    steps = {}
    for e, src, dst, sign in scalar_orientation(volume, pin):
        steps.setdefault(src, []).append(dst)
    for src, dsts in reversed(steps.items()):
        product = None
        for dst in dsts:
            message = matrix @ unit[dst]
            top = message.max()
            logs.append(math.log(top))
            product = message / top if product is None else product * (message / top)
        f = unit[src] * product
        top = f.max()
        unit[src] = f / top
        logs.append(math.log(top))
    return unit, logs


def spanning_edges(volume: Volume, pins: Iterable[int]) -> int:
    """The number of edges of the subtree spanning the vertices ``pins``,
    anywhere in the volume: below[v] counts the pins in the subtree of v,
    one pass from the last vertex up, and the edge into v spans the pins
    when some but not all of them are there."""
    pins = list(pins)
    parents = tree(volume).parents
    below = np.zeros(volume.n_vertices, dtype=np.int64)
    np.add.at(below, pins, 1)
    for v in range(volume.n_vertices - 1, 0, -1):
        below[parents[v]] += below[v]
    return int(np.count_nonzero((below[1:] > 0) & (below[1:] < len(pins))))


def scalar_heights(volume: Volume, pin: int, s: int, zeta) -> np.ndarray:
    """Integer heights with height[pin] = s, one step at a time."""
    h = np.zeros(volume.n_vertices, dtype=np.int64)
    h[pin] = s
    for e, src, dst, sign in scalar_orientation(volume, pin):
        h[dst] = h[src] + sign * zeta[e]
    return h


def edges_touching(volume: Volume, vertices) -> list[int]:
    """The sorted indices of the edges with an endpoint in ``vertices``."""
    return sorted({max(v, u) - 1 for v in set(vertices) for u in neighbors(volume, v)})


def vertex_layers(volume: Volume, q: int, pin: int, s: int, zeta) -> np.ndarray:
    """Mod-q layer labels reached from class s at the pin vertex."""
    return scalar_heights(volume, pin, s, zeta) % q


@dataclass(frozen=True)
class GradientConfiguration:
    """Integer increments on the directed edges of a volume.

    The orientation convention is child minus parent relative to the root;
    walking an edge against its stored direction negates the increment.
    """

    volume: Volume
    increments: tuple[int, ...]

    def __post_init__(self):
        if len(self.increments) != self.volume.n_edges:
            raise ValueError("one increment per directed edge required")

    @classmethod
    def zeros(cls, volume: Volume) -> "GradientConfiguration":
        return cls(volume, (0,) * volume.n_edges)

    @classmethod
    def from_map(cls, volume: Volume,
                 mapping: Mapping[tuple[int, int], int]) -> "GradientConfiguration":
        edge_index = {e: k for k, e in enumerate(directed_edges(volume))}
        vals = [0] * volume.n_edges
        for (x, y), z in mapping.items():
            if (x, y) in edge_index:
                vals[edge_index[(x, y)]] = int(z)
            elif (y, x) in edge_index:
                vals[edge_index[(y, x)]] = -int(z)
            else:
                raise KeyError(f"no edge between {x} and {y}")
        return cls(volume, tuple(vals))

    def as_array(self) -> np.ndarray:
        return np.array(self.increments, dtype=np.int64)

    def increment(self, x: int, y: int) -> int:
        edge_index = {e: k for k, e in enumerate(directed_edges(self.volume))}
        if (x, y) in edge_index:
            return self.increments[edge_index[(x, y)]]
        return -self.increments[edge_index[(y, x)]]


def flat_bond_probs(kernel: LayerKernel, n: int, d: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The flat bonds (0, 1) and (n + 1, n + 2) of a path of n + 2 edges, each
    pinned at its vertex nearest the other, as class vectors of
    ``step_product_probs``: the general route to the vectors that
    ``correlation_and_bound`` takes."""
    vol = path_volume(n + 2, d)
    flat, classes = np.zeros((kernel.q, vol.n_edges), dtype=np.int64), np.arange(kernel.q)
    return (step_product_probs(kernel, vol, 1, classes, flat, {0, 1}),
            step_product_probs(kernel, vol, n + 1, classes, flat, {n + 1, n + 2}))


def step_product_probs(kernel: LayerKernel, volume: Volume, pin: int, s,
                       Z, inside: set[int] | None = None) -> np.ndarray:
    """Product-form probabilities of the rows of Z, the increments by edge,
    pinned to class s (an int, or a vector against the rows) at ``pin``, one
    step at a time along ``scalar_orientation(volume, pin)``, or along its
    steps inside the connected vertex set ``inside``, which must hold the
    pin: each vertex's layer is read from ``LayerKernel.ends`` and kept in a
    dict, and the factors are multiplied step by step. An increment beyond
    the cutoff is a ``ValueError``."""
    Z = np.asarray(Z, dtype=np.int64)
    cutoff = kernel.window.cutoff
    if Z.size and np.abs(Z).max() > cutoff:
        raise ValueError(f"|zeta| = {np.abs(Z).max()} exceeds cutoff {cutoff}")
    if inside is not None and pin not in inside:
        raise ValueError("the pin must belong to the vertex set")
    layer = {pin: np.full(len(Z), s % kernel.q)}
    p = np.ones(len(Z))
    for e, src, dst, sign in scalar_orientation(volume, pin):
        if inside is None or dst in inside:
            k = sign * Z[:, e] + cutoff
            t = layer[src]
            layer[dst] = kernel.ends[t, k]
            p = p * kernel.probs[t, k]
    return p


def pinned_prob_product(kernel: LayerKernel, volume: Volume, pin_class: int,
                        zeta: GradientConfiguration, pin: int = 0) -> float:
    """Probability of a full edge configuration as a product of kernel factors
    along the edges oriented away from the pin."""
    return float(step_product_probs(kernel, volume, pin, pin_class, [zeta.increments])[0])


def sample_ggm(kernel: LayerKernel, chain: FuzzyChain, volume: Volume,
               seed: int) -> GradientConfiguration:
    """One configuration of the library's sampler, deterministic in the seed."""
    arr = next(measures.sample_ggm_batch(kernel, chain, volume, 1, seed))[0]
    return GradientConfiguration(volume, tuple(int(v) for v in arr))


def event_prob_ggm(kernel: LayerKernel, chain: FuzzyChain, volume: Volume,
                   vertices: Iterable[int], anchor: int,
                   zeta: Mapping[tuple[int, int], int]) -> float:
    """The stationary mixture of the probabilities, by the class pinned at
    ``anchor``, that the edges inside the connected set ``vertices`` carry
    the increments ``zeta``, keyed by their stored (parents[v], v) pairs."""
    Z = np.zeros((kernel.q, volume.n_edges), dtype=np.int64)
    for (_, v), z in zeta.items():
        Z[:, v - 1] = z
    probs = step_product_probs(kernel, volume, anchor, np.arange(kernel.q), Z, set(vertices))
    return float(sum(a * p for a, p in zip(chain.alpha, probs)))


def _product_prob(kernel: LayerKernel, volume: Volume, pin: int,
                  s: int, zeta) -> float:
    q = kernel.q
    layer = [0] * volume.n_vertices
    layer[pin] = s % q
    p = 1.0
    for e, src, dst, sign in scalar_orientation(volume, pin):
        z = sign * int(zeta[e])
        p *= table_prob(kernel, layer[src], z)
        layer[dst] = (layer[src] + z) % q
    return p


def _bl_partition(kernel: LayerKernel, volume: Volume, pin: int) -> np.ndarray:
    """Partition sums of the boundary-law weight over all integer
    configurations, as a vector over the pin class.

    One pass away from the pin: each vertex carries a vector over its layer,
    leaves start from the boundary-law values (or ones when interior), and an
    edge contracts its child vector with the wrapped interaction matrix.
    """
    q = kernel.q
    a = kernel.law.as_array()
    C = kernel.circulant
    boundary = tree(volume).is_boundary
    f = [a.copy() if boundary[v] else np.ones(q) for v in range(volume.n_vertices)]
    for e, src, dst, sign in reversed(scalar_orientation(volume, pin)):
        f[src] = f[src] * (C @ f[dst])
    return f[pin]


def log_bl_partition(kernel: LayerKernel, volume: Volume) -> np.ndarray:
    """log ``_bl_partition`` at the centre of a ball from the library's scaled
    pass, ``measures._upward`` from the boundary-law values at the boundary."""
    unit, log_total = measures._upward(volume, kernel.circulant, kernel.law.as_array())
    return np.log(unit[0]) + log_total


def _interior(volume: Volume) -> set[int]:
    return set(np.flatnonzero(~tree(volume).is_boundary).tolist())


def _interior_set(volume: Volume, inner) -> set[int]:
    ids = set(int(v) for v in inner)
    if not ids <= _interior(volume):
        raise ValueError("inner vertices must be interior vertices of the volume")
    return set(ids)


def _hanging_factors(kernel: LayerKernel, volume: Volume, pin: int,
                     boundary_of_inner: Iterable[int]) -> dict[int, np.ndarray]:
    """For each vertex on the inner boundary, the summed weight of the part of
    the volume hanging below it (away from the pin), as a vector over its
    layer. Equals the boundary law itself exactly when the law solves the
    fixed-point equation."""
    q = kernel.q
    a = kernel.law.as_array()
    C = kernel.circulant
    boundary = tree(volume).is_boundary
    f = [a.copy() if boundary[v] else np.ones(q) for v in range(volume.n_vertices)]
    for e, src, dst, sign in reversed(scalar_orientation(volume, pin)):
        f[src] = f[src] * (C @ f[dst])
    return {v: f[v] for v in boundary_of_inner}


def consistency_bound(kernel: LayerKernel, volume: Volume, inner) -> float:
    """The consistency certificate for any connected interior set ``inner``
    holding vertex 0: ``measures._certified`` of the width
    ptp(log hang_v - log a) summed over the rim vertices v in index order,
    each read from the library's radial pass at v's level."""
    a = kernel.law.as_array()
    unit = measures._upward(volume, kernel.circulant, a)[0]
    rim = sorted(adjacent_outside(volume, inner))
    return measures._certified(volume, sum(
        float(np.ptp(np.log(unit[len(path(volume, 0, v))]) - np.log(a))) for v in rim))


def restricted_bound(kernel: LayerKernel, volume: Volume, inner) -> float:
    """The restricted conditional certificate for any interior set ``inner``
    avoiding the pin: ``measures._certified`` of the width
    ptp(log a - k_v log N) summed over its vertices v in index order, k_v
    counting the neighbours of v but the one towards the pin."""
    log_a = np.log(kernel.law.as_array())
    log_n = np.log(kernel.norms)
    return measures._certified(volume, sum(
        float(np.ptp(log_a - (len(neighbors(volume, v)) - 1) * log_n))
        for v in sorted(inner)))


def check_consistency(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                      pin_class: int, inner, mixture: bool = False,
                      chain: FuzzyChain | None = None, config_budget: int = 10**7,
                      pin: int = 0) -> float:
    """Marginalize the volume's boundary-law measure, pinned at ``pin``, onto
    a smaller closed volume and compare with the directly computed
    smaller-volume measure.

    ``inner`` is the interior vertex set of the smaller volume; it must
    contain the pin.
    With ``mixture=True`` both sides are averaged over the stationary layer
    distribution of ``chain`` instead of pinned to ``pin_class``.
    """
    if not tree(volume).full:
        raise ValueError("consistency checks need a closed regular volume")
    q = kernel.q
    ids = _interior_set(volume, inner)
    if pin not in ids:
        raise ValueError("the pin vertex must belong to the inner volume")
    inner_edges = edges_touching(volume, ids)
    inner_edge_set = set(inner_edges)
    inner_boundary = adjacent_outside(volume, ids)
    hang = _hanging_factors(kernel, volume, pin, inner_boundary)
    a = kernel.law.as_array()
    C = kernel.circulant
    z_big = _bl_partition(kernel, volume, pin)

    # exact partition of the directly computed inner measure, by the same
    # layer pass restricted to the inner edges
    f = [a.copy() if v in inner_boundary else np.ones(q)
         for v in range(volume.n_vertices)]
    for e, src, dst, sign in reversed(scalar_orientation(volume, pin)):
        if e in inner_edge_set:
            f[src] = f[src] * (C @ f[dst])
    z_inner = f[pin]

    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")
    s_values = range(q) if mixture else [pin_class]
    s_weights = chain.alpha if mixture else None

    count = (2 * kernel.window.cutoff + 1) ** len(inner_edges)
    if count > config_budget:
        raise VolumeTooLarge(f"{count} inner configurations exceed {config_budget}")

    rng = range(-kernel.window.cutoff, kernel.window.cutoff + 1)
    combos = list(itertools.product(rng, repeat=len(inner_edges)))
    layers_cache = []
    qprod_cache = []
    for combo in combos:
        arr = np.zeros(volume.n_edges, dtype=np.int64)
        for e, z in zip(inner_edges, combo):
            arr[e] = z
        heights = scalar_heights(volume, pin, 0, arr)
        layers_cache.append({v: int(heights[v]) for v in inner_boundary})
        qprod_cache.append(float(np.prod([eval_q(op, z) for z in combo])))

    worst = 0.0
    for lay, qp in zip(layers_cache, qprod_cache):
        marg = 0.0
        direct = 0.0
        for s in s_values:
            w = 1.0 if s_weights is None else float(s_weights[s])
            m = qp * float(np.prod([hang[v][(lay[v] + s) % q] for v in inner_boundary]))
            p = qp * float(np.prod([a[(lay[v] + s) % q] for v in inner_boundary]))
            marg += w * m / z_big[s]
            direct += w * p / z_inner[s]
        worst = max(worst, abs(marg - direct))
    return worst


def check_restricted_dlr(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                         pin_class: int, inner,
                         outside: Mapping[int, int] | None = None,
                         reference: Mapping[int, int] | None = None,
                         mixture: bool = False, chain: FuzzyChain | None = None,
                         config_budget: int = 10**7, pin: int = 0) -> float:
    """Conditional law inside a sub-volume away from the pin, given the outside
    increments and the relative boundary heights, against the bare-weight
    prediction: proportional to the product of Q factors over configurations
    in the same boundary-height class.

    ``outside`` fixes increments on edges outside the sub-volume;
    ``reference`` chooses the inner configuration whose boundary-height class
    is conditioned on (default all zeros).
    """
    ids = _interior_set(volume, inner)
    if pin in ids:
        raise PinInsideInner("conditioning volume must avoid the pin vertex")
    inner_edges = edges_touching(volume, ids)
    inner_boundary = sorted(adjacent_outside(volume, ids))
    anchor = inner_boundary[0]

    base = np.zeros(volume.n_edges, dtype=np.int64)
    if outside is not None:
        for e, z in outside.items():
            if e in inner_edges:
                raise ValueError("outside assignment hit an inner edge")
            base[e] = int(z)
    if reference is not None:
        for e, z in reference.items():
            if e not in inner_edges:
                raise ValueError("reference assignment must live on inner edges")
            base[e] = int(z)

    def boundary_class(arr: np.ndarray) -> tuple[int, ...]:
        h = scalar_heights(volume, pin, 0, arr)
        return tuple(int(h[v] - h[anchor]) for v in inner_boundary)

    target = boundary_class(base)

    count = (2 * kernel.window.cutoff + 1) ** len(inner_edges)
    if count > config_budget:
        raise VolumeTooLarge(f"{count} inner configurations exceed {config_budget}")

    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")

    joint = []
    bare = []
    rng = range(-kernel.window.cutoff, kernel.window.cutoff + 1)
    for combo in itertools.product(rng, repeat=len(inner_edges)):
        arr = base.copy()
        for e, z in zip(inner_edges, combo):
            arr[e] = z
        if boundary_class(arr) != target:
            continue
        if mixture:
            p = sum(chain.alpha[s] * _product_prob(kernel, volume, pin, s, arr)
                    for s in range(kernel.q))
        else:
            p = _product_prob(kernel, volume, pin, pin_class, arr)
        joint.append(float(p))
        bare.append(float(np.prod([eval_q(op, int(arr[e])) for e in inner_edges])))
    joint = np.array(joint)
    bare = np.array(bare)
    if joint.sum() == 0.0:
        raise ValueError("conditioning event has zero probability")
    return float(np.max(np.abs(joint / joint.sum() - bare / bare.sum())))


def _residue_layers(volume: Volume, pin: int, q: int,
                    residues) -> list[int]:
    layer = [0] * volume.n_vertices
    for e, src, dst, sign in scalar_orientation(volume, pin):
        layer[dst] = (layer[src] + sign * residues[e]) % q
    return layer


def _max_q_per_residue(op: TransferOperator, kernel: LayerKernel) -> np.ndarray:
    q = kernel.q
    best = np.zeros(q)
    for z in kernel.offsets:
        w = eval_q(op, int(z))
        r = int(z) % q
        best[r] = max(best[r], w)
    return best


def max_dual_gap_pinned(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                        pin_class: int, residue_budget: int = 2**21, pin: int = 0) -> float:
    """Exact maximum of |product form - boundary-law form| over every windowed
    configuration.

    Both forms share the bare product of Q factors; the remaining parts depend
    on the increments only through their residues mod q. The maximum therefore
    splits as (residue-class gap) times (largest Q product within the class),
    and scanning the q**edges residue vectors is exhaustive.
    """
    if not tree(volume).full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    q = kernel.q
    if q ** volume.n_edges > residue_budget:
        raise VolumeTooLarge("residue scan exceeds its budget")
    a = kernel.law.as_array()
    norms = kernel.norms
    maxq = _max_q_per_residue(op, kernel)
    z_pin = _bl_partition(kernel, volume, pin)[pin_class]
    orient = scalar_orientation(volume, pin)
    boundary = sorted(tree(volume).boundary)
    worst = 0.0
    for residues in itertools.product(range(q), repeat=volume.n_edges):
        layer = [0] * volume.n_vertices
        layer[pin] = pin_class
        h1 = 1.0
        wmax = 1.0
        for e, src, dst, sign in orient:
            t = layer[src]
            t2 = (t + sign * residues[e]) % q
            h1 *= a[t2] / norms[t]
            layer[dst] = t2
            wmax *= maxq[residues[e]]
        h2 = float(np.prod([a[layer[y]] for y in boundary])) / z_pin
        worst = max(worst, abs(h1 - h2) * wmax)
    return worst


def max_dual_gap_ggm(op: TransferOperator, kernel: LayerKernel, chain: FuzzyChain,
                     volume: Volume, residue_budget: int = 2**21) -> float:
    """Exact maximum of |mixture form - class-summed boundary-law form| over
    every windowed configuration, by the same residue-class argument."""
    if not tree(volume).full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    q = kernel.q
    if q ** volume.n_edges > residue_budget:
        raise VolumeTooLarge("residue scan exceeds its budget")
    a = kernel.law.as_array()
    norms = kernel.norms
    alpha = chain.alpha
    maxq = _max_q_per_residue(op, kernel)
    parts = _bl_partition(kernel, volume, 0)
    z_alt = float(parts.sum())
    orient = scalar_orientation(volume, 0)
    boundary = sorted(tree(volume).boundary)
    worst = 0.0
    for residues in itertools.product(range(q), repeat=volume.n_edges):
        base_layer = _residue_layers(volume, 0, q, residues)
        wmax = float(np.prod([maxq[r] for r in residues]))
        h1 = 0.0
        for s in range(q):
            term = alpha[s]
            layer = [(t + s) % q for t in base_layer]
            cur = [0] * volume.n_vertices
            cur[0] = s
            for e, src, dst, sign in orient:
                t = cur[src]
                t2 = (t + sign * residues[e]) % q
                term *= a[t2] / norms[t]
                cur[dst] = t2
            h1 += term
        h2 = sum(
            float(np.prod([a[(base_layer[y] + k) % q] for y in boundary]))
            for k in range(q)
        ) / z_alt
        worst = max(worst, abs(h1 - h2) * wmax)
    return worst


def splitmix64(seed: int, p: int) -> int:
    """The SplitMix64 output at counter p of the seed, in Python ints: the
    finalizer of seed + (p + 1) GOLDEN, everything mod 2**64."""
    z = (seed + (p + 1) * measures.GOLDEN) % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def uniform(seed: int, i: int, v: int) -> float:
    """The sampler's uniform of vertex v in sample i: the top 53 bits of the
    SplitMix64 output at counter i 2**32 + v, times 2**-53."""
    return (splitmix64(seed, (i << 32) + v) >> 11) * 2.0**-53


def vertex_uniforms(seed: int, n: int, v: int) -> np.ndarray:
    """The uniforms of vertex v in samples 0 .. n - 1, one vertex at a time:
    the states seed + (i 2**32 + v + 1) GOLDEN in uint64, which wraps mod
    2**64, mixed by the library's finalizer."""
    step = np.uint64((measures.GOLDEN << 32) % 2**64)
    first = np.uint64((int(seed) + (int(v) + 1) * measures.GOLDEN) % 2**64)
    return measures._uniforms(np.arange(n, dtype=np.uint64) * step + first, np.empty(n))


def library_batch(kernel: LayerKernel, chain: FuzzyChain, volume: Volume, n: int,
                  seed: int) -> np.ndarray:
    """The blocks of the library's sampler stacked into one (n, n_edges)
    batch, for tests that read samples across blocks."""
    return np.concatenate([*measures.sample_ggm_batch(kernel, chain, volume, n, seed)])


def sample_ggm_batch(kernel: LayerKernel, chain: FuzzyChain, volume: Volume, n: int,
                     seed: int) -> np.ndarray:
    """The per-edge sampler: the uniforms of one vertex for all n samples
    (``vertex_uniforms``) and one inverse-CDF lookup per layer for each
    edge, in the BFS order of ``scalar_orientation(volume, 0)``, which on a
    ball is the order of its step table. Vertex 0 draws the root's class."""
    q = kernel.q
    out = np.empty((n, volume.n_edges), dtype=np.int64)
    if n == 0:
        return out
    alpha_cdf = np.cumsum(chain.alpha)
    layers = np.empty((n, volume.n_vertices), dtype=np.int64)
    layers[:, 0] = np.minimum(
        np.searchsorted(alpha_cdf, vertex_uniforms(seed, n, 0), side="right"), q - 1)
    cdf = np.cumsum(kernel.rows, axis=1)
    offs = kernel.offsets
    top = len(offs) - 1
    for e, src, dst, sign in scalar_orientation(volume, 0):
        u = vertex_uniforms(seed, n, dst)
        z = np.empty(n, dtype=np.int64)
        t_src = layers[:, src]
        for t in range(q):
            mask = t_src == t
            if mask.any():
                idx = np.minimum(np.searchsorted(cdf[t], u[mask], side="right"), top)
                z[mask] = offs[idx]
        out[:, e] = z
        layers[:, dst] = (t_src + z) % q
    return out


def sample_csv(argv: list[str]) -> str:
    """The text of ``ggmtree sample`` with these arguments as ``csv.writer``
    wrote it, one row tuple per (sample, edge), from the per-edge sampler."""
    args = cli.build_parser().parse_args(["sample", *argv])
    op, d, label, kernel, chain, config = cli._setup(args, "sample", "n", "seed", "depth")
    volume = cayley_ball(d, args.depth)
    batch = sample_ggm_batch(kernel, chain, volume, args.n, args.seed)
    labels = [f"{x}>{y}" for x, y in directed_edges(volume)]
    buf = io.StringIO()
    buf.write("# " + json.dumps(cli._meta(config, cli.SAMPLE_SCHEMA_VERSION),
                                sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample", "edge", "increment"])
    writer.writerows((i, edge, z) for i, sample in enumerate(batch.tolist())
                     for edge, z in zip(labels, sample))
    return buf.getvalue()


def is_normalizable(law: PeriodicBoundaryLaw, op: TransferOperator, d: int) -> bool:
    """Single-site summability of a boundary law: always False here.

    The summand at height w is (sum_j Q(w - j) l(j))**(d + 1). For a
    q-periodic law it is q-periodic in w and bounded below by a positive
    constant, so the sum over w diverges.
    """
    return False


def stationary_by_power_iteration(matrix: np.ndarray, n_iter: int = 10_000,
                                  tol: float = 1e-15) -> np.ndarray:
    """Left fixed vector by repeated multiplication; the oracle for alpha."""
    q = len(matrix)
    pi = np.full(q, 1.0 / q)
    for _ in range(n_iter):
        nxt = pi @ matrix
        nxt /= nxt.sum()
        if np.abs(nxt - pi).max() <= tol:
            return nxt
        pi = nxt
    return pi


# ---------------------------------------------------------------------------
# windowed configurations and the scalar reference forms


def _product_blocks(sizes: list[int]) -> Iterator[np.ndarray]:
    """The tuples of ``itertools.product(*map(range, sizes))`` in its order,
    as arrays of shape (len(sizes), rows) with at most BLOCK rows each."""
    strides = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
    strides = np.array(strides, dtype=np.int64)[:, None]
    radix = np.array(sizes, dtype=np.int64)[:, None]
    total = math.prod(sizes)
    for start in range(0, total, BLOCK):
        yield np.arange(start, min(start + BLOCK, total)) // strides % radix


def _window_blocks(volume: Volume, window: IncrementWindow,
                   config_budget: int) -> Iterator[np.ndarray]:
    """All increment assignments with every entry in the window, in
    ``itertools.product`` order, as (rows, n_edges) blocks."""
    width = 2 * window.cutoff + 1
    count = width ** volume.n_edges
    if count > config_budget:
        raise VolumeTooLarge(f"{count} configurations exceed the budget {config_budget}")
    for block in _product_blocks([width] * volume.n_edges):
        yield block.T - window.cutoff


def windowed_configs(volume: Volume, window: IncrementWindow,
                     config_budget: int = 10**7) -> Iterator[np.ndarray]:
    """All increment assignments with every entry in the window."""
    for block in _window_blocks(volume, window, config_budget):
        yield from block


def _bl_weight(op: TransferOperator, kernel: LayerKernel, volume: Volume, pin: int,
               s: int, zeta) -> float:
    q = kernel.q
    a = kernel.law.a
    heights = scalar_heights(volume, pin, s, zeta)
    w = 1.0
    for y in tree(volume).boundary:
        w *= a[int(heights[y]) % q]
    for e in range(volume.n_edges):
        w *= eval_q(op, int(zeta[e]))
    return w


def pinned_prob_bl(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                   pin_class: int, zeta: GradientConfiguration, pin: int = 0) -> float:
    """Probability of a full edge configuration in the boundary-law form:
    boundary factors at the outer layer times bare edge weights, normalized by
    the exact partition sum."""
    if not tree(volume).full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    z = _bl_partition(kernel, volume, pin)[pin_class]
    return _bl_weight(op, kernel, volume, pin, pin_class, zeta.increments) / z


def ggm_prob(kernel: LayerKernel, chain: FuzzyChain, volume: Volume,
             zeta: GradientConfiguration, pin: int | None = None) -> float:
    """Mixture of pinned product probabilities over the stationary layer
    distribution; the pin vertex is arbitrary (homogeneity is a testable
    property, not an input)."""
    w = 0 if pin is None else pin
    return float(sum(
        chain.alpha[s] * step_product_probs(kernel, volume, w, s, [zeta.increments])[0]
        for s in range(kernel.q)
    ))


def alt_ggm_prob(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                 zeta: GradientConfiguration) -> float:
    """Class-summed boundary-law form of the homogeneous measure, which never
    references the stationary distribution."""
    if not tree(volume).full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    parts = _bl_partition(kernel, volume, 0)
    num = sum(_bl_weight(op, kernel, volume, 0, k, zeta.increments)
              for k in range(kernel.q))
    return float(num / parts.sum())


def coupling_expectation(kernel: LayerKernel, chain: FuzzyChain, volume: Volume,
                         func: Callable[[GradientConfiguration, dict], float],
                         config_budget: int = 10**7) -> float:
    """Expectation of a bounded function of (gradient configuration, layer
    labels) under the joint measure that draws the pin class from the
    stationary distribution and the increments from the kernel.

    The labels handed to ``func`` are exactly the classes reached from the
    drawn pin class, so label and gradient arguments are always compatible.
    """
    alpha = chain.alpha
    q = kernel.q
    total = 0.0
    for Z in _window_blocks(volume, kernel.window, config_budget):
        probs = [alpha[s] * step_product_probs(kernel, volume, 0, s, Z) for s in range(q)]
        for i, arr in enumerate(Z):
            cfg = GradientConfiguration(volume, tuple(int(v) for v in arr))
            for s in range(q):
                p = probs[s][i]
                if p == 0.0:
                    continue
                labels = dict(enumerate(vertex_layers(volume, q, 0, s, arr)))
                total += p * func(cfg, labels)
    return float(total)


def bond_marginals_by_position(ce: CounterexampleChain, n_edges: int) -> np.ndarray:
    """Single-bond marginals P(zeta_i = v) for every position i and
    v in {-1, 0, 1}, by full enumeration; translation invariance makes the
    rows identical."""
    out = np.zeros((n_edges, 3))
    for combo in itertools.product((-1, 0, 1), repeat=n_edges):
        p = path_mixture_prob(ce, combo)
        for i, z in enumerate(combo):
            out[i, z + 1] += p
    return out


# ---------------------------------------------------------------------------
# the exact class scans the certificates replaced


def _residue_layer_blocks(volume: Volume, pin: int, q: int,
                          edges) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of the residue vectors on ``edges`` (other edges have residue
    0) in ``itertools.product`` order, shape (len(edges), rows), each with
    the layers reached from class 0 at ``pin``, shape (n_vertices, rows)."""
    column = {e: j for j, e in enumerate(edges)}
    for R in _product_blocks([q] * len(edges)):
        layers = np.zeros((volume.n_vertices, R.shape[1]), dtype=np.int64)
        for e, src, dst, sign in scalar_orientation(volume, pin):
            step = sign * R[column[e]] if e in column else 0
            layers[dst] = (layers[src] + step) % q
        yield R, layers


def scan_consistency(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                     pin_class: int, inner, mixture: bool = False,
                     chain: FuzzyChain | None = None, config_budget: int = 10**7,
                     pin: int = 0) -> tuple[float, float]:
    """The largest difference between the two sides of ``check_consistency``
    over the windowed inner configurations and the largest
    |marginal / direct - 1|, by scanning the
    q**|inner edges| residue classes of the inner increments
    (``config_budget`` bounds that count). This is exact: both sides are the
    product of the inner Q factors times factors of the inner-boundary
    layers, which only see residues, so a class's largest difference is its
    gap times the largest product, the product of per-edge maxima.
    """
    if not tree(volume).full:
        raise ValueError("consistency checks need a closed regular volume")
    q = kernel.q
    ids = _interior_set(volume, inner)
    if pin not in ids:
        raise ValueError("the pin vertex must belong to the inner volume")
    inner_edges = edges_touching(volume, ids)
    inner_boundary = adjacent_outside(volume, ids)
    a = kernel.law.as_array()
    hang = _hanging_factors(kernel, volume, pin, inner_boundary)
    z_big = _bl_partition(kernel, volume, pin)
    C = kernel.circulant
    f = [a.copy() if v in inner_boundary else np.ones(q)
         for v in range(volume.n_vertices)]
    for e, src, dst, sign in reversed(scalar_orientation(volume, pin)):
        if e in inner_edges:
            f[src] = f[src] * (C @ f[dst])
    z_inner = f[pin]

    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")
    s_values = range(q) if mixture else [pin_class]

    count = q ** len(inner_edges)
    if count > config_budget:
        raise VolumeTooLarge(f"{count} inner residue classes exceed {config_budget}")

    maxq = _max_q_per_residue(op, kernel)
    worst = ratio = 0.0
    for R, layers in _residue_layer_blocks(volume, pin, q, inner_edges):
        qp = np.prod(maxq[R], axis=0)
        marg = direct = 0.0
        for s in s_values:
            w = float(chain.alpha[s]) if mixture else 1.0
            t = [(layers[v] + s) % q for v in inner_boundary]
            m = np.prod([hang[v][tv] for v, tv in zip(inner_boundary, t)], axis=0)
            marg = marg + w * (qp * m) / z_big[s]
            direct = direct + w * (qp * np.prod(a[t], axis=0)) / z_inner[s]
        worst = max(worst, float(np.max(np.abs(marg - direct))))
        # a class none of whose increments is in the window (cutoff < q/2)
        # holds no configuration, and both sides are 0 there
        live = qp > 0.0
        ratio = max(ratio, float(np.max(np.abs(marg[live] / direct[live] - 1.0), initial=0.0)))
    return worst, ratio


def scan_homogeneity(kernel: LayerKernel, chain: FuzzyChain, volume: Volume,
                     pins: Iterable[int], n_configs: int = 256, seed: int = 7,
                     enumerate_budget: int = 4096) -> tuple[float, float]:
    """Evaluate the mixture probability with several pin vertices on identical
    configurations; returns the largest pairwise difference and the largest
    pairwise |ratio - 1|, over the configurations where some pin gives a
    positive probability (inf if another gives 0 there).

    All windowed configurations are used when there are at most
    ``enumerate_budget``, otherwise a sample from the library's sampler plus
    the all-zero configuration. Each pin evaluates the whole batch at once.
    """
    total = (2 * kernel.window.cutoff + 1) ** volume.n_edges
    if total <= enumerate_budget:
        configs = np.concatenate(list(_window_blocks(volume, kernel.window, total)))
    else:
        # typical configurations, so the compared probabilities carry mass
        configs = np.vstack([*measures.sample_ggm_batch(kernel, chain, volume, n_configs, seed),
                             np.zeros((1, volume.n_edges), dtype=np.int64)])
    alpha = chain.alpha
    probs = np.array([
        sum(alpha[s] * step_product_probs(kernel, volume, w, s, configs)
            for s in range(kernel.q))
        for w in pins
    ])
    top, bottom = probs.max(axis=0), probs.min(axis=0)
    live = top > 0.0
    with np.errstate(divide="ignore"):
        ratio = float(np.max(top[live] / bottom[live] - 1.0, initial=0.0))
    return max(0.0, float(np.max(top - bottom))), ratio


def _restricted_class(kernel: LayerKernel, volume: Volume, inner,
                      outside: Mapping[int, int] | None,
                      reference: Mapping[int, int] | None,
                      config_budget: int, pin: int) -> tuple[np.ndarray, list[int]]:
    """The members of ``check_restricted_dlr``'s boundary-height class as
    rows, with the inner edges, by a scan of the (2*cutoff+1)**|inner|
    choices of the increment on the edge entering each inner vertex from the
    pin side (``config_budget`` bounds that count). It is exhaustive: some
    inner-boundary vertex is tied to the pin through outside edges, so the
    class is the set of windowed configurations that keep the reference
    heights on every vertex outside the sub-volume, and those choices fix the
    inner heights. The members are kept in the ``itertools.product`` order
    of their inner increments.
    """
    ids = _interior_set(volume, inner)
    if pin in ids:
        raise PinInsideInner("conditioning volume must avoid the pin vertex")
    inner_edges = edges_touching(volume, ids)

    base = np.zeros(volume.n_edges, dtype=np.int64)
    if outside is not None:
        for e, z in outside.items():
            if e in inner_edges:
                raise ValueError("outside assignment hit an inner edge")
            base[e] = int(z)
    if reference is not None:
        for e, z in reference.items():
            if e not in inner_edges:
                raise ValueError("reference assignment must live on inner edges")
            base[e] = int(z)

    cutoff = kernel.window.cutoff
    count = (2 * cutoff + 1) ** len(ids)
    if count > config_budget:
        raise VolumeTooLarge(f"{count} inner height choices exceed {config_budget}")

    orient = scalar_orientation(volume, pin)
    movers = [dst for e, src, dst, sign in orient if dst in ids]
    fixed = scalar_heights(volume, pin, 0, base)
    kept = []
    for T in _product_blocks([2 * cutoff + 1] * len(movers)):
        step = dict(zip(movers, T - cutoff))
        h = list(fixed)
        Z = np.empty((T.shape[1], volume.n_edges), dtype=np.int64)
        for e, src, dst, sign in orient:
            if dst in step:
                h[dst] = h[src] + step[dst]
            Z[:, e] = sign * (h[dst] - h[src])
        kept.append(Z[np.all(np.abs(Z[:, inner_edges]) <= cutoff, axis=1)])
    Z = np.concatenate(kept)
    return Z[np.lexsort(Z[:, inner_edges[::-1]].T)], inner_edges


def ratio_range(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                pin_class: int, inner,
                outside: Mapping[int, int] | None = None,
                reference: Mapping[int, int] | None = None,
                mixture: bool = False, chain: FuzzyChain | None = None,
                pin: int = 0) -> float:
    """max / min over the boundary-height class of the joint probability p
    over the bare weight b."""
    Z, inner_edges = _restricted_class(kernel, volume, inner, outside, reference, 10**7, pin)
    s_values = range(kernel.q) if mixture else [pin_class]
    joint = sum((chain.alpha[s] if mixture else 1.0)
                * step_product_probs(kernel, volume, pin, s, Z)
                for s in s_values)
    ratio = joint / np.prod(weights(op, kernel)[Z[:, inner_edges] + kernel.window.cutoff], axis=1)
    return float(ratio.max() / ratio.min())


def scan_restricted_dlr(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                        pin_class: int, inner,
                        outside: Mapping[int, int] | None = None,
                        reference: Mapping[int, int] | None = None,
                        mixture: bool = False, chain: FuzzyChain | None = None,
                        config_budget: int = 10**7, pin: int = 0) -> float:
    """``check_restricted_dlr``'s exact value over the members of
    ``_restricted_class``."""
    cutoff = kernel.window.cutoff
    Z, inner_edges = _restricted_class(kernel, volume, inner, outside, reference, config_budget,
                                       pin)
    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")
    if mixture:
        joint = sum(chain.alpha[s] * step_product_probs(kernel, volume, pin, s, Z)
                    for s in range(kernel.q))
    else:
        joint = step_product_probs(kernel, volume, pin, pin_class, Z)
    bare = np.prod(weights(op, kernel)[Z[:, inner_edges] + cutoff], axis=1)
    if joint.sum() == 0.0:
        raise ValueError("conditioning event has zero probability")
    return float(np.max(np.abs(joint / joint.sum() - bare / bare.sum())))


def _scan_dual_gap(op: TransferOperator, kernel: LayerKernel, volume: Volume, pin: int,
                   alpha: Mapping[int, float], classes, z: float,
                   residue_budget: int) -> tuple[float, float]:
    """Largest |sum_s alpha[s] * (product form from class s at the pin)
    - sum_k (boundary-law factors from class k) / z| times the largest Q
    product, over the q**edges residue vectors of the increments, and the
    largest |ratio - 1| of the two forms."""
    if not tree(volume).full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    q = kernel.q
    if q ** volume.n_edges > residue_budget:
        raise VolumeTooLarge("residue scan exceeds its budget")
    a = kernel.law.as_array()
    orient = scalar_orientation(volume, pin)
    order = [e for e, src, dst, sign in orient]
    maxq = _max_q_per_residue(op, kernel)
    boundary = sorted(tree(volume).boundary)
    worst = ratio = 0.0
    for R, layers in _residue_layer_blocks(volume, pin, q, range(volume.n_edges)):
        h1 = h2 = 0.0
        for s, w in alpha.items():
            t = (layers + s) % q
            term = np.full(R.shape[1], w)
            for e, src, dst, sign in orient:
                term = term * (a[t[dst]] / kernel.norms[t[src]])
            h1 = h1 + term
        for k in classes:
            h2 = h2 + np.prod(a[(layers[boundary] + k) % q], axis=0)
        wmax = np.prod(maxq[R[order]], axis=0)
        worst = max(worst, float(np.max(np.abs(h1 - h2 / z) * wmax)))
        ratio = max(ratio, float(np.max(np.abs(h1 / (h2 / z) - 1.0))))
    return worst, ratio


def scan_dual_gap_pinned(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                         pin_class: int, residue_budget: int = 2**21,
                         pin: int = 0) -> tuple[float, float]:
    """Exact maxima of |product form - boundary-law form| and of
    |ratio - 1| over every windowed configuration.

    Both forms share the bare product of Q factors; the remaining parts depend
    on the increments only through their residues mod q. The maximum therefore
    splits as (residue-class gap) times (largest Q product within the class),
    and scanning the q**edges residue vectors, in blocks, is exhaustive;
    ``residue_budget`` bounds that count.
    """
    z = _bl_partition(kernel, volume, pin)[pin_class]
    return _scan_dual_gap(op, kernel, volume, pin, {pin_class: 1.0}, [pin_class], z,
                          residue_budget)


def scan_dual_gap_ggm(op: TransferOperator, kernel: LayerKernel, chain: FuzzyChain,
                      volume: Volume, residue_budget: int = 2**21) -> tuple[float, float]:
    """Exact maxima of |mixture form - class-summed boundary-law form| and
    of |ratio - 1| over every windowed configuration, by the same scan of
    the q**edges residue vectors."""
    z = float(_bl_partition(kernel, volume, 0).sum())
    return _scan_dual_gap(op, kernel, volume, 0, dict(enumerate(chain.alpha)),
                          range(kernel.q), z, residue_budget)


def weights(op: TransferOperator, kernel: LayerKernel) -> np.ndarray:
    """Q(z) over the window increments, as ``build_layer_kernel`` computes
    them for its table."""
    return np.array([eval_q(op, int(z)) for z in kernel.offsets])


def kernel_prob(op: TransferOperator, kernel: LayerKernel, layer: int, zeta: int) -> float:
    """Q(zeta) a(layer + zeta) / N(layer), written out."""
    q = kernel.q
    return eval_q(op, zeta) * kernel.law.a[(layer + zeta) % q] / kernel.norms[layer % q]


def table_prob(kernel: LayerKernel, layer: int, zeta: int) -> float:
    """The entry of ``kernel.probs`` for the increment zeta at the layer;
    a ``ValueError`` beyond the cutoff."""
    cutoff = kernel.window.cutoff
    if abs(int(zeta)) > cutoff:
        raise ValueError(f"|zeta| = {abs(zeta)} exceeds cutoff {cutoff}")
    return kernel.probs[layer % kernel.q, int(zeta) + cutoff]


def shifted(law: PeriodicBoundaryLaw, j: int) -> PeriodicBoundaryLaw:
    """Cyclic shift l(i) -> l(i + j), renormalized to a[0] = 1."""
    return PeriodicBoundaryLaw.from_values([law.a[(i + j) % law.q] for i in range(law.q)])


def is_shift_of(law: PeriodicBoundaryLaw, other: PeriodicBoundaryLaw,
                atol: float = 1e-9) -> bool:
    """Whether ``law`` equals a cyclic shift of ``other`` to within atol."""
    return law.q == other.q and any(
        np.allclose(law.as_array(), shifted(other, j).as_array(), rtol=0.0, atol=atol)
        for j in range(law.q))


def free_dimension(row: np.ndarray) -> int:
    """The distinct values of a wrapped row, modulo an overall constant."""
    return len(set(row.tolist())) - 1


def balance_defect(op: TransferOperator, kernel: LayerKernel, chain: FuzzyChain) -> np.ndarray:
    """``chains.balance_defect`` from the weights, the law and the norms."""
    q = kernel.q
    ends = (np.arange(q)[:, None] + kernel.offsets) % q
    flow = chain.alpha[:, None] * (
        weights(op, kernel) * kernel.law.as_array()[ends] / kernel.norms[:, None])
    return flow - flow[ends, np.arange(len(kernel.offsets))[::-1]]


def product_probs(op: TransferOperator, kernel: LayerKernel, volume: Volume, pin: int,
                  s: int, Z) -> np.ndarray:
    """``step_product_probs`` from the weights, the law and the norms."""
    Z = np.asarray(Z, dtype=np.int64)
    q = kernel.q
    a = kernel.law.as_array()
    w = weights(op, kernel)
    layer = np.empty((volume.n_vertices, len(Z)), dtype=np.int64)
    layer[pin] = s % q
    p = np.ones(len(Z))
    for e, src, dst, sign in scalar_orientation(volume, pin):
        z = sign * Z[:, e]
        t = layer[src]
        layer[dst] = (t + z) % q
        p = p * (w[z + kernel.window.cutoff] * a[layer[dst]] / kernel.norms[t])
    return p


def two_bond_marginal(op: TransferOperator, kernel: LayerKernel, chain: FuzzyChain) -> np.ndarray:
    """Exact joint marginal of two successive edges over the window, the sum
    over the first layer s of alpha(s) P(s, z1) P(s + z1, z2), by a loop over
    both increments and the first layer."""
    offs = kernel.offsets
    q = kernel.q
    out = np.zeros((len(offs), len(offs)))
    for i, z1 in enumerate(offs):
        for s in range(q):
            p1 = chain.alpha[s] * kernel_prob(op, kernel, s, int(z1))
            t = (s + int(z1)) % q
            for j, z2 in enumerate(offs):
                out[i, j] += p1 * kernel_prob(op, kernel, t, int(z2))
    return out


def windowed_matrix(op: TransferOperator, kernel: LayerKernel) -> np.ndarray:
    """W[t, t'] = the total kernel probability of the window steps from
    layer t to layer t', by a loop over the increments."""
    q = kernel.q
    W = np.zeros((q, q))
    for t in range(q):
        for z in kernel.offsets:
            W[t, (t + int(z)) % q] += kernel_prob(op, kernel, t, int(z))
    return W


def windowed_mass(op: TransferOperator, kernel: LayerKernel, volume: Volume,
                  pin_class: int) -> float:
    """``measures.windowed_mass`` by the unscaled layer pass."""
    q = kernel.q
    W = windowed_matrix(op, kernel)
    f = [np.ones(q) for _ in range(volume.n_vertices)]
    for e, src, dst, sign in reversed(scalar_orientation(volume, 0)):
        f[src] = f[src] * (W @ f[dst])
    return float(f[0][pin_class])


def truncated_potts_row_value(q: int, beta_tilde: float, residue: int) -> float:
    denom = math.exp(beta_tilde) + q - 1
    return (math.exp(beta_tilde) if residue % q == 0 else 1.0) / denom


def truncated_potts_eval_q(q: int, beta_tilde: float, m: int) -> float:
    k, h = abs(int(m)), q // 2
    if k > h:
        return 0.0
    if k == 0:
        return truncated_potts_row_value(q, beta_tilde, 0)
    halve = 2 if (q % 2 == 0 and k == h) else 1
    return truncated_potts_row_value(q, beta_tilde, k) / halve


def truncated_potts_tail_mass(q: int, beta_tilde: float, start: int) -> float:
    return 2.0 * sum(truncated_potts_eval_q(q, beta_tilde, k) for k in range(start, q // 2 + 1))


def truncated_potts_wrapped_sum(q: int, beta_tilde: float, period: int, m: int) -> float:
    m = m % period
    if period == q:
        return truncated_potts_row_value(q, beta_tilde, m)
    cutoff = 1
    while truncated_potts_tail_mass(q, beta_tilde, cutoff) > 0.5e-14:
        cutoff *= 2
    j_lo = math.ceil((-cutoff - m) / period)
    j_hi = math.floor((cutoff - m) / period)
    return float(sum(truncated_potts_eval_q(q, beta_tilde, period * j + m)
                     for j in range(j_lo, j_hi + 1)))


def truncated_potts_interaction_matrix(q: int, beta_tilde: float, period: int) -> np.ndarray:
    row = np.array([truncated_potts_wrapped_sum(q, beta_tilde, period, m)
                    for m in range(period)])
    return row[(np.arange(period)[:, None] - np.arange(period)[None, :]) % period]


def truncated_potts_window_cutoff(q: int) -> int:
    return max(q // 2, 1)


# ---------------------------------------------------------------------------
# the Potts and Ising relations


def potts_row(q: int, beta_tilde: float) -> np.ndarray:
    """The q-state Potts transfer row: diagonal weight e**bt, off-diagonal 1,
    normalized by e**bt + q - 1."""
    denom = np.exp(beta_tilde) + q - 1
    row = np.full(q, 1.0 / denom)
    row[0] = np.exp(beta_tilde) / denom
    return row


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


def ising_type_solve(Qpp: float, Qpm: float, d: int) -> list[float]:
    """All positive fixed points of the scalar two-class recursion
    a = ((Qpm + a Qpp) / (Qpp + a Qpm))**d, by log-grid bracketing."""
    def f(a: float) -> float:
        return ((Qpm + a * Qpp) / (Qpp + a * Qpm)) ** d - a

    # a = 1 solves the symmetric equation identically
    roots = [1.0] + grid_roots(f, np.logspace(-12.0, 12.0, 4001))
    out: list[float] = []
    for r in sorted(roots):
        if not any(abs(r - s) <= 1e-9 * max(1.0, s) for s in out):
            out.append(r)
    return out


def effective_beta(op: TransferOperator, q: int) -> float:
    """Inverse temperature of the Ising/Potts model matching the wrapped row.

    q = 2 maps to Ising, q = 3 to the 3-state Potts model, and q = 4 with the
    paired ansatz (classes {0,1} vs {2,3}) back to Ising on the pair classes.
    """
    row = wrapped_row(op, q)
    if q == 2:
        return 0.5 * math.log(row[0] / row[1])
    if q == 3:
        return math.log(row[0] / row[1])
    if q == 4:
        # diagonal vs off-diagonal weight between the pair classes
        return 0.5 * math.log((row[0] + row[1]) / (row[1] + row[2]))
    raise UnsupportedPeriod(f"no effective reduction for q = {q}")


def identifiability_check(op: TransferOperator, l1: PeriodicBoundaryLaw,
                          l2: PeriodicBoundaryLaw) -> tuple[bool, float]:
    """Compare the single-bond marginals of two boundary laws of one period,
    on the wider of their certified windows.

    Returns (distinguishable, witness gap); the marginals coincide exactly
    when one law is a cyclic shift of the other.
    """
    window = max(IncrementWindow.for_model(op, l1), IncrementWindow.for_model(op, l2),
                 key=lambda w: w.cutoff)
    m1 = single_bond_marginal(op, l1, window)
    m2 = single_bond_marginal(op, l2, window)
    gap = float(np.max(np.abs(m1 - m2)))
    return gap > 1e-10, gap
