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
slow, so tests run them on depth-1 to depth-3 volumes only.

The kernel-table oracles (``kernel_prob``, ``balance_defect``,
``product_probs``, ``two_bond_marginal``, ``largest_q``, ``step_max`` and
``windowed_matrix``) are the formulas the library used before every consumer
read ``LayerKernel.probs``: each writes Q(z) a(t + z) / N(t) out again, or
loops over it, in the same order of operations, so they agree bit for bit.

``sample_ggm_batch`` is the per-edge sampler and ``sample_csv`` the
``csv.writer`` output of ``ggmtree sample``, the references for the
level-blocked sampler and the table-driven encoder. The scalar reference
forms (``pinned_prob_bl``, ``ggm_prob``, ``alt_ggm_prob``), the window
enumerator, ``coupling_expectation``, ``bond_marginals_by_position``,
``is_normalizable`` and ``stationary_by_power_iteration`` are answers the
library has no use for.

The ``truncated_potts_*`` oracles are the truncated lifted Potts operator as a
kind of its own, as the library had it before an untailed ``LiftedPotts``
became the zero-tail case of the one lifted kind: weights written out from
the Potts row, the tail summed from them, the own-period wrap read off the
Potts row, the other wraps summed numerically, the window set to the support,
and the numpy form of the Potts row.

``VolumeTooLarge`` is what the enumerating oracles raise when a volume would
exceed their state budget; the library enumerates nothing and never raises it.

The scalar tree walks are the references for the library's step tables:
``scalar_orientation`` is the one-step-at-a-time BFS that
``FiniteTreeVolume.orientation_from`` replaced, as (edge, src, dst, sign)
tuples, ``scalar_upward`` the upward pass one step at a time that the
level-batched ``measures._upward`` matches bit for bit, and
``scalar_heights`` the heights one step at a time. Every other oracle here
walks ``scalar_orientation``. ``GradientConfiguration``, ``vertex_layers``,
``pinned_prob_product``, ``sample_ggm`` and ``event_prob_ggm`` are the
test-only forms the library no longer carries: a configuration as a tuple
with edge lookups, the layers of the heights, the product form of one
configuration, one sample as a configuration, and the mixture of
``measures.event_prob_pinned``; ``pinned_probs`` walks
``measures._product_probs`` over a whole step table.
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
from ggmtree.errors import GGMError, PinInsideInner
from ggmtree.measures import Certificate, GGMSpec, PinnedMeasureSpec, _product_probs
from ggmtree.model import (
    FiniteTreeVolume,
    IncrementWindow,
    PeriodicBoundaryLaw,
    TransferOperator,
    cayley_ball,
    eval_q,
)

BLOCK = 2**14  # rows per block, so scans need O(BLOCK x vertices) memory


class VolumeTooLarge(GGMError):
    """An enumeration would exceed the configured state budget."""


# ---------------------------------------------------------------------------
# the scalar tree walks and the test-only forms of the library


@functools.lru_cache(maxsize=64)
def scalar_orientation(volume: FiniteTreeVolume,
                       w: int) -> tuple[tuple[int, int, int, int], ...]:
    """Edges in BFS order away from w as (edge_id, src, dst, sign), one step
    at a time, neighbours visited children first and then the parent.

    ``sign`` is +1 when the stored (parent, child) direction agrees with
    the traversal, so the increment along src -> dst is sign * zeta[edge].
    """
    edge_index = {e: k for k, e in enumerate(volume.directed_edges)}
    order = []
    seen = {w}
    queue = deque([w])
    while queue:
        src = queue.popleft()
        for dst in volume.neighbors(src):
            if dst in seen:
                continue
            seen.add(dst)
            if (src, dst) in edge_index:
                order.append((edge_index[(src, dst)], src, dst, 1))
            else:
                order.append((edge_index[(dst, src)], src, dst, -1))
            queue.append(dst)
    return tuple(order)


def scalar_upward(volume: FiniteTreeVolume, pin: int, matrix: np.ndarray,
                  leaf: Mapping[int, np.ndarray], edges=None,
                  maximum: bool = False) -> tuple[list[np.ndarray], np.ndarray]:
    """``measures._upward`` one step at a time, in the reverse order of
    ``scalar_orientation(volume, pin)``: v starts from ``leaf[v]`` (else
    ones) and each edge, or each one in ``edges``, multiplies the scaled
    message of ``f[dst]`` into ``f[src]``."""
    q = len(matrix)
    unit = [np.ones(q)] * volume.n_vertices
    scale = np.zeros(volume.n_vertices)
    for v, vec in leaf.items():
        top = vec.max()
        unit[v], scale[v] = vec / top, math.log(top)
    for e, src, dst, sign in reversed(scalar_orientation(volume, pin)):
        if edges is None or e in edges:
            msg = (matrix * unit[dst]).max(axis=1) if maximum else matrix @ unit[dst]
            f = unit[src] * msg
            top = f.max()
            unit[src] = f / top
            scale[src] += scale[dst] + math.log(top)
    return unit, scale


def scalar_heights(volume: FiniteTreeVolume, pin: int, s: int, zeta) -> np.ndarray:
    """Integer heights with height[pin] = s, one step at a time."""
    h = np.zeros(volume.n_vertices, dtype=np.int64)
    h[pin] = s
    for e, src, dst, sign in scalar_orientation(volume, pin):
        h[dst] = h[src] + sign * zeta[e]
    return h


def vertex_layers(volume: FiniteTreeVolume, q: int, pin: int, s: int, zeta) -> np.ndarray:
    """Mod-q layer labels reached from class s at the pin vertex."""
    return scalar_heights(volume, pin, s, zeta) % q


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
        edge_index = {e: k for k, e in enumerate(volume.directed_edges)}
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
        edge_index = {e: k for k, e in enumerate(self.volume.directed_edges)}
        if (x, y) in edge_index:
            return self.increments[edge_index[(x, y)]]
        return -self.increments[edge_index[(y, x)]]


def pinned_probs(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int, s: int,
                 Z) -> np.ndarray:
    """``measures._product_probs`` along the whole of ``orientation_from(pin)``."""
    return _product_probs(kernel, volume.orientation_from(pin), pin, s, Z)


def pinned_prob_product(spec: PinnedMeasureSpec, zeta: GradientConfiguration) -> float:
    """Probability of a full edge configuration as a product of kernel factors
    along the edges oriented away from the pin."""
    return float(pinned_probs(spec.kernel, spec.volume, spec.pin_vertex,
                              spec.pin_class, [zeta.increments])[0])


def sample_ggm(spec: GGMSpec, seed: int) -> GradientConfiguration:
    """One configuration of the library's sampler, deterministic in the seed."""
    arr = measures.sample_ggm_batch(spec, 1, seed)[0]
    return GradientConfiguration(spec.volume, tuple(int(v) for v in arr))


def event_prob_ggm(kernel: LayerKernel, chain: FuzzyChain, volume: FiniteTreeVolume,
                   vertices: Iterable[int], anchor: int,
                   zeta: Mapping[tuple[int, int], int]) -> float:
    """The stationary mixture of ``measures.event_prob_pinned``."""
    return float(sum(
        chain.alpha[s] * measures.event_prob_pinned(kernel, volume, vertices, anchor, s, zeta)
        for s in range(kernel.q)
    ))


def _product_prob(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
                  s: int, zeta) -> float:
    q = kernel.q
    layer = [0] * volume.n_vertices
    layer[pin] = s % q
    p = 1.0
    for e, src, dst, sign in scalar_orientation(volume, pin):
        z = sign * int(zeta[e])
        p *= kernel.prob(layer[src], z)
        layer[dst] = (layer[src] + z) % q
    return p


def _bl_partition(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int) -> np.ndarray:
    """Partition sums of the boundary-law weight over all integer
    configurations, as a vector over the pin class.

    One pass away from the pin: each vertex carries a vector over its layer,
    leaves start from the boundary-law values (or ones when interior), and an
    edge contracts its child vector with the wrapped interaction matrix.
    """
    q = kernel.q
    a = kernel.law.as_array()
    C = kernel.circulant
    f = [a.copy() if v in volume.boundary else np.ones(q)
         for v in range(volume.n_vertices)]
    for e, src, dst, sign in reversed(scalar_orientation(volume, pin)):
        f[src] = f[src] * (C @ f[dst])
    return f[pin]


def _interior_set(volume: FiniteTreeVolume, inner) -> set[int]:
    if isinstance(inner, FiniteTreeVolume):
        ids = inner.interior
    else:
        ids = set(int(v) for v in inner)
    if not ids <= volume.interior:
        raise ValueError("inner vertices must be interior vertices of the volume")
    return set(ids)


def _hanging_factors(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
                     boundary_of_inner: Iterable[int]) -> dict[int, np.ndarray]:
    """For each vertex on the inner boundary, the summed weight of the part of
    the volume hanging below it (away from the pin), as a vector over its
    layer. Equals the boundary law itself exactly when the law solves the
    fixed-point equation."""
    q = kernel.q
    a = kernel.law.as_array()
    C = kernel.circulant
    f = [a.copy() if v in volume.boundary else np.ones(q)
         for v in range(volume.n_vertices)]
    for e, src, dst, sign in reversed(scalar_orientation(volume, pin)):
        f[src] = f[src] * (C @ f[dst])
    return {v: f[v] for v in boundary_of_inner}


def check_consistency(spec: PinnedMeasureSpec, inner,
                      mixture: bool = False, chain: FuzzyChain | None = None,
                      config_budget: int = 10**7) -> float:
    """Marginalize the volume's boundary-law measure onto a smaller closed
    volume and compare with the directly computed smaller-volume measure.

    ``inner`` is the interior vertex set of the smaller volume (or a volume
    object, in which case its interior is used); it must contain the pin.
    With ``mixture=True`` both sides are averaged over the stationary layer
    distribution of ``chain``.
    """
    volume = spec.volume
    kernel = spec.kernel
    if not volume.full:
        raise ValueError("consistency checks need a closed regular volume")
    q = kernel.q
    ids = _interior_set(volume, inner)
    if spec.pin_vertex not in ids:
        raise ValueError("the pin vertex must belong to the inner volume")
    inner_edges = volume.edges_touching(ids)
    inner_edge_set = set(inner_edges)
    inner_boundary = volume.adjacent_outside(ids)
    hang = _hanging_factors(kernel, volume, spec.pin_vertex, inner_boundary)
    a = kernel.law.as_array()
    C = kernel.circulant
    z_big = _bl_partition(kernel, volume, spec.pin_vertex)

    # exact partition of the directly computed inner measure, by the same
    # layer pass restricted to the inner edges
    f = [a.copy() if v in inner_boundary else np.ones(q)
         for v in range(volume.n_vertices)]
    for e, src, dst, sign in reversed(scalar_orientation(volume, spec.pin_vertex)):
        if e in inner_edge_set:
            f[src] = f[src] * (C @ f[dst])
    z_inner = f[spec.pin_vertex]

    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")
    s_values = range(q) if mixture else [spec.pin_class]
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
        heights = scalar_heights(volume, spec.pin_vertex, 0, arr)
        layers_cache.append({v: int(heights[v]) for v in inner_boundary})
        qprod_cache.append(float(np.prod([eval_q(kernel.op, z) for z in combo])))

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


def check_restricted_dlr(spec: PinnedMeasureSpec, inner,
                         outside: Mapping[int, int] | None = None,
                         reference: Mapping[int, int] | None = None,
                         mixture: bool = False, chain: FuzzyChain | None = None,
                         config_budget: int = 10**7) -> float:
    """Conditional law inside a sub-volume away from the pin, given the outside
    increments and the relative boundary heights, against the bare-weight
    prediction: proportional to the product of Q factors over configurations
    in the same boundary-height class.

    ``outside`` fixes increments on edges outside the sub-volume;
    ``reference`` chooses the inner configuration whose boundary-height class
    is conditioned on (default all zeros).
    """
    volume = spec.volume
    kernel = spec.kernel
    ids = _interior_set(volume, inner)
    if spec.pin_vertex in ids:
        raise PinInsideInner("conditioning volume must avoid the pin vertex")
    inner_edges = volume.edges_touching(ids)
    inner_boundary = sorted(volume.adjacent_outside(ids))
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
        h = scalar_heights(volume, spec.pin_vertex, 0, arr)
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
            p = sum(chain.alpha[s] * _product_prob(kernel, volume, spec.pin_vertex, s, arr)
                    for s in range(kernel.q))
        else:
            p = _product_prob(kernel, volume, spec.pin_vertex, spec.pin_class, arr)
        joint.append(float(p))
        bare.append(float(np.prod([eval_q(kernel.op, int(arr[e])) for e in inner_edges])))
    joint = np.array(joint)
    bare = np.array(bare)
    if joint.sum() == 0.0:
        raise ValueError("conditioning event has zero probability")
    return float(np.max(np.abs(joint / joint.sum() - bare / bare.sum())))


def _residue_layers(volume: FiniteTreeVolume, pin: int, q: int,
                    residues) -> list[int]:
    layer = [0] * volume.n_vertices
    for e, src, dst, sign in scalar_orientation(volume, pin):
        layer[dst] = (layer[src] + sign * residues[e]) % q
    return layer


def _max_q_per_residue(kernel: LayerKernel) -> np.ndarray:
    q = kernel.q
    best = np.zeros(q)
    for z in kernel.offsets:
        w = eval_q(kernel.op, int(z))
        r = int(z) % q
        best[r] = max(best[r], w)
    return best


def max_dual_gap_pinned(spec: PinnedMeasureSpec, residue_budget: int = 2**21) -> float:
    """Exact maximum of |product form - boundary-law form| over every windowed
    configuration.

    Both forms share the bare product of Q factors; the remaining parts depend
    on the increments only through their residues mod q. The maximum therefore
    splits as (residue-class gap) times (largest Q product within the class),
    and scanning the q**edges residue vectors is exhaustive.
    """
    volume = spec.volume
    kernel = spec.kernel
    if not volume.full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    q = kernel.q
    if q ** volume.n_edges > residue_budget:
        raise VolumeTooLarge("residue scan exceeds its budget")
    a = kernel.law.as_array()
    norms = kernel.norms
    maxq = _max_q_per_residue(kernel)
    z_pin = _bl_partition(kernel, volume, spec.pin_vertex)[spec.pin_class]
    orient = scalar_orientation(volume, spec.pin_vertex)
    boundary = sorted(volume.boundary)
    worst = 0.0
    for residues in itertools.product(range(q), repeat=volume.n_edges):
        layer = [0] * volume.n_vertices
        layer[spec.pin_vertex] = spec.pin_class
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


def max_dual_gap_ggm(spec: GGMSpec, residue_budget: int = 2**21) -> float:
    """Exact maximum of |mixture form - class-summed boundary-law form| over
    every windowed configuration, by the same residue-class argument."""
    volume = spec.volume
    kernel = spec.kernel
    if not volume.full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    q = kernel.q
    if q ** volume.n_edges > residue_budget:
        raise VolumeTooLarge("residue scan exceeds its budget")
    a = kernel.law.as_array()
    norms = kernel.norms
    alpha = spec.chain.alpha
    maxq = _max_q_per_residue(kernel)
    parts = _bl_partition(kernel, volume, 0)
    z_alt = float(parts.sum())
    orient = scalar_orientation(volume, 0)
    boundary = sorted(volume.boundary)
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


def sample_ggm_batch(spec: GGMSpec, n: int, seed: int) -> np.ndarray:
    """The per-edge sampler: one ``rng.random(n)`` and one inverse-CDF lookup
    per layer for each edge, in the BFS order of ``orientation_from(0)``."""
    volume = spec.volume
    kernel = spec.kernel
    q = kernel.q
    rng = np.random.default_rng(np.random.Philox(key=int(seed) & (2**64 - 1)))
    out = np.empty((n, volume.n_edges), dtype=np.int64)
    if n == 0:
        return out
    alpha_cdf = np.cumsum(spec.chain.alpha)
    layers = np.empty((n, volume.n_vertices), dtype=np.int64)
    layers[:, 0] = np.minimum(
        np.searchsorted(alpha_cdf, rng.random(n), side="right"), q - 1)
    cdf = kernel.sampling_cdf()
    offs = kernel.offsets
    top = len(offs) - 1
    for e, src, dst, sign in scalar_orientation(volume, 0):
        u = rng.random(n)
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
    batch = sample_ggm_batch(GGMSpec(kernel, chain, volume), args.n, args.seed)
    labels = [f"{x}>{y}" for x, y in volume.directed_edges]
    buf = io.StringIO()
    buf.write("# " + json.dumps(cli._meta(config), sort_keys=True) + "\n")
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


def _window_blocks(volume: FiniteTreeVolume, window: IncrementWindow,
                   config_budget: int) -> Iterator[np.ndarray]:
    """All increment assignments with every entry in the window, in
    ``itertools.product`` order, as (rows, n_edges) blocks."""
    width = 2 * window.cutoff + 1
    count = width ** volume.n_edges
    if count > config_budget:
        raise VolumeTooLarge(f"{count} configurations exceed the budget {config_budget}")
    for block in _product_blocks([width] * volume.n_edges):
        yield block.T - window.cutoff


def windowed_configs(volume: FiniteTreeVolume, window: IncrementWindow,
                     config_budget: int = 10**7) -> Iterator[np.ndarray]:
    """All increment assignments with every entry in the window."""
    for block in _window_blocks(volume, window, config_budget):
        yield from block


def _bl_weight(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
               s: int, zeta) -> float:
    q = kernel.q
    a = kernel.law.a
    heights = scalar_heights(volume, pin, s, zeta)
    w = 1.0
    for y in volume.boundary:
        w *= a[int(heights[y]) % q]
    for e in range(volume.n_edges):
        w *= eval_q(kernel.op, int(zeta[e]))
    return w


def pinned_prob_bl(spec: PinnedMeasureSpec, zeta: GradientConfiguration) -> float:
    """Probability of a full edge configuration in the boundary-law form:
    boundary factors at the outer layer times bare edge weights, normalized by
    the exact partition sum."""
    if not spec.volume.full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    z = _bl_partition(spec.kernel, spec.volume, spec.pin_vertex)[spec.pin_class]
    return _bl_weight(spec.kernel, spec.volume, spec.pin_vertex,
                      spec.pin_class, zeta.increments) / z


def ggm_prob(spec: GGMSpec, zeta: GradientConfiguration, pin: int | None = None) -> float:
    """Mixture of pinned product probabilities over the stationary layer
    distribution; the pin vertex is arbitrary (homogeneity is a testable
    property, not an input)."""
    w = 0 if pin is None else pin
    alpha = spec.chain.alpha
    return float(sum(
        alpha[s] * pinned_probs(spec.kernel, spec.volume, w, s, [zeta.increments])[0]
        for s in range(spec.kernel.q)
    ))


def alt_ggm_prob(kernel: LayerKernel, volume: FiniteTreeVolume,
                 zeta: GradientConfiguration) -> float:
    """Class-summed boundary-law form of the homogeneous measure, which never
    references the stationary distribution."""
    if not volume.full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    parts = _bl_partition(kernel, volume, 0)
    num = sum(_bl_weight(kernel, volume, 0, k, zeta.increments)
              for k in range(kernel.q))
    return float(num / parts.sum())


def coupling_expectation(spec: GGMSpec, func: Callable[[GradientConfiguration, dict], float],
                         config_budget: int = 10**7) -> float:
    """Expectation of a bounded function of (gradient configuration, layer
    labels) under the joint measure that draws the pin class from the
    stationary distribution and the increments from the kernel.

    The labels handed to ``func`` are exactly the classes reached from the
    drawn pin class, so label and gradient arguments are always compatible.
    """
    volume = spec.volume
    alpha = spec.chain.alpha
    q = spec.kernel.q
    total = 0.0
    for Z in _window_blocks(volume, spec.kernel.window, config_budget):
        probs = [alpha[s] * pinned_probs(spec.kernel, volume, 0, s, Z) for s in range(q)]
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


def _residue_layer_blocks(volume: FiniteTreeVolume, pin: int, q: int,
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


def scan_consistency(spec: PinnedMeasureSpec, inner,
                     mixture: bool = False, chain: FuzzyChain | None = None,
                     config_budget: int = 10**7) -> Certificate:
    """The largest difference between the two sides of ``check_consistency``
    over the windowed inner configurations, with the largest
    |marginal / direct - 1| in ``relative``, by scanning the
    q**|inner edges| residue classes of the inner increments
    (``config_budget`` bounds that count). This is exact: both sides are the
    product of the inner Q factors times factors of the inner-boundary
    layers, which only see residues, so a class's largest difference is its
    gap times the largest product, the product of per-edge maxima.
    """
    volume = spec.volume
    kernel = spec.kernel
    if not volume.full:
        raise ValueError("consistency checks need a closed regular volume")
    q = kernel.q
    pin = spec.pin_vertex
    ids = _interior_set(volume, inner)
    if pin not in ids:
        raise ValueError("the pin vertex must belong to the inner volume")
    inner_edges = volume.edges_touching(ids)
    inner_boundary = volume.adjacent_outside(ids)
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
    s_values = range(q) if mixture else [spec.pin_class]

    count = q ** len(inner_edges)
    if count > config_budget:
        raise VolumeTooLarge(f"{count} inner residue classes exceed {config_budget}")

    maxq = _max_q_per_residue(kernel)
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
        ratio = max(ratio, float(np.max(np.abs(marg / direct - 1.0))))
    return Certificate(worst, ratio)


def scan_homogeneity(spec: GGMSpec, pins: Iterable[int], n_configs: int = 256,
                     seed: int = 7, enumerate_budget: int = 4096) -> float:
    """Evaluate the mixture probability with several pin vertices on identical
    configurations; returns the largest pairwise difference.

    All windowed configurations are used when there are at most
    ``enumerate_budget``, otherwise a sample from the library's sampler plus
    the all-zero configuration. Each pin evaluates the whole batch at once.
    """
    volume = spec.volume
    kernel = spec.kernel
    total = (2 * kernel.window.cutoff + 1) ** volume.n_edges
    if total <= enumerate_budget:
        configs = np.concatenate(list(_window_blocks(volume, kernel.window, total)))
    else:
        # typical configurations, so the compared probabilities carry mass
        configs = np.vstack([measures.sample_ggm_batch(spec, n_configs, seed),
                             np.zeros((1, volume.n_edges), dtype=np.int64)])
    alpha = spec.chain.alpha
    probs = np.array([
        sum(alpha[s] * pinned_probs(kernel, volume, w, s, configs)
            for s in range(kernel.q))
        for w in pins
    ])
    return max(0.0, float(np.max(probs.max(axis=0) - probs.min(axis=0))))


def _restricted_class(spec: PinnedMeasureSpec, inner,
                      outside: Mapping[int, int] | None,
                      reference: Mapping[int, int] | None,
                      config_budget: int) -> tuple[np.ndarray, list[int]]:
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
    volume = spec.volume
    kernel = spec.kernel
    ids = _interior_set(volume, inner)
    if spec.pin_vertex in ids:
        raise PinInsideInner("conditioning volume must avoid the pin vertex")
    inner_edges = volume.edges_touching(ids)

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

    orient = scalar_orientation(volume, spec.pin_vertex)
    movers = [dst for e, src, dst, sign in orient if dst in ids]
    fixed = scalar_heights(volume, spec.pin_vertex, 0, base)
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


def largest_share(spec: PinnedMeasureSpec, inner,
                  outside: Mapping[int, int] | None = None,
                  reference: Mapping[int, int] | None = None) -> float:
    """max b / sum b over the boundary-height class, b being the product of
    Q over the inner edges."""
    cutoff = spec.kernel.window.cutoff
    Z, inner_edges = _restricted_class(spec, inner, outside, reference, 10**7)
    bare = np.prod(spec.kernel.weights[Z[:, inner_edges] + cutoff], axis=1)
    return float(bare.max() / bare.sum())


def ratio_range(spec: PinnedMeasureSpec, inner,
                outside: Mapping[int, int] | None = None,
                reference: Mapping[int, int] | None = None,
                mixture: bool = False, chain: FuzzyChain | None = None) -> float:
    """max / min over the boundary-height class of the joint probability p
    over the bare weight b."""
    kernel = spec.kernel
    Z, inner_edges = _restricted_class(spec, inner, outside, reference, 10**7)
    s_values = range(kernel.q) if mixture else [spec.pin_class]
    joint = sum((chain.alpha[s] if mixture else 1.0)
                * pinned_probs(kernel, spec.volume, spec.pin_vertex, s, Z)
                for s in s_values)
    ratio = joint / np.prod(kernel.weights[Z[:, inner_edges] + kernel.window.cutoff], axis=1)
    return float(ratio.max() / ratio.min())


def scan_restricted_dlr(spec: PinnedMeasureSpec, inner,
                        outside: Mapping[int, int] | None = None,
                        reference: Mapping[int, int] | None = None,
                        mixture: bool = False, chain: FuzzyChain | None = None,
                        config_budget: int = 10**7) -> float:
    """``check_restricted_dlr``'s exact value over the members of
    ``_restricted_class``."""
    kernel = spec.kernel
    volume = spec.volume
    cutoff = kernel.window.cutoff
    Z, inner_edges = _restricted_class(spec, inner, outside, reference, config_budget)
    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")
    if mixture:
        joint = sum(chain.alpha[s] * pinned_probs(kernel, volume, spec.pin_vertex, s, Z)
                    for s in range(kernel.q))
    else:
        joint = pinned_probs(kernel, volume, spec.pin_vertex, spec.pin_class, Z)
    bare = np.prod(kernel.weights[Z[:, inner_edges] + cutoff], axis=1)
    if joint.sum() == 0.0:
        raise ValueError("conditioning event has zero probability")
    return float(np.max(np.abs(joint / joint.sum() - bare / bare.sum())))


def _scan_dual_gap(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
                   alpha: Mapping[int, float], classes, z: float,
                   residue_budget: int) -> Certificate:
    """Largest |sum_s alpha[s] * (product form from class s at the pin)
    - sum_k (boundary-law factors from class k) / z| times the largest Q
    product, over the q**edges residue vectors of the increments, with the
    largest |ratio - 1| of the two forms in ``relative``."""
    if not volume.full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    q = kernel.q
    if q ** volume.n_edges > residue_budget:
        raise VolumeTooLarge("residue scan exceeds its budget")
    a = kernel.law.as_array()
    orient = scalar_orientation(volume, pin)
    order = [e for e, src, dst, sign in orient]
    maxq = _max_q_per_residue(kernel)
    boundary = sorted(volume.boundary)
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
    return Certificate(worst, ratio)


def scan_dual_gap_pinned(spec: PinnedMeasureSpec, residue_budget: int = 2**21) -> Certificate:
    """Exact maximum of |product form - boundary-law form| over every
    windowed configuration, with the exact maximum of |ratio - 1| in
    ``relative``.

    Both forms share the bare product of Q factors; the remaining parts depend
    on the increments only through their residues mod q. The maximum therefore
    splits as (residue-class gap) times (largest Q product within the class),
    and scanning the q**edges residue vectors, in blocks, is exhaustive;
    ``residue_budget`` bounds that count.
    """
    s = spec.pin_class
    z = _bl_partition(spec.kernel, spec.volume, spec.pin_vertex)[s]
    return _scan_dual_gap(spec.kernel, spec.volume, spec.pin_vertex, {s: 1.0}, [s], z,
                          residue_budget)


def scan_dual_gap_ggm(spec: GGMSpec, residue_budget: int = 2**21) -> Certificate:
    """Exact maximum of |mixture form - class-summed boundary-law form| over
    every windowed configuration, with that of |ratio - 1| in ``relative``,
    by the same scan of the q**edges residue vectors."""
    z = float(_bl_partition(spec.kernel, spec.volume, 0).sum())
    return _scan_dual_gap(spec.kernel, spec.volume, 0, dict(enumerate(spec.chain.alpha)),
                          range(spec.kernel.q), z, residue_budget)


def kernel_prob(kernel: LayerKernel, layer: int, zeta: int) -> float:
    """Q(zeta) a(layer + zeta) / N(layer), written out."""
    q = kernel.q
    return eval_q(kernel.op, zeta) * kernel.law.a[(layer + zeta) % q] / kernel.norms[layer % q]


def balance_defect(kernel: LayerKernel, chain: FuzzyChain) -> np.ndarray:
    """``chains.balance_defect`` from the weights, the law and the norms."""
    q = kernel.q
    ends = (np.arange(q)[:, None] + kernel.offsets) % q
    flow = chain.alpha[:, None] * (
        kernel.weights * kernel.law.as_array()[ends] / kernel.norms[:, None])
    return flow - flow[ends, np.arange(len(kernel.offsets))[::-1]]


def product_probs(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
                  s: int, Z) -> np.ndarray:
    """``measures._product_probs`` from the weights, the law and the norms."""
    Z = np.asarray(Z, dtype=np.int64)
    q = kernel.q
    a = kernel.law.as_array()
    layer = np.empty((volume.n_vertices, len(Z)), dtype=np.int64)
    layer[pin] = s % q
    p = np.ones(len(Z))
    for e, src, dst, sign in scalar_orientation(volume, pin):
        z = sign * Z[:, e]
        t = layer[src]
        layer[dst] = (t + z) % q
        p = p * (kernel.weights[z + kernel.window.cutoff] * a[layer[dst]] / kernel.norms[t])
    return p


def two_bond_marginal(kernel: LayerKernel, chain: FuzzyChain) -> np.ndarray:
    """``measures.two_bond_marginal`` by a loop over both increments and the
    first layer."""
    offs = kernel.offsets
    q = kernel.q
    out = np.zeros((len(offs), len(offs)))
    for i, z1 in enumerate(offs):
        for s in range(q):
            p1 = chain.alpha[s] * kernel_prob(kernel, s, int(z1))
            t = (s + int(z1)) % q
            for j, z2 in enumerate(offs):
                out[i, j] += p1 * kernel_prob(kernel, t, int(z2))
    return out


def largest_q(kernel: LayerKernel) -> np.ndarray:
    """M[t, t'] = the largest Q(z) over the window increments z = t' - t
    mod q, by residue."""
    q = kernel.q
    best = np.zeros(q)
    np.maximum.at(best, kernel.offsets % q, kernel.weights)
    return best[(np.arange(q)[None, :] - np.arange(q)[:, None]) % q]


def step_max(kernel: LayerKernel) -> np.ndarray:
    """The largest kernel probability of a step from layer t to layer t'."""
    return largest_q(kernel) * kernel.law.as_array() / kernel.norms[:, None]


def windowed_matrix(kernel: LayerKernel) -> np.ndarray:
    """W[t, t'] = the total kernel probability of the window steps from
    layer t to layer t', by a loop over the increments."""
    q = kernel.q
    W = np.zeros((q, q))
    for t in range(q):
        for z in kernel.offsets:
            W[t, (t + int(z)) % q] += kernel_prob(kernel, t, int(z))
    return W


def windowed_mass(spec: PinnedMeasureSpec) -> float:
    """``measures.windowed_mass`` by the unscaled layer pass."""
    q = spec.kernel.q
    W = windowed_matrix(spec.kernel)
    f = [np.ones(q) for _ in range(spec.volume.n_vertices)]
    for e, src, dst, sign in reversed(scalar_orientation(spec.volume, spec.pin_vertex)):
        f[src] = f[src] * (W @ f[dst])
    return float(f[spec.pin_vertex][spec.pin_class])


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


def potts_row(q: int, beta_tilde: float) -> np.ndarray:
    denom = np.exp(beta_tilde) + q - 1
    row = np.full(q, 1.0 / denom)
    row[0] = np.exp(beta_tilde) / denom
    return row
