"""Finite-volume marginals of pinned gradient measures and their mixtures.

Two equivalent representations are implemented for the measure pinned to a
mod-q class at a vertex: the edge-by-edge product of layer-kernel factors,
and the boundary-law form (boundary factors times bare edge weights, divided
by a partition sum). Mixing the pinned measure over the stationary layer
distribution gives the homogeneous gradient measure; an alternative form sums
the boundary-law weight over a global class shift instead.

All normalizers are computed exactly by one upward pass (``_upward``) that
keeps one vector per vertex indexed by the mod-q layer. No verifier check
visits integer configurations one at a time; each scans classes of them in
numpy blocks of at most ``BLOCK`` rows, and its docstring says why the scan is
exact. The dual-gap scans visit the q**edges residue vectors, the consistency
check the q**|inner edges| residue classes of the inner increments, and the
restricted conditional check the (2*cutoff+1)**|inner| heights of the inner
vertices; the homogeneity check evaluates its configurations as one batch.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .chains import FuzzyChain, LayerKernel
from .errors import OutOfWindow, PinInsideInner, VolumeTooLarge
from .model import (
    FiniteTreeVolume,
    GradientConfiguration,
    IncrementWindow,
    PeriodicBoundaryLaw,
    TransferOperator,
    eval_q,
    vertex_heights,
    vertex_layers,
    wrapped_row,
)

__all__ = [
    "PinnedMeasureSpec",
    "GGMSpec",
    "pinned_prob_product",
    "pinned_prob_bl",
    "ggm_prob",
    "alt_ggm_prob",
    "coupling_expectation",
    "sample_ggm",
    "sample_ggm_batch",
    "check_consistency",
    "check_homogeneity",
    "check_restricted_dlr",
    "max_dual_gap_pinned",
    "max_dual_gap_ggm",
    "windowed_configs",
    "windowed_mass",
    "event_prob_pinned",
    "event_prob_ggm",
    "single_bond_marginal",
    "two_bond_marginal",
]

BLOCK = 2**14  # rows per block, so scans need O(BLOCK x vertices) memory
DRAW_BLOCK = 2**16  # uniforms per sampler draw, so a level needs O(DRAW_BLOCK) memory


@dataclass(frozen=True, eq=False)
class PinnedMeasureSpec:
    """A layer kernel on a volume with the pin vertex and its class."""

    kernel: LayerKernel
    volume: FiniteTreeVolume
    pin_vertex: int
    pin_class: int

    def __post_init__(self):
        if self.pin_vertex not in self.volume.interior:
            raise ValueError("pin vertex must be an interior vertex of the volume")
        if not 0 <= self.pin_class < self.kernel.q:
            raise ValueError("pin class must lie in 0 .. q-1")


@dataclass(frozen=True, eq=False)
class GGMSpec:
    """A layer kernel, its fuzzy chain, and the volume to evaluate on."""

    kernel: LayerKernel
    chain: FuzzyChain
    volume: FiniteTreeVolume

    def __post_init__(self):
        if self.kernel.q != self.chain.q:
            raise ValueError("kernel and chain periods disagree")


# ---------------------------------------------------------------------------
# the two pinned representations


def _product_probs(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
                   s: int, Z) -> np.ndarray:
    """Product-form probabilities of the rows of Z pinned to class s at
    ``pin``: each edge walked away from the pin from layer t contributes
    Q(z) a[(t + z) % q] / N(t), as ``LayerKernel.prob`` (not the window-
    renormalized rows)."""
    Z = np.asarray(Z, dtype=np.int64)
    cutoff = kernel.window.cutoff
    if Z.size and np.abs(Z).max() > cutoff:
        raise OutOfWindow(f"|zeta| = {np.abs(Z).max()} exceeds cutoff {cutoff}")
    q = kernel.q
    a = kernel.law.as_array()
    layer = np.empty((volume.n_vertices, len(Z)), dtype=np.int64)
    layer[pin] = s % q
    p = np.ones(len(Z))
    for e, src, dst, sign in volume.orientation_from(pin):
        z = sign * Z[:, e]
        t = layer[src]
        layer[dst] = (t + z) % q
        p = p * (kernel.weights[z + cutoff] * a[layer[dst]] / kernel.norms[t])
    return p


def pinned_prob_product(spec: PinnedMeasureSpec, zeta: GradientConfiguration) -> float:
    """Probability of a full edge configuration as a product of kernel factors
    along the edges oriented away from the pin."""
    return float(_product_probs(spec.kernel, spec.volume, spec.pin_vertex,
                                spec.pin_class, [zeta.increments])[0])


def _upward(volume: FiniteTreeVolume, pin: int, matrix: np.ndarray,
            leaf: Mapping[int, np.ndarray], edges=None) -> list[np.ndarray]:
    """The pass from the leaves towards ``pin`` over mod-q layer vectors:
    v starts from ``leaf[v]`` (else ones) and each edge, or each one in
    ``edges``, multiplies ``matrix @ f[dst]`` into ``f[src]``. Then f[v] is the
    weight of the part of the volume below v (away from the pin) by layer."""
    q = len(matrix)
    f = [leaf[v] if v in leaf else np.ones(q) for v in range(volume.n_vertices)]
    for e, src, dst, sign in reversed(volume.orientation_from(pin)):
        if edges is None or e in edges:
            f[src] = f[src] * (matrix @ f[dst])
    return f


def _bl_partition(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int) -> np.ndarray:
    """Partition sums of the boundary-law weight over all integer
    configurations, as a vector over the pin class: the upward pass with the
    wrapped interaction matrix, from the boundary-law values at the boundary."""
    leaf = dict.fromkeys(volume.boundary, kernel.law.as_array())
    return _upward(volume, pin, kernel.circulant, leaf)[pin]


def _bl_weight(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
               s: int, zeta) -> float:
    q = kernel.q
    a = kernel.law.a
    heights = vertex_heights(volume, pin, s, zeta)
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


# ---------------------------------------------------------------------------
# homogeneous mixtures


def ggm_prob(spec: GGMSpec, zeta: GradientConfiguration, pin: int | None = None) -> float:
    """Mixture of pinned product probabilities over the stationary layer
    distribution; the pin vertex is arbitrary (homogeneity is a testable
    property, not an input)."""
    w = 0 if pin is None else pin
    alpha = spec.chain.alpha
    return float(sum(
        alpha[s] * _product_probs(spec.kernel, spec.volume, w, s, [zeta.increments])[0]
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


# ---------------------------------------------------------------------------
# coupling of layers and gradients


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
        probs = [alpha[s] * _product_probs(spec.kernel, volume, 0, s, Z) for s in range(q)]
        for i, arr in enumerate(Z):
            cfg = GradientConfiguration(volume, tuple(int(v) for v in arr))
            for s in range(q):
                p = probs[s][i]
                if p == 0.0:
                    continue
                labels = dict(enumerate(vertex_layers(volume, q, 0, s, arr)))
                total += p * func(cfg, labels)
    return float(total)


# ---------------------------------------------------------------------------
# sampling


def sample_ggm_batch(spec: GGMSpec, n: int, seed: int) -> np.ndarray:
    """n independent configurations as an (n, n_edges) array.

    Counter-based generator keyed by the seed: the same (seed, n) always
    yields the same batch, independent of how the caller schedules work.
    The class of vertex 0 is drawn from ``n`` uniforms, then the increments
    of each edge, in the BFS order of ``orientation_from(0)``, from ``n``
    more. The edges of one BFS level are drawn together, as (edges, n)
    blocks of at most ``DRAW_BLOCK`` uniforms (but one edge at least). A
    block takes its uniforms from the stream in the order in which one draw
    per edge would take them, so the batch does not depend on the blocking,
    bit for bit. The inverse-CDF lookup runs once per block and source layer.
    """
    volume = spec.volume
    kernel = spec.kernel
    q = kernel.q
    rng = np.random.default_rng(np.random.Philox(key=int(seed) & (2**64 - 1)))
    out = np.empty((n, volume.n_edges), dtype=np.int64)
    if n == 0:
        return out
    alpha_cdf = np.cumsum(spec.chain.alpha)
    # a layer is a residue below q: the smallest integer type holding q - 1
    layers = np.empty((volume.n_vertices, n), dtype=np.min_scalar_type(q - 1))
    layers[0] = np.minimum(np.searchsorted(alpha_cdf, rng.random(n), side="right"), q - 1)
    cdf = kernel.sampling_cdf()
    offs = kernel.offsets
    top = len(offs) - 1
    per_draw = max(1, DRAW_BLOCK // n)  # edges
    # away from the root every edge runs parent -> child (sign +1), and BFS
    # visits the levels one after another
    for _, steps in itertools.groupby(volume.orientation_from(0),
                                      key=lambda step: volume.depth[step[2]]):
        steps = np.array(list(steps), dtype=np.int64)
        for start in range(0, len(steps), per_draw):
            e, src, dst, _ = steps[start:start + per_draw].T
            u = rng.random((len(e), n))
            t_src = layers[src]
            z = np.empty(t_src.shape, dtype=np.int64)
            for t in range(q):
                mask = t_src == t
                if mask.any():
                    idx = np.minimum(np.searchsorted(cdf[t], u[mask], side="right"), top)
                    z[mask] = offs[idx]
            out[:, e] = z.T
            layers[dst] = (t_src + z) % q
    return out


def sample_ggm(spec: GGMSpec, seed: int) -> GradientConfiguration:
    """One configuration, deterministic in the seed."""
    arr = sample_ggm_batch(spec, 1, seed)[0]
    return GradientConfiguration(spec.volume, tuple(int(v) for v in arr))


# ---------------------------------------------------------------------------
# enumeration helpers


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


def windowed_mass(spec: PinnedMeasureSpec) -> float:
    """Total product-form probability of the windowed configuration space,
    computed by the layer pass (equals one minus the truncated tail)."""
    kernel = spec.kernel
    q = kernel.q
    W = np.zeros((q, q))
    for t in range(q):
        for z in kernel.offsets:
            W[t, (t + int(z)) % q] += kernel.prob(t, int(z))
    f = _upward(spec.volume, spec.pin_vertex, W, {})
    return float(f[spec.pin_vertex][spec.pin_class])


# ---------------------------------------------------------------------------
# event probabilities on sub-volumes


def event_prob_pinned(kernel: LayerKernel, volume: FiniteTreeVolume,
                      vertices: Iterable[int], anchor: int, s: int,
                      zeta: Mapping[tuple[int, int], int]) -> float:
    """Probability that the edges induced by ``vertices`` carry exactly the
    given increments, under the measure pinned to class s at ``anchor``.

    ``anchor`` must belong to the (connected) vertex set, so all layers along
    the induced edges are determined inside it. The edges are walked in
    ``volume.orientation_from(anchor)`` order, restricted to those reached
    from the anchor inside the set.
    """
    vs = set(vertices)
    if anchor not in vs:
        raise ValueError("anchor must belong to the event's vertex set")
    q = kernel.q
    layer = {anchor: s % q}
    p = 1.0
    for e, src, dst, sign in volume.orientation_from(anchor):
        if src in layer and dst in vs:
            z = sign * int(zeta[volume.directed_edges[e]])
            p *= kernel.prob(layer[src], z)
            layer[dst] = (layer[src] + z) % q
    return p


def event_prob_ggm(kernel: LayerKernel, chain: FuzzyChain, volume: FiniteTreeVolume,
                   vertices: Iterable[int], anchor: int,
                   zeta: Mapping[tuple[int, int], int]) -> float:
    return float(sum(
        chain.alpha[s] * event_prob_pinned(kernel, volume, vertices, anchor, s, zeta)
        for s in range(kernel.q)
    ))


def single_bond_marginal(op: TransferOperator, law: PeriodicBoundaryLaw,
                         window: IncrementWindow) -> np.ndarray:
    """Exact one-edge marginal of the homogeneous measure over the window:
    proportional to Q(z) * sum_s l(s) l(s + z)."""
    q = law.q
    a = law.as_array()
    overlap = np.array([float(np.dot(a, np.roll(a, -r))) for r in range(q)])
    z_total = float(np.dot(wrapped_row(op, q), overlap))
    offs = window.offsets
    vals = np.array([eval_q(op, int(z)) * overlap[int(z) % q] for z in offs])
    return vals / z_total


def two_bond_marginal(kernel: LayerKernel, chain: FuzzyChain) -> np.ndarray:
    """Exact joint marginal of two successive edges over the window."""
    offs = kernel.offsets
    K = len(offs)
    q = kernel.q
    out = np.zeros((K, K))
    for i, z1 in enumerate(offs):
        for s in range(q):
            p1 = chain.alpha[s] * kernel.prob(s, int(z1))
            t = (s + int(z1)) % q
            for j, z2 in enumerate(offs):
                out[i, j] += p1 * kernel.prob(t, int(z2))
    return out


# ---------------------------------------------------------------------------
# verification: consistency, homogeneity, restricted conditional structure


def _interior_set(volume: FiniteTreeVolume, inner) -> set[int]:
    if isinstance(inner, FiniteTreeVolume):
        ids = inner.interior
    else:
        ids = set(int(v) for v in inner)
    if not ids <= volume.interior:
        raise ValueError("inner vertices must be interior vertices of the volume")
    return set(ids)


def _residue_layers(volume: FiniteTreeVolume, pin: int, q: int,
                    edges) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of the residue vectors on ``edges`` (other edges have residue
    0) in ``itertools.product`` order, shape (len(edges), rows), each with
    the layers reached from class 0 at ``pin``, shape (n_vertices, rows)."""
    column = {e: j for j, e in enumerate(edges)}
    for R in _product_blocks([q] * len(edges)):
        layers = np.zeros((volume.n_vertices, R.shape[1]), dtype=np.int64)
        for e, src, dst, sign in volume.orientation_from(pin):
            step = sign * R[column[e]] if e in column else 0
            layers[dst] = (layers[src] + step) % q
        yield R, layers


def _max_q_per_residue(kernel: LayerKernel) -> np.ndarray:
    best = np.zeros(kernel.q)
    np.maximum.at(best, kernel.offsets % kernel.q, kernel.weights)
    return best


def check_consistency(spec: PinnedMeasureSpec, inner,
                      mixture: bool = False, chain: FuzzyChain | None = None,
                      config_budget: int = 10**7) -> float:
    """Marginalize the volume's boundary-law measure onto a smaller closed
    volume and compare with the directly computed smaller-volume measure.

    ``inner`` is the interior vertex set of the smaller volume (or a volume
    object, in which case its interior is used); it must contain the pin.
    With ``mixture=True`` both sides are averaged over the stationary layer
    distribution of ``chain``.

    Returns the largest difference over the windowed inner configurations by
    scanning the q**|inner edges| residue classes of the inner increments
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
    # the weight hanging below each inner-boundary vertex equals the boundary
    # law itself exactly when the law solves the fixed-point equation
    hang = _upward(volume, pin, kernel.circulant, dict.fromkeys(volume.boundary, a))
    z_big = hang[pin]
    z_inner = _upward(volume, pin, kernel.circulant, dict.fromkeys(inner_boundary, a),
                      set(inner_edges))[pin]

    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")
    s_values = range(q) if mixture else [spec.pin_class]

    count = q ** len(inner_edges)
    if count > config_budget:
        raise VolumeTooLarge(f"{count} inner residue classes exceed {config_budget}")

    maxq = _max_q_per_residue(kernel)
    worst = 0.0
    for R, layers in _residue_layers(volume, pin, q, inner_edges):
        qp = np.prod(maxq[R], axis=0)
        marg = direct = 0.0
        for s in s_values:
            w = float(chain.alpha[s]) if mixture else 1.0
            t = [(layers[v] + s) % q for v in inner_boundary]
            m = np.prod([hang[v][tv] for v, tv in zip(inner_boundary, t)], axis=0)
            marg = marg + w * (qp * m) / z_big[s]
            direct = direct + w * (qp * np.prod(a[t], axis=0)) / z_inner[s]
        worst = max(worst, float(np.max(np.abs(marg - direct))))
    return worst


def check_homogeneity(spec: GGMSpec, pins: Iterable[int], n_configs: int = 256,
                      seed: int = 7, enumerate_budget: int = 4096) -> float:
    """Evaluate the mixture probability with several pin vertices on identical
    configurations; returns the largest pairwise difference.

    All windowed configurations are used when there are at most
    ``enumerate_budget``, otherwise a seeded sample plus the all-zero
    configuration. Each pin evaluates the whole batch at once.
    """
    volume = spec.volume
    kernel = spec.kernel
    total = (2 * kernel.window.cutoff + 1) ** volume.n_edges
    if total <= enumerate_budget:
        configs = np.concatenate(list(_window_blocks(volume, kernel.window, total)))
    else:
        # typical configurations, so the compared probabilities carry mass
        configs = np.vstack([sample_ggm_batch(spec, n_configs, seed),
                             np.zeros((1, volume.n_edges), dtype=np.int64)])
    alpha = spec.chain.alpha
    probs = np.array([
        sum(alpha[s] * _product_probs(kernel, volume, w, s, configs)
            for s in range(kernel.q))
        for w in pins
    ])
    return max(0.0, float(np.max(probs.max(axis=0) - probs.min(axis=0))))


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

    The scan visits the (2*cutoff+1)**|inner| choices of the increment on the
    edge entering each inner vertex from the pin side (``config_budget``
    bounds that count). It is exact: some inner-boundary vertex is tied to
    the pin through outside edges, so the class is the set of windowed
    configurations that keep the reference heights on every vertex outside
    the sub-volume, and those choices fix the inner heights. The members are
    kept in the ``itertools.product`` order of their inner increments.
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

    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")

    orient = volume.orientation_from(spec.pin_vertex)
    movers = [dst for e, src, dst, sign in orient if dst in ids]
    fixed = vertex_heights(volume, spec.pin_vertex, 0, base)
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
    Z = Z[np.lexsort(Z[:, inner_edges[::-1]].T)]

    if mixture:
        joint = sum(chain.alpha[s] * _product_probs(kernel, volume, spec.pin_vertex, s, Z)
                    for s in range(kernel.q))
    else:
        joint = _product_probs(kernel, volume, spec.pin_vertex, spec.pin_class, Z)
    bare = np.prod(kernel.weights[Z[:, inner_edges] + cutoff], axis=1)
    if joint.sum() == 0.0:
        raise ValueError("conditioning event has zero probability")
    return float(np.max(np.abs(joint / joint.sum() - bare / bare.sum())))


# ---------------------------------------------------------------------------
# exact extremes of the representation gap


def _dual_gap(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
              alpha: Mapping[int, float], classes, z: float,
              residue_budget: int) -> float:
    """Largest |sum_s alpha[s] * (product form from class s at the pin)
    - sum_k (boundary-law factors from class k) / z| times the largest Q
    product, over the q**edges residue vectors of the increments."""
    if not volume.full:
        raise ValueError("the boundary-law form needs a closed regular volume")
    q = kernel.q
    if q ** volume.n_edges > residue_budget:
        raise VolumeTooLarge("residue scan exceeds its budget")
    a = kernel.law.as_array()
    orient = volume.orientation_from(pin)
    order = [e for e, src, dst, sign in orient]
    maxq = _max_q_per_residue(kernel)
    boundary = sorted(volume.boundary)
    worst = 0.0
    for R, layers in _residue_layers(volume, pin, q, range(volume.n_edges)):
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
    return worst


def max_dual_gap_pinned(spec: PinnedMeasureSpec, residue_budget: int = 2**21) -> float:
    """Exact maximum of |product form - boundary-law form| over every windowed
    configuration.

    Both forms share the bare product of Q factors; the remaining parts depend
    on the increments only through their residues mod q. The maximum therefore
    splits as (residue-class gap) times (largest Q product within the class),
    and scanning the q**edges residue vectors, in blocks, is exhaustive;
    ``residue_budget`` bounds that count.
    """
    s = spec.pin_class
    z = _bl_partition(spec.kernel, spec.volume, spec.pin_vertex)[s]
    return _dual_gap(spec.kernel, spec.volume, spec.pin_vertex, {s: 1.0}, [s], z,
                     residue_budget)


def max_dual_gap_ggm(spec: GGMSpec, residue_budget: int = 2**21) -> float:
    """Exact maximum of |mixture form - class-summed boundary-law form| over
    every windowed configuration, by the same scan of the q**edges residue
    vectors."""
    z = float(_bl_partition(spec.kernel, spec.volume, 0).sum())
    return _dual_gap(spec.kernel, spec.volume, 0, dict(enumerate(spec.chain.alpha)),
                     range(spec.kernel.q), z, residue_budget)
