"""Finite-volume marginals of pinned gradient measures and their mixtures.

Two equivalent representations are implemented for the measure pinned to a
mod-q class at a vertex: the edge-by-edge product of layer-kernel factors,
and the boundary-law form (boundary factors times bare edge weights, divided
by a partition sum). Mixing the pinned measure over the stationary layer
distribution gives the homogeneous gradient measure; an alternative form sums
the boundary-law weight over a global class shift instead.

All normalizers are computed by one scaled upward pass (``_upward``) that
keeps one unit vector and one log scale per vertex, indexed by the mod-q
layer, so no volume overflows or underflows. Its max-product form gives the
largest weight over the windowed configurations.

No verifier check visits configurations or residue classes. Each is a
certified upper bound built from a few passes, O(n q**2) for n vertices, and
its docstring says why it bounds the exact maximum. Each adds an explicit
rounding allowance of ``SLACK`` ulps per edge of the largest compared
probability, so a pass is never weaker than the exact check. The checks that
compare two representations return a ``Certificate``, which also bounds the
largest |ratio - 1| between them; unlike the difference, that does not shrink
as the volume grows.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .chains import FuzzyChain, LayerKernel, balance_defect
from .errors import OutOfWindow, PinInsideInner
from .model import (
    FiniteTreeVolume,
    GradientConfiguration,
    IncrementWindow,
    PeriodicBoundaryLaw,
    TransferOperator,
    eval_q,
    vertex_heights,
    wrapped_row,
)

__all__ = [
    "Certificate",
    "PinnedMeasureSpec",
    "GGMSpec",
    "pinned_prob_product",
    "sample_ggm",
    "sample_ggm_batch",
    "check_consistency",
    "check_homogeneity",
    "check_restricted_dlr",
    "max_dual_gap_pinned",
    "max_dual_gap_ggm",
    "windowed_mass",
    "event_prob_pinned",
    "event_prob_ggm",
    "single_bond_marginal",
    "two_bond_marginal",
]

DRAW_BLOCK = 2**16  # uniforms per sampler draw, so a level needs O(DRAW_BLOCK) memory
SLACK = 16  # rounding allowance of the certificates, in ulps per edge
EPS = float(np.finfo(float).eps)


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


class Certificate(float):
    """A certified upper bound on the largest |difference| between two forms
    of the same probabilities (the float value), carrying in ``relative`` a
    certified upper bound on the largest |ratio - 1| between them.
    Probabilities are at most one, so ``relative`` bounds the difference
    too."""

    relative: float

    def __new__(cls, absolute: float, relative: float):
        self = super().__new__(cls, absolute)
        self.relative = float(relative)
        return self


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
            leaf: Mapping[int, np.ndarray], edges=None,
            maximum: bool = False) -> tuple[list[np.ndarray], np.ndarray]:
    """The pass from the leaves towards ``pin`` over mod-q layer vectors:
    v starts from ``leaf[v]`` (else ones) and each edge, or each one in
    ``edges``, multiplies ``matrix @ f[dst]`` into ``f[src]``, or with
    ``maximum`` its max-product form ``max_t' matrix[:, t'] f[dst][t']``.
    Then f[v] is the total (or the largest) weight of the part of the volume
    below v (away from the pin) by layer.

    The pass is scaled as the forward algorithm is (Rabiner 1989): it returns
    unit vectors u[v], largest entry 1, and log scales c[v] with
    f[v] = u[v] * exp(c[v]), so deep volumes neither overflow nor underflow.
    """
    q = len(matrix)
    unit = [np.ones(q)] * volume.n_vertices
    scale = np.zeros(volume.n_vertices)
    for v, vec in leaf.items():
        top = vec.max()
        unit[v], scale[v] = vec / top, math.log(top)
    for e, src, dst, sign in reversed(volume.orientation_from(pin)):
        if edges is None or e in edges:
            msg = (matrix * unit[dst]).max(axis=1) if maximum else matrix @ unit[dst]
            f = unit[src] * msg
            top = f.max()
            unit[src] = f / top
            scale[src] += scale[dst] + math.log(top)
    return unit, scale


def _log_at(passed: tuple[list[np.ndarray], np.ndarray], v: int) -> np.ndarray:
    """log f[v] from the output of ``_upward``."""
    unit, scale = passed
    return np.log(unit[v]) + scale[v]


def _bl_partition(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int) -> np.ndarray:
    """Log partition sums of the boundary-law weight over all integer
    configurations, as a vector over the pin class: the upward pass with the
    wrapped interaction matrix, from the boundary-law values at the boundary."""
    leaf = dict.fromkeys(volume.boundary, kernel.law.as_array())
    return _log_at(_upward(volume, pin, kernel.circulant, leaf), pin)


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


def windowed_mass(spec: PinnedMeasureSpec) -> float:
    """Total product-form probability of the windowed configuration space,
    computed by the layer pass (equals one minus the truncated tail)."""
    kernel = spec.kernel
    q = kernel.q
    W = np.zeros((q, q))
    for t in range(q):
        for z in kernel.offsets:
            W[t, (t + int(z)) % q] += kernel.prob(t, int(z))
    unit, scale = _upward(spec.volume, spec.pin_vertex, W, {})
    return float(unit[spec.pin_vertex][spec.pin_class] * math.exp(scale[spec.pin_vertex]))


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
# certificates: the pieces


def _slack(volume: FiniteTreeVolume, largest: float) -> float:
    """The rounding allowance: SLACK ulps per edge of the largest compared
    probability, the products of n_edges factors being compared."""
    return SLACK * (volume.n_edges + 1) * EPS * largest


def _certified(volume: FiniteTreeVolume, lo: float, hi: float,
               log_top: float) -> Certificate:
    """Bounds for two forms whose ratio lies in [e**lo, e**hi] on every
    configuration, the second form being at most e**log_top:
    |first - second| <= second * max |ratio - 1|. The allowance is relative
    to the larger form, at most 1 + e**hi <= 2 + max |ratio - 1| times the
    second."""
    try:
        off_one = max(-math.expm1(lo), math.expm1(hi))
    except OverflowError:  # e**hi is beyond the largest double
        return Certificate(math.inf, math.inf)
    relative = off_one + _slack(volume, 2.0 + off_one)
    return Certificate(math.exp(log_top) * relative, relative)


def _largest_q(kernel: LayerKernel) -> np.ndarray:
    """M[t, t'] = the largest Q(z) over the window increments z = t' - t
    mod q: the max-product form of the wrapped interaction matrix."""
    q = kernel.q
    best = np.zeros(q)
    np.maximum.at(best, kernel.offsets % q, kernel.weights)
    return best[(np.arange(q)[None, :] - np.arange(q)[:, None]) % q]


def _interior_set(volume: FiniteTreeVolume, inner) -> set[int]:
    if isinstance(inner, FiniteTreeVolume):
        ids = inner.interior
    else:
        ids = set(int(v) for v in inner)
    if not ids <= volume.interior:
        raise ValueError("inner vertices must be interior vertices of the volume")
    return set(ids)


def _require_full(volume: FiniteTreeVolume, what: str) -> None:
    if not volume.full:
        raise ValueError(f"{what} need a closed regular volume")


# ---------------------------------------------------------------------------
# verification: the two representations


def _dual_parts(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int):
    """For each pin class s: log z_s; the range [lo_s, hi_s] of the log ratio
    of the product form to the boundary-law form; and the log of the largest
    boundary-law probability B_s / z_s over the windowed configurations.

    The ratio is z_s N(s)**-(d+1) prod_v g(t_v), the product running over the
    m interior vertices other than the pin, with g = a / N**d: each of them
    is the head of one edge (a factor a) and the tail of d (a factor 1/N),
    the pin is the tail of d + 1, and the boundary factors a cancel. So its
    log lies in log(z_s N(s)**-(d+1)) + m [min log g, max log g]."""
    _require_full(volume, "the boundary-law form and its certificates")
    a = kernel.law.as_array()
    d = volume.d
    log_z = _bl_partition(kernel, volume, pin)
    log_n = np.log(kernel.norms)
    log_g = np.log(a) - d * log_n
    m = len(volume.interior) - 1
    base = log_z - (d + 1) * log_n
    leaf = dict.fromkeys(volume.boundary, a)
    top = _upward(volume, pin, _largest_q(kernel), leaf, maximum=True)
    return log_z, base + m * log_g.min(), base + m * log_g.max(), _log_at(top, pin) - log_z


def max_dual_gap_pinned(spec: PinnedMeasureSpec) -> Certificate:
    """Certified upper bound on the maximum of |product form - boundary-law
    form| over every windowed configuration, with the bound on the largest
    |ratio - 1| in ``relative``.

    The gap is (B_s / z_s) |ratio - 1|: the largest B_s / z_s, one
    max-product pass, times the largest |ratio - 1| over the range of
    ``_dual_parts``. That is at least the maximum of the product, which the
    exact scan over residue vectors finds.
    """
    s = spec.pin_class
    _, lo, hi, log_top = _dual_parts(spec.kernel, spec.volume, spec.pin_vertex)
    return _certified(spec.volume, lo[s], hi[s], log_top[s])


def max_dual_gap_ggm(spec: GGMSpec) -> Certificate:
    """Certified upper bound on the maximum of |mixture form - class-summed
    boundary-law form| over every windowed configuration, with the bound on
    the largest |ratio - 1| in ``relative``.

    The difference is sum_s alpha_s (P_s - B_s / z_s)
    + sum_s (alpha_s - z_s / Z) B_s / z_s, so it is at most the alpha-mean of
    the pinned certificates plus sum_s |alpha_s - z_s / Z| max (B_s / z_s).
    The ratio is a weighted mean over s of (alpha_s Z / z_s) times the pinned
    ratio, so it lies in the hull of their ranges.
    """
    volume = spec.volume
    alpha = spec.chain.alpha
    log_z, lo, hi, log_top = _dual_parts(spec.kernel, volume, 0)
    log_total = float(np.logaddexp.reduce(log_z))
    pinned = [_certified(volume, lo[s], hi[s], log_top[s]) for s in range(len(alpha))]
    absolute = float(alpha @ np.array(pinned)
                     + np.abs(alpha - np.exp(log_z - log_total)) @ np.exp(log_top))
    shift = np.log(alpha) + log_total - log_z
    mixed = _certified(volume, float((shift + lo).min()), float((shift + hi).max()), 0.0)
    return Certificate(absolute, mixed.relative)


def check_consistency(spec: PinnedMeasureSpec, inner,
                      mixture: bool = False, chain: FuzzyChain | None = None) -> Certificate:
    """Marginalize the volume's boundary-law measure onto a smaller closed
    volume and compare with the directly computed smaller-volume measure.

    ``inner`` is the interior vertex set of the smaller volume (or a volume
    object, in which case its interior is used); it must be connected and
    contain the pin. With ``mixture=True`` both sides are averaged over the
    stationary layer distribution of ``chain``.

    Returns a certified upper bound on the largest difference over the
    windowed inner configurations, with the bound on the largest
    |ratio - 1| in ``relative``. Both sides are the inner Q factors times
    factors of the inner-boundary layers, and their ratio, marginal over
    direct, is z_inner / z_big times prod_v hang_v(t_v) / a(t_v) over the
    inner-boundary vertices v, hang_v being the weight hanging below v. That
    is separable, so its log range is the sum of the per-vertex ranges; the
    largest direct probability is one max-product pass over the inner
    edges.
    """
    volume = spec.volume
    kernel = spec.kernel
    _require_full(volume, "consistency checks")
    pin = spec.pin_vertex
    ids = _interior_set(volume, inner)
    if pin not in ids:
        raise ValueError("the pin vertex must belong to the inner volume")
    if any(dst in ids and src not in ids
           for e, src, dst, sign in volume.orientation_from(pin)):
        raise ValueError("the inner vertices must form a connected set")
    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")
    inner_edges = set(volume.edges_touching(ids))
    inner_boundary = volume.adjacent_outside(ids)
    a = kernel.law.as_array()
    # the weight hanging below each inner-boundary vertex equals the boundary
    # law itself exactly when the law solves the fixed-point equation
    hang = _upward(volume, pin, kernel.circulant, dict.fromkeys(volume.boundary, a))
    per_vertex = [_log_at(hang, v) - np.log(a) for v in inner_boundary]
    lo = sum(x.min() for x in per_vertex)
    hi = sum(x.max() for x in per_vertex)
    leaf = dict.fromkeys(inner_boundary, a)
    log_z_inner = _log_at(_upward(volume, pin, kernel.circulant, leaf, inner_edges), pin)
    shift = log_z_inner - _log_at(hang, pin)
    top = _upward(volume, pin, _largest_q(kernel), leaf, inner_edges, maximum=True)
    log_top = _log_at(top, pin) - log_z_inner
    if not mixture:
        s = spec.pin_class
        return _certified(volume, shift[s] + lo, shift[s] + hi, log_top[s])
    pinned = [_certified(volume, shift[s] + lo, shift[s] + hi, log_top[s])
              for s in range(kernel.q)]
    # the mixed ratio is a weighted mean of the pinned ones
    mixed = _certified(volume, float(shift.min() + lo), float(shift.max() + hi), 0.0)
    return Certificate(float(chain.alpha @ np.array(pinned)), mixed.relative)


# ---------------------------------------------------------------------------
# verification: homogeneity and the restricted conditional structure


def _path(volume: FiniteTreeVolume, x: int, y: int) -> list[tuple[int, int]]:
    """The steps (from, to) of the tree path from x to y."""
    up, down = [x], [y]
    while up[-1] != down[-1]:
        if volume.depth[up[-1]] >= volume.depth[down[-1]]:
            up.append(volume.parents[up[-1]])
        else:
            down.append(volume.parents[down[-1]])
    nodes = up + down[-2::-1]
    return list(zip(nodes, nodes[1:]))


def check_homogeneity(spec: GGMSpec, pins: Iterable[int]) -> float:
    """Certified upper bound on the largest difference between the mixture
    probabilities of one windowed configuration under any two of ``pins``
    as the pin vertex.

    Moving the pin from w to a neighbour w' across an edge with increment z
    changes the mixture probability by sum_s D(s, z) R_w(s) R_w'(s + z):
    D is the detailed-balance defect of ``chains.balance_defect``, and R_w,
    R_w' are the products of the kernel probabilities on the two sides of
    the edge, with the layer of w and of w'. So the change is at most
    max_z sum_s |D(s, z)| M_w(s) M_w'(s + z), M being their largest values,
    two max-product passes. Any two pins differ by at most the sum of that
    over the edges of the subtree spanning the pins.
    """
    volume = spec.volume
    kernel = spec.kernel
    q = kernel.q
    pins = list(pins)
    steps = {frozenset(step): step for x in pins[1:] for step in _path(volume, pins[0], x)}
    if not steps:
        return 0.0
    defect = np.abs(balance_defect(kernel, spec.chain))
    ends = (np.arange(q)[:, None] + kernel.offsets) % q
    # the largest kernel probability of a step from layer t to layer t'
    step_max = _largest_q(kernel) * kernel.law.as_array() / kernel.norms[:, None]
    passes = {w: _upward(volume, w, step_max, {}, maximum=True)
              for step in steps.values() for w in step}
    bound = 0.0
    for w, w2 in steps.values():
        # the side of w, seen from w2, and the side of w2, seen from w
        (unit, scale), (unit2, scale2) = passes[w2], passes[w]
        sides = defect * unit[w][:, None] * unit2[w2][ends]
        bound += float(sides.sum(axis=0).max()) * math.exp(scale[w] + scale2[w2])
    largest = max(float(unit[w].max()) * math.exp(scale[w])
                  for w, (unit, scale) in passes.items())
    return bound + _slack(volume, largest)


def _largest_share(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
                   ids: set[int], heights: np.ndarray) -> float:
    """max b / sum b over the heights of ``ids`` with every other height
    fixed, b being the product of Q over the edges touching ``ids``: one
    sum-product and one max-product pass over a grid of heights wide enough
    for every member (each inner height lies within cutoff * |ids| of a
    fixed one)."""
    cutoff = kernel.window.cutoff
    fixed = [int(heights[v]) for v in volume.adjacent_outside(ids)]
    lo = min(fixed) - cutoff * len(ids)
    grid = np.arange(lo, max(fixed) + cutoff * len(ids) + 1)
    step = grid[None, :] - grid[:, None]
    weight = np.where(np.abs(step) <= cutoff,
                      kernel.weights[np.clip(step + cutoff, 0, 2 * cutoff)], 0.0)
    total = top = 1.0
    sums, maxs = {}, {}
    inward = [(src, dst) for e, src, dst, sign in volume.orientation_from(pin) if dst in ids]
    for src, dst in reversed(inward):
        f = np.ones(len(grid))
        g = np.ones(len(grid))
        for y in volume.neighbors(dst):
            if y not in ids:
                f = f * weight[:, heights[y] - lo]
                g = g * weight[:, heights[y] - lo]
            elif y != src:
                f = f * (weight @ sums[y])
                g = g * (weight * maxs[y]).max(axis=1)
        sums[dst], maxs[dst] = f, g
        if src not in ids:
            total *= f.sum()
            top *= g.max()
    if total == 0.0:
        raise ValueError("conditioning event has zero probability")
    return top / total


def check_restricted_dlr(spec: PinnedMeasureSpec, inner,
                         outside: Mapping[int, int] | None = None,
                         reference: Mapping[int, int] | None = None,
                         mixture: bool = False, chain: FuzzyChain | None = None) -> float:
    """Conditional law inside a sub-volume away from the pin, given the outside
    increments and the relative boundary heights, against the bare-weight
    prediction: proportional to the product of Q factors over configurations
    in the same boundary-height class.

    ``outside`` fixes increments on edges outside the sub-volume;
    ``reference`` chooses the inner configuration whose boundary-height class
    is conditioned on (default all zeros).

    Returns a certified upper bound on the largest difference. Some
    inner-boundary vertex is tied to the pin through outside edges, so the
    class keeps the reference height of every vertex outside the sub-volume.
    On it the joint probability p over the bare weight b is a constant times
    prod_v a(t_v) / N(t_v)**k_v over the inner vertices v, k_v being the
    number of edges leaving v away from the pin (for the mixture, an
    alpha-mean of such terms). So p / b varies by at most a factor rho, the
    product of the per-vertex ranges, and
    |p / sum p - b / sum b| <= (b / sum b) (rho - 1); the largest b / sum b
    comes from ``_largest_share``.
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
    if outside is not None and any(abs(int(z)) > cutoff for z in outside.values()):
        raise OutOfWindow(f"an outside increment exceeds cutoff {cutoff}")
    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")

    log_a = np.log(kernel.law.as_array())
    log_n = np.log(kernel.norms)
    spread = sum(float(np.ptp(log_a - (len(volume.neighbors(v)) - 1) * log_n))
                 for v in ids)
    heights = vertex_heights(volume, spec.pin_vertex, 0, base)
    share = _largest_share(kernel, volume, spec.pin_vertex, ids, heights)
    return float(_certified(volume, -spread, spread, math.log(share)))
