"""Finite-volume marginals of pinned gradient measures and their mixtures.

Two equivalent representations are implemented for the measure pinned to a
mod-q class at a vertex: the edge-by-edge product of layer-kernel factors,
and the boundary-law form (boundary factors times bare edge weights, divided
by a partition sum). Mixing the pinned measure over the stationary layer
distribution gives the homogeneous gradient measure; an alternative form sums
the boundary-law weight over a global class shift instead.

Every kernel probability is read from the table ``LayerKernel.probs`` (with
the end layers ``LayerKernel.ends``), and ``_fold`` folds such a (layer,
increment) table onto pairs of layers, by sum or by maximum. All normalizers
are computed by one scaled upward pass (``_upward``) that keeps one unit
vector and one log scale per vertex, indexed by the mod-q layer, so no volume
overflows or underflows. Its max-product form gives the largest weight over
the windowed configurations. Every walk reads the volume's step table
(``orientation_from``) a level at a time: the upward pass makes one numpy
update per level and rank of a step among its source's steps, the sampler
draws a level at a time, and the product form reads every layer off one
heights walk over the table or its part inside a connected vertex set, so an
event's probabilities for every pin class come from one walk.

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

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .chains import FuzzyChain, LayerKernel, balance_defect
from .errors import OutOfWindow, PinInsideInner
from .model import (
    FiniteTreeVolume,
    IncrementWindow,
    PeriodicBoundaryLaw,
    TransferOperator,
    _heights,
    eval_q,
    vertex_heights,
    wrapped_row,
)

__all__ = [
    "Certificate",
    "PinnedMeasureSpec",
    "GGMSpec",
    "sample_ggm_batch",
    "check_consistency",
    "check_homogeneity",
    "check_restricted_dlr",
    "max_dual_gap_pinned",
    "max_dual_gap_ggm",
    "windowed_mass",
    "event_prob_pinned",
    "single_bond_marginal",
    "two_bond_marginal",
]

DRAW_BLOCK = 2**14  # uniforms per sampler draw, so a draw needs O(DRAW_BLOCK) memory
GUIDE = 2**12  # buckets of the sampler's guide tables; a power of two, so bucketing is exact
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
        if not _interior(self.volume, self.pin_vertex):
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


def _product_probs(kernel: LayerKernel, levels, s, Z) -> np.ndarray:
    """Product-form probabilities of the rows of Z, the increments by edge,
    pinned to class s (an int, or a column against the rows) at the first src
    of ``levels``: a step from height h leaves layer (s + h) mod q and
    contributes the kernel table entry of its increment (not the
    window-renormalized rows), the factors multiplied in step order."""
    Z = np.asarray(Z, dtype=np.int64)
    cutoff = kernel.window.cutoff
    if Z.size and np.abs(Z).max() > cutoff:
        raise OutOfWindow(f"|zeta| = {np.abs(Z).max()} exceeds cutoff {cutoff}")
    h = _heights(levels, Z)
    src, dst = _flat(levels)
    k = h[..., dst] - h[..., src] + cutoff
    return kernel.probs[(s + h[..., src]) % kernel.q, k].prod(axis=-1)


def _flat(levels) -> np.ndarray:
    """The steps of ``levels`` in order, as one (2, steps) array of src and dst."""
    return np.concatenate([np.empty((2, 0), np.int64), *map(np.array, levels)], axis=1)


def _upward(volume: FiniteTreeVolume, pin: int, matrix: np.ndarray,
            leaves: np.ndarray | list[int] | None = None, leaf: np.ndarray | None = None,
            within: set[int] | None = None,
            maximum: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The pass from the leaves towards ``pin`` over mod-q layer vectors:
    each vertex of ``leaves``, an index array, starts from ``leaf`` (the
    others from ones) and each edge, or each one inside the connected vertex
    set ``within`` (which holds the pin), multiplies ``matrix @ f[dst]`` into
    ``f[src]``, or with ``maximum`` its max-product form
    ``max_t' matrix[:, t'] f[dst][t']``.
    Then f[v] is the total (or the largest) weight of the part of the volume
    below v (away from the pin) by layer.

    The pass is scaled as the forward algorithm is (Rabiner 1989): it returns
    unit vectors u[v], largest entry 1, and log scales c[v] with
    f[v] = u[v] * exp(c[v]), so deep volumes neither overflow nor underflow.

    It is Felsenstein's pruning (1981) run a level at a time: from the
    deepest level of ``orientation_from(pin)`` (or of its steps inside
    ``within``) up, the steps that are r-th from the end among their src's
    steps form one batch, for r = 0, 1, ..., so each src takes its updates
    in the reverse step order of a walk one step at a time, and the pass is
    one numpy update per batch, O(depth (d + 1)) of them.
    """
    q = len(matrix)
    unit = np.ones((volume.n_vertices, q))
    scale = np.zeros(volume.n_vertices)
    if leaves is not None:
        top = leaf.max()
        unit[leaves], scale[leaves] = leaf / top, math.log(top)
    levels = volume.orientation_from(pin) if within is None else volume._steps_from(pin, within)
    for src, dst in reversed(levels):
        # the steps of one src are consecutive: rank each from its run's end
        last = np.flatnonzero(np.append(src[1:] != src[:-1], True))
        rank = np.repeat(last, np.diff(last, prepend=-1)) - np.arange(len(src))
        for r in range(rank.max() + 1):
            at = rank == r
            s, t = src[at], dst[at]
            u = unit[t]
            msg = ((matrix * u[:, None, :]).max(axis=2) if maximum
                   else (matrix @ u[:, :, None])[:, :, 0])
            f = unit[s] * msg
            top = f.max(axis=1)
            unit[s] = f / top[:, None]
            # math.log: numpy's vectorized log may round the last bit otherwise
            scale[s] += scale[t] + np.array([math.log(v) for v in top.tolist()])
    return unit, scale


def _log_at(passed: tuple[np.ndarray, np.ndarray], v: int) -> np.ndarray:
    """log f[v] from the output of ``_upward``."""
    unit, scale = passed
    return np.log(unit[v]) + scale[v]


def _fold(kernel: LayerKernel, table: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """F[t, t'] = ``ufunc`` (``np.add`` or ``np.maximum``) over the window
    increments k with ends[t, k] = t' of table[t, k], in increasing k, or 0
    where there is none: a (layer, increment) table folded onto layer pairs."""
    q = kernel.q
    out = np.zeros((q, q))
    ufunc.at(out, (np.arange(q)[:, None], kernel.ends), table)
    return out


def _bl_partition(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int) -> np.ndarray:
    """Log partition sums of the boundary-law weight over all integer
    configurations, as a vector over the pin class: the upward pass with the
    wrapped interaction matrix, from the boundary-law values at the boundary."""
    return _log_at(_upward(volume, pin, kernel.circulant, volume.boundary,
                           kernel.law.as_array()), pin)


# ---------------------------------------------------------------------------
# sampling


class _Guide:
    """The inverse-CDF lookup of the sampler by guide tables (Chen & Asau
    1974): the increment z = offsets[k] and end layer of the uniform u at
    source layer t, for k = ``min(searchsorted(cdf[t], u, "right"), top)``.

    u * GUIDE and m / GUIDE are exact in binary floating point, so u lies in
    bucket m = floor(u * GUIDE) exactly when m / GUIDE <= u < (m + 1) / GUIDE.
    Where no cdf entry lies in (m / GUIDE, (m + 1) / GUIDE], every u of the
    bucket has the k of u = m / GUIDE, and the tables hold its increment and
    end layer. Elsewhere the increment table holds ``lost``, -cutoff - 1, and
    those few u are looked up by ``searchsorted`` itself, so the result is
    that lookup's, bit for bit.
    """

    def __init__(self, kernel: LayerKernel):
        self.cdf = np.cumsum(kernel.rows, axis=1)
        self.top = len(kernel.offsets) - 1
        # the narrowest signed type holding -cutoff - 1; a layer is below q
        dtype = np.min_scalar_type(-kernel.window.cutoff - 1)
        self.increments = kernel.offsets.astype(dtype)
        self.lost = dtype.type(-kernel.window.cutoff - 1)
        self.ends = kernel.ends.astype(np.min_scalar_type(kernel.q - 1))
        below = np.array([np.searchsorted(row, np.arange(GUIDE + 1) / GUIDE, side="right")
                          for row in self.cdf])
        k = np.minimum(below[:, :-1], self.top)
        # flat over (layer, bucket)
        self.steps = np.where(below[:, 1:] == below[:, :-1], self.increments[k], self.lost).ravel()
        self.finals = np.take_along_axis(self.ends, k, axis=1).ravel()

    def __call__(self, t: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Increments and end layers of the uniforms u at the layers t."""
        key = (u * GUIDE).astype(np.intp)
        key += t * np.intp(GUIDE)
        z, end = self.steps[key], self.finals[key]
        miss = np.flatnonzero(z == self.lost)
        for layer in set(t.flat[miss].tolist()):
            at = miss[t.flat[miss] == layer]
            k = np.minimum(np.searchsorted(self.cdf[layer], u.flat[at], side="right"), self.top)
            z.flat[at], end.flat[at] = self.increments[k], self.ends[layer, k]
        return z, end


def sample_ggm_batch(spec: GGMSpec, n: int, seed: int) -> np.ndarray:
    """n independent configurations as an (n, n_edges) array of increments:
    the transposed view of an edge-major (n_edges, n) batch in the narrowest
    signed integer dtype that holds -cutoff - 1, so one byte per (sample,
    edge) up to cutoff 127.

    Counter-based generator keyed by the seed: the same (seed, n) always
    yields the same batch, independent of how the caller schedules work.
    The class of vertex 0 is drawn from ``n`` uniforms, then the increments
    of each edge, in the BFS order of ``orientation_from(0)``, from ``n``
    more. Uniforms are drawn in blocks of at most ``DRAW_BLOCK``: the edges
    of a level together while n fits a block, else one edge in column
    blocks, in the order in which one draw per edge would take them, so the
    batch does not depend on the blocking, bit for bit. Each increment is
    the inverse-CDF lookup in its source layer's row by the guide tables of
    ``_Guide``, exact because their bucket bounds are exact binary fractions
    and a uniform in a bucket holding a cdf entry goes to ``searchsorted``.
    """
    volume = spec.volume
    rng = np.random.default_rng(np.random.Philox(key=int(seed) & (2**64 - 1)))
    guide = _Guide(spec.kernel)
    out = np.empty((volume.n_edges, n), dtype=guide.increments.dtype)
    # a level reads only the layers of the level before it, held in
    # ``layers`` with vertex v at row where[v]
    where = np.zeros(volume.n_vertices, dtype=np.intp)
    first = np.searchsorted(np.cumsum(spec.chain.alpha), rng.random(n), side="right")
    layers = np.minimum(first, spec.kernel.q - 1).astype(guide.ends.dtype)[None, :]
    cols = min(max(n, 1), DRAW_BLOCK)
    per_draw = DRAW_BLOCK // cols  # edges
    levels = volume.orientation_from(0)
    # away from the root every step runs parent -> child along edge dst - 1
    for depth, (src_level, dst_level) in enumerate(levels, 1):
        last = depth == len(levels)  # nothing reads the last level's layers
        ends = None if last else np.empty((len(dst_level), n), dtype=guide.ends.dtype)
        for e in range(0, len(dst_level), per_draw):
            src, dst = where[src_level[e:e + per_draw]], dst_level[e:e + per_draw]
            for c in range(0, n, cols):
                u = rng.random((len(dst), min(cols, n - c)))
                out[dst - 1, c:c + cols], end = guide(layers[src, c:c + cols], u)
                if not last:
                    ends[e:e + per_draw, c:c + cols] = end
        where[dst_level] = np.arange(len(dst_level))
        layers = ends
    return out.T


def windowed_mass(spec: PinnedMeasureSpec) -> float:
    """Total product-form probability of the windowed configuration space,
    computed by the layer pass (equals one minus the truncated tail)."""
    W = _fold(spec.kernel, spec.kernel.probs, np.add)
    unit, scale = _upward(spec.volume, spec.pin_vertex, W)
    return float(unit[spec.pin_vertex][spec.pin_class] * math.exp(scale[spec.pin_vertex]))


# ---------------------------------------------------------------------------
# event probabilities on sub-volumes


def event_prob_pinned(kernel: LayerKernel, volume: FiniteTreeVolume,
                      vertices: Iterable[int], anchor: int,
                      zeta: Mapping[tuple[int, int], int]) -> np.ndarray:
    """Probabilities, as a vector over the class s pinned at ``anchor``, that
    the edges induced by ``vertices`` carry exactly the given increments,
    keyed by their stored (parents[v], v) pairs.

    The vertex set must be connected and hold ``anchor``, so all layers
    along the induced edges are determined inside it. One walk, in the order
    of ``volume.orientation_from(anchor)`` restricted to the set, gives the
    heights that every class reads its layers from.
    """
    vs = set(vertices)
    if anchor not in vs:
        raise ValueError("anchor must belong to the event's vertex set")
    if not all(0 <= v < volume.n_vertices for v in vs):
        raise ValueError("the event's vertices must lie in the volume")
    _require_connected(volume, vs, "the event's vertices")
    Z = np.zeros(volume.n_edges, dtype=np.int64)
    for v in vs:
        if (p := int(volume.parents[v])) in vs:
            Z[v - 1] = zeta[p, v]
    return _product_probs(kernel, volume._steps_from(anchor, vs),
                          np.arange(kernel.q)[:, None], Z)


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
    """Exact joint marginal of two successive edges over the window: the sum
    over the first layer s of alpha(s) P(s, z1) P(s + z1, z2)."""
    first = chain.alpha[:, None] * kernel.probs
    return (first[:, :, None] * kernel.probs[kernel.ends]).sum(axis=0)


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
    return _fold(kernel, kernel.weights, np.maximum)


def _mixture(volume: FiniteTreeVolume, alpha: np.ndarray, lo: np.ndarray,
             hi: np.ndarray, log_top: np.ndarray, shift) -> tuple[float, float]:
    """For pinned forms whose log ratios lie in [lo_s, hi_s], the largest
    second form being e**log_top_s: the alpha-mean of their certificates, and
    the relative bound of a weighted mean over s of e**shift_s times their
    ratios, which lies in the hull of the shifted ranges."""
    pinned = [_certified(volume, lo[s], hi[s], log_top[s]) for s in range(len(alpha))]
    mixed = _certified(volume, float((shift + lo).min()), float((shift + hi).max()), 0.0)
    return float(alpha @ np.array(pinned)), mixed.relative


def _interior(volume: FiniteTreeVolume, v: int) -> bool:
    return 0 <= v < volume.n_vertices and not volume.is_boundary[v]


def _interior_set(volume: FiniteTreeVolume, inner: Iterable[int]) -> set[int]:
    ids = {int(v) for v in inner}
    if not all(_interior(volume, v) for v in ids):
        raise ValueError("inner vertices must be interior vertices of the volume")
    return ids


def _require_full(volume: FiniteTreeVolume, what: str) -> None:
    if not volume.full:
        raise ValueError(f"{what} need a closed regular volume")


def _require_connected(volume: FiniteTreeVolume, vs: set[int], what: str) -> None:
    """A vertex set of a tree is connected exactly when it induces
    |set| - 1 edges."""
    if sum(volume.parents[v] in vs for v in vs) != len(vs) - 1:
        raise ValueError(f"{what} must form a connected set")


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
    m = volume.n_vertices - len(volume.boundary) - 1
    base = log_z - (d + 1) * log_n
    top = _upward(volume, pin, _largest_q(kernel), volume.boundary, a, maximum=True)
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
    alpha = spec.chain.alpha
    log_z, lo, hi, log_top = _dual_parts(spec.kernel, spec.volume, 0)
    log_total = float(np.logaddexp.reduce(log_z))
    mean, relative = _mixture(spec.volume, alpha, lo, hi, log_top,
                              np.log(alpha) + log_total - log_z)
    return Certificate(
        mean + float(np.abs(alpha - np.exp(log_z - log_total)) @ np.exp(log_top)), relative)


def check_consistency(spec: PinnedMeasureSpec, inner,
                      mixture: bool = False, chain: FuzzyChain | None = None) -> Certificate:
    """Marginalize the volume's boundary-law measure onto a smaller closed
    volume and compare with the directly computed smaller-volume measure.

    ``inner`` is the interior vertex set of the smaller volume; it must be
    connected and contain the pin. With ``mixture=True`` both sides are
    averaged over the stationary layer distribution of ``chain``.

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
    _require_connected(volume, ids, "the inner vertices")
    if mixture and chain is None:
        raise ValueError("mixture comparison needs the fuzzy chain")
    inner_boundary = volume.adjacent_outside(ids)
    a = kernel.law.as_array()
    # the weight hanging below each inner-boundary vertex equals the boundary
    # law itself exactly when the law solves the fixed-point equation
    hang = _upward(volume, pin, kernel.circulant, volume.boundary, a)
    per_vertex = [_log_at(hang, v) - np.log(a) for v in inner_boundary]
    # the inner edges, those touching ids, are the steps inside the closure
    closure = ids | inner_boundary
    leaves = list(inner_boundary)
    log_z_inner = _log_at(_upward(volume, pin, kernel.circulant, leaves, a, closure), pin)
    shift = log_z_inner - _log_at(hang, pin)
    lo = shift + sum(x.min() for x in per_vertex)
    hi = shift + sum(x.max() for x in per_vertex)
    top = _upward(volume, pin, _largest_q(kernel), leaves, a, closure, maximum=True)
    log_top = _log_at(top, pin) - log_z_inner
    if not mixture:
        s = spec.pin_class
        return _certified(volume, lo[s], hi[s], log_top[s])
    return Certificate(*_mixture(volume, chain.alpha, lo, hi, log_top, 0.0))


# ---------------------------------------------------------------------------
# verification: homogeneity and the restricted conditional structure


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
    pins = list(pins)
    steps = {frozenset(step): step for x in pins[1:] for step in volume.path(pins[0], x)}
    if not steps:
        return 0.0
    defect = np.abs(balance_defect(kernel, spec.chain))
    # the largest kernel probability of a step from layer t to layer t'
    step_max = _fold(kernel, kernel.probs, np.maximum)
    passes = {w: _upward(volume, w, step_max, maximum=True)
              for step in steps.values() for w in step}
    bound = 0.0
    for w, w2 in steps.values():
        # the side of w, seen from w2, and the side of w2, seen from w
        (unit, scale), (unit2, scale2) = passes[w2], passes[w]
        sides = defect * unit[w][:, None] * unit2[w2][kernel.ends]
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
    steps = _flat(volume.orientation_from(pin))
    inward = steps[:, np.isin(steps[1], list(ids))]
    for src, dst in reversed(inward.T.tolist()):
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
                         reference: Mapping[int, int] | None = None) -> float:
    """Conditional law inside a sub-volume away from the pin, given the outside
    increments and the relative boundary heights, against the bare-weight
    prediction: proportional to the product of Q factors over configurations
    in the same boundary-height class.

    ``reference`` chooses the inner configuration whose boundary-height class
    is conditioned on (default all zeros). The bound holds for every outside
    assignment, which shifts the fixed heights around each connected part of
    the sub-volume by a constant and so moves neither factor below.

    Returns a certified upper bound on the largest difference. Some
    inner-boundary vertex is tied to the pin through outside edges, so the
    class keeps the reference height of every vertex outside the sub-volume.
    On it the joint probability p over the bare weight b is a constant times
    prod_v a(t_v) / N(t_v)**k_v over the inner vertices v, k_v being the
    number of edges leaving v away from the pin. So p / b varies by at most
    a factor rho, the product of the per-vertex ranges, and
    |p / sum p - b / sum b| <= (b / sum b) (rho - 1); the largest b / sum b
    comes from ``_largest_share``. Under the stationary mixture p is an
    alpha-mean of such terms, with the same range, so the bound holds for the
    mixture too.
    """
    volume = spec.volume
    kernel = spec.kernel
    ids = _interior_set(volume, inner)
    if spec.pin_vertex in ids:
        raise PinInsideInner("conditioning volume must avoid the pin vertex")
    inner_edges = volume.edges_touching(ids)

    base = np.zeros(volume.n_edges, dtype=np.int64)
    for e, z in (reference or {}).items():
        if e not in inner_edges:
            raise ValueError("reference assignment must live on inner edges")
        base[e] = int(z)

    log_a = np.log(kernel.law.as_array())
    log_n = np.log(kernel.norms)
    spread = sum(float(np.ptp(log_a - (len(volume.neighbors(v)) - 1) * log_n))
                 for v in ids)
    heights = vertex_heights(volume, spec.pin_vertex, 0, base)
    share = _largest_share(kernel, volume, spec.pin_vertex, ids, heights)
    return float(_certified(volume, -spread, spread, math.log(share)))
