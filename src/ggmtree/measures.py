"""Finite-volume marginals of pinned gradient measures and their mixtures.

The measure pinned to a mod-q class at a vertex is evaluated as the
edge-by-edge product of layer-kernel factors, and its mixture over the
stationary layer distribution is the homogeneous gradient measure. The
paper's boundary-law form and its sum over a global class shift are never
evaluated: the certificates below bound their ratio to the product form.

Every kernel probability is read from the table ``LayerKernel.probs`` (with
the end layers ``LayerKernel.ends``), and ``_fold`` sums such a (layer,
increment) table onto pairs of layers. The pin is the centre of the ball,
vertex 0, from which the ball looks the same in every direction, so the
tree sums (the windowed mass, and the weight hanging below each vertex)
come from one scaled radial pass (``_upward``) with one unit vector per
level, indexed by the mod-q layer, and one log scale, so no volume
overflows or underflows and the verifier allocates nothing of the ball's
size. The checks take balls by their radius: consistency compares the
ball of radius r + 1 around the pin with the whole volume and reads level
r + 1 of the pass, and the conditional structure is checked on the
sub-ball of radius r below vertex 1. The sampler draws a level at a time,
each vertex's layer repeated for its children, from counter-based
uniforms, one SplitMix64 output per (sample, vertex) keyed by the seed,
so it yields its samples a block at a time, and draws each level in
ranges of at most ``DRAW_BLOCK`` uniforms, in memory that grows with
neither their number nor the ball beyond one byte per (sample, edge) of
the block.

No verifier check visits configurations or residue classes. Each returns a
certified upper bound on the largest |ratio - 1| between the two forms it
compares, and its docstring says why it bounds the exact maximum.
Probabilities are at most one, so the bound also bounds their largest
difference, and unlike the difference it does not shrink as the volume
grows. A dual or consistency ratio is an unknown constant times a product
of per-vertex factors, and both forms are probability measures, so its mean
is 1 and the constant puts 0 inside the product's log range: the bound is
the symmetric interval of that range's width, and no partition sum is
computed. The widths come from the law and the norms, from one radial pass
for consistency, O(radius q**2 + d q), or, for homogeneity, from the kernel
table alone. Each bound adds an explicit rounding allowance, so a
pass is never weaker than the exact check.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .chains import (FuzzyChain, LayerKernel, _balance_flows, _same_period, build_layer_kernel,
                     fuzzy_transform)
from .model import FiniteTreeVolume, IncrementWindow, PeriodicBoundaryLaw, TransferOperator

__all__ = [
    "sample_ggm_batch",
    "check_consistency",
    "check_homogeneity",
    "check_restricted_dlr",
    "max_dual_gap_pinned",
    "max_dual_gap_ggm",
    "windowed_mass",
    "single_bond_marginal",
]

DRAW_BLOCK = 2**16  # uniforms per block of samples, so a block needs O(DRAW_BLOCK) memory
GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment, the odd integer nearest 2**64 / phi
GUIDE = 2**12  # buckets of the sampler's guide tables; a power of two, so bucketing is exact
SLACK = 16  # rounding allowance of the ratio bounds, in ulps per edge
EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# the layer pass


def _upward(volume: FiniteTreeVolume, matrix: np.ndarray,
            leaf: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The pass from the boundary towards vertex 0 over mod-q layer vectors:
    each boundary vertex starts from ``leaf`` (the others, and all of them
    without it, from ones) and each edge multiplies ``matrix @ f[dst]`` into
    ``f[src]``. Then f[v] is the total weight of the part of the volume below
    v by layer, the same for every v of a level.

    It is Felsenstein's pruning (1981) along one ray, a row per level from
    the deepest up: the level's message is scaled to largest entry 1, its d
    copies (d + 1 at the root) are multiplied as a left fold, and that times
    the level's row is scaled once more, so no product exceeds 1 at any
    degree. As in the forward algorithm (Rabiner 1989) it returns the unit
    rows u, one per level, and the log of every vertex's scales,
    f[0] = u[0] exp(log_total): that is all the windowed mass reads, and
    elsewhere f[v] is u at v's level up to a scale, which a ptp of the log
    ignores.
    """
    starts = volume.starts
    unit = np.ones((len(starts) - 1, len(matrix)))
    log_total = 0.0
    if leaf is not None:
        top = leaf.max()
        unit[-1] = leaf / top
        log_total = (starts[-1] - starts[-2]) * float(np.log(top))
    for k in range(len(unit) - 2, -1, -1):
        message = matrix @ unit[k + 1]
        top = message.max()
        message /= top
        f = unit[k] * np.multiply.reduce([message] * (volume.d + (k == 0)))
        peak = f.max()
        unit[k] = f / peak
        log_total += ((starts[k + 2] - starts[k + 1]) * float(np.log(top))
                      + (starts[k + 1] - starts[k]) * float(np.log(peak)))
    return unit, log_total


def _fold(kernel: LayerKernel, table: np.ndarray) -> np.ndarray:
    """F[t, t'] = the sum over the window increments k with ends[t, k] = t'
    of table[t, k], in increasing k, or 0 where there is none: a (layer,
    increment) table folded onto layer pairs."""
    q = kernel.q
    out = np.zeros((q, q))
    np.add.at(out, (np.arange(q)[:, None], kernel.ends), table)
    return out


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
    that lookup's, bit for bit. The tables are flat over (bucket, layer), so
    the index m q + t is built in place.
    """

    def __init__(self, kernel: LayerKernel):
        self.q = kernel.q
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
        # flat over (bucket, layer)
        self.steps = np.where(below[:, 1:] == below[:, :-1], self.increments[k],
                              self.lost).T.ravel()
        self.finals = np.take_along_axis(self.ends, k, axis=1).T.ravel()

    def __call__(self, t: np.ndarray, u: np.ndarray,
                 key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Increments and end layers of the uniforms u at the layers t; the
        table indices are written to ``key``, an intp array of u's shape."""
        np.multiply(u, GUIDE, out=key, casting="unsafe")  # floor, as u >= 0
        key *= self.q
        key += t
        z, end = self.steps[key], self.finals[key]
        miss = np.flatnonzero(z == self.lost)
        for layer in set(t.flat[miss].tolist()):
            at = miss[t.flat[miss] == layer]
            k = np.minimum(np.searchsorted(self.cdf[layer], u.flat[at], side="right"), self.top)
            z.flat[at], end.flat[at] = self.increments[k], self.ends[layer, k]
        return z, end


def _uniforms(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The uniforms of the SplitMix64 states x (Steele, Lea & Flood 2014):
    its finalizer mixes each state, in place, and the top 53 bits of the
    result times 2**-53 are the uniform in [0, 1), written to ``out``, a
    float array of x's shape that first holds the finalizer's shifts."""
    shifted = out.view(np.uint64)
    x ^= np.right_shift(x, np.uint64(30), out=shifted)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    x >>= np.uint64(11)
    return np.multiply(x, 2.0**-53, out=out)


def sample_ggm_batch(kernel: LayerKernel, chain: FuzzyChain, volume: FiniteTreeVolume,
                     n: int, seed: int) -> Iterator[np.ndarray]:
    """n independent configurations, as blocks of consecutive samples: each
    block an (m, n_edges) array of increments in the narrowest signed
    integer dtype that holds -cutoff - 1, so one byte per (sample, edge) up
    to cutoff 127.

    Counter-based draw (Salmon et al. 2011): the uniform of vertex v in
    sample i is the SplitMix64 output at counter p = i 2**32 + v, of the
    state seed + (p + 1) GOLDEN mod 2**64, the seed masked to 64 bits.
    Vertex 0 gives the root's class by the stationary layer distribution,
    and vertex v >= 1 the increment on edge v - 1 by the inverse-CDF lookup
    in its source layer's row, through the guide tables of ``_Guide``, exact
    because their bucket bounds are exact binary fractions and a uniform in
    a bucket holding a cdf entry goes to ``searchsorted``. So a sample does
    not depend on the blocking, ``n = k`` gives the first k samples of any
    larger n, and, vertices being numbered level by level, the radius-r
    configuration of a sample is the restriction of its radius-R one. The
    counters are distinct while i and v stay below 2**32, so ``ggmtree
    sample`` refuses an n or a ball of more than 2**32.

    A block holds as many samples as fit in ``DRAW_BLOCK`` uniforms, and at
    least one, and is drawn a level at a time; a sample of more than
    ``DRAW_BLOCK`` vertices draws each level in sub-ranges of at most
    ``DRAW_BLOCK`` vertices. Consecutive ranges share one call to
    ``_uniforms`` while together no wider than the widest, so the levels
    near the root cost one call. A range's states come from its vertex
    numbers, and its states, uniforms and table indices live in two buffers
    of the widest range, reused from range to range and block to block. The
    j-th vertex of level k is a child of the (j // fan)-th of level k - 1,
    fan being d + 1 at level 1 and d below, so a range reads only the layers
    of the level before it, one byte per vertex up to q = 256. So memory is
    O(DRAW_BLOCK) plus the block, one byte per (sample, edge), and the
    layers of two levels, whatever n and the ball.
    """
    _same_period(kernel, chain)  # here, not at the first block
    return _blocks(kernel, chain.alpha, volume, n, seed)


def _blocks(kernel: LayerKernel, alpha: np.ndarray, volume: FiniteTreeVolume,
            n: int, seed: int) -> Iterator[np.ndarray]:
    """The blocks of ``sample_ggm_batch``, the root's class drawn by alpha."""
    starts, d = volume.starts, volume.d
    guide = _Guide(kernel)
    root = np.cumsum(alpha)
    per_block = max(1, DRAW_BLOCK // volume.n_vertices)
    span = DRAW_BLOCK // per_block  # whole levels when a sample fits
    # each level in ranges (k, x, y) of at most span vertices x .. y - 1, and
    # runs of consecutive ranges drawn at once while no wider than the widest
    ranges = [(k, x, min(x + span, starts[k + 1]))
              for k in range(len(starts) - 1) for x in range(starts[k], starts[k + 1], span)]
    widest = max(y - x for _, x, y in ranges)
    runs = []
    for piece in ranges:
        if runs and piece[2] - runs[-1][0][1] <= widest:
            runs[-1].append(piece)
        else:
            runs.append([piece])
    multiples = np.arange(widest, dtype=np.uint64) * np.uint64(GOLDEN)
    # kept for the whole batch: arrays this size freed and made again every
    # block have their pages faulted in anew each time the heap is trimmed
    states = np.empty(widest * min(n, per_block), dtype=np.uint64)
    uniforms = np.empty(len(states))
    for c in range(0, n, per_block):
        m = min(per_block, n - c)
        # seed + (i 2**32 + 1) GOLDEN for the samples i of the block
        first = np.arange(c, c + m, dtype=np.uint64)[:, None] * np.uint64((GOLDEN << 32) % 2**64)
        first += np.uint64((int(seed) + GOLDEN) % 2**64)
        out = np.empty((m, volume.n_edges), dtype=guide.increments.dtype)
        for run in runs:
            a, b = run[0][1], run[-1][2]
            # the states of the vertices a .. b - 1, a column per vertex
            drawn = states[:m * (b - a)].reshape(m, b - a)
            np.add(first + np.uint64(a * GOLDEN % 2**64), multiples[:b - a], out=drawn)
            u = _uniforms(drawn, uniforms[:drawn.size].reshape(drawn.shape))
            for k, x, y in run:
                if k == 0:  # the root's class
                    layers = np.searchsorted(root, u[:, :1], side="right")
                    layers = np.minimum(layers, len(root) - 1).astype(guide.ends.dtype)
                    continue
                s = starts[k]
                if x == s:
                    below = np.empty((m, starts[k + 1] - s), dtype=guide.ends.dtype)
                fan = d + (k == 1)
                j = x - s
                src = layers[:, j // fan:(y - s - 1) // fan + 1].repeat(fan, axis=1)
                # the mixed states are spent, so their buffer holds the table indices
                keys = states[:m * (y - x)].view(np.intp).reshape(m, y - x)
                out[:, x - 1:y - 1], below[:, j:y - s] = guide(
                    src[:, j % fan:j % fan + y - x], u[:, x - a:y - a], keys)
                if y == starts[k + 1]:
                    layers = below
        yield out


def windowed_mass(kernel: LayerKernel, volume: FiniteTreeVolume, pin_class: int) -> float:
    """Total product-form probability of the windowed configuration space
    with ``pin_class``, in 0 .. q - 1, at the pin, computed by the layer pass
    (equals one minus the truncated tail)."""
    if not 0 <= pin_class < kernel.q:
        raise ValueError("pin class must lie in 0 .. q-1")
    W = _fold(kernel, kernel.probs)
    unit, log_total = _upward(volume, W)
    unit = float(unit[0][pin_class])
    try:
        return unit * math.exp(log_total)
    except OverflowError:  # the scale alone is beyond the largest double
        pass
    try:
        return math.exp(math.log(unit) + log_total) if unit > 0.0 else 0.0
    except OverflowError:
        return math.inf


def single_bond_marginal(op: TransferOperator, law: PeriodicBoundaryLaw,
                         window: IncrementWindow) -> np.ndarray:
    """Exact one-edge marginal of the homogeneous measure over the window,
    proportional to Q(z) * sum_s l(s) l(s + z): the stationary layer
    distribution times the kernel table, sum_s alpha(s) P(s, z)."""
    kernel = build_layer_kernel(op, law, window)
    return fuzzy_transform(kernel).alpha @ kernel.probs


# ---------------------------------------------------------------------------
# certificates: the pieces


def _slack(volume: FiniteTreeVolume, largest: float) -> float:
    """The rounding allowance of a ratio bound: SLACK ulps per edge of
    ``largest``, the products of n_edges factors being compared."""
    return SLACK * EPS * (volume.n_edges + 1) * largest


def _certified(volume: FiniteTreeVolume, width: float) -> float:
    """The bound on max |ratio - 1| for two forms whose log ratio lies in
    [-width, width] on every configuration, where 1 - e**-width <=
    e**width - 1. The allowance is relative to the larger form, at most
    1 + e**width = 2 + max |ratio - 1| times the second."""
    try:
        off_one = math.expm1(width)
    except OverflowError:  # e**width is beyond the largest double
        return math.inf
    return off_one + _slack(volume, 2.0 + off_one)


# ---------------------------------------------------------------------------
# verification: the two representations


def _dual_parts(kernel: LayerKernel, d: int) -> tuple[np.ndarray, float]:
    """log N(s)**-(d+1) by pin class s, and the per-vertex width ptp(log g):
    pinned to class s, the ratio of the product form to the boundary-law form
    is z_s N(s)**-(d+1) prod_v g(t_v) over the m = starts[-2] - 1 interior
    vertices v other than the pin, g = a / N**d. Each such v is the head of
    one edge (a factor a) and the tail of d (a factor 1/N), the pin is the
    tail of d + 1, and the boundary factors a cancel."""
    log_n = np.log(kernel.norms)
    log_g = np.log(kernel.law.as_array()) - d * log_n
    return -(d + 1) * log_n, float(np.ptp(log_g))


def max_dual_gap_pinned(kernel: LayerKernel, volume: FiniteTreeVolume) -> float:
    """Certified upper bound on the largest |product form / boundary-law
    form - 1| over every configuration. Both forms are probability
    measures, so the ratio has mean 1: it is 1 or more somewhere and 1 or
    less somewhere. Its log is an unknown constant plus a sum ranging over
    an interval of width m ptp(log g) (``_dual_parts``), so the constant
    puts 0 in that interval and |log ratio| is at most its width. No
    partition sum is needed, and one bound serves every pin class.
    """
    return _certified(volume, (volume.starts[-2] - 1) * _dual_parts(kernel, volume.d)[1])


def max_dual_gap_ggm(kernel: LayerKernel, chain: FuzzyChain, volume: FiniteTreeVolume) -> float:
    """Certified upper bound on the largest |mixture form / class-summed
    boundary-law form - 1| over every configuration. With Z = sum_s z_s the
    forms are sum_s alpha_s P_s and sum_s B_s / Z, and P_s over B_s / z_s is
    the pinned ratio, so their ratio is a B_s-weighted mean over s of
    Z c_s prod_v g(t_v), c_s = alpha_s N(s)**-(d+1) (the mediant
    inequality). Both forms are probability measures, so as for
    ``max_dual_gap_pinned`` the constant Z puts 0 inside the log range,
    whose width is ptp(log c) + m ptp(log g).
    """
    _same_period(kernel, chain)
    log_n_pin, width = _dual_parts(kernel, volume.d)
    log_c = np.log(chain.alpha) + log_n_pin
    return _certified(volume, float(np.ptp(log_c)) + (volume.starts[-2] - 1) * width)


def check_consistency(kernel: LayerKernel, volume: FiniteTreeVolume, radius: int) -> float:
    """Marginalize the volume's boundary-law measure onto the closed ball of
    radius ``radius + 1`` around the pin, vertex 0, whose interior is the
    inner ball of radius ``radius`` and whose boundary, the rim, is level
    radius + 1, and compare with the directly computed measure on that ball.

    Returns a certified upper bound on the largest |marginal / direct - 1|
    over the inner configurations. Their ratio is z_inner / z_big times
    prod_v hang_v(t_v) / a(t_v) over the rim vertices v, hang_v being the
    weight hanging below v. Both sides are probability measures, so as for
    ``max_dual_gap_pinned`` |log ratio| is at most the sum of the widths
    ptp(log hang_v - log a), one per rim vertex, all equal on one level.
    That holds for every pin class, so it also bounds the two mixtures over
    the stationary layer distribution, whose ratio is a weighted mean of the
    pinned ratios. The radius lies in 0 .. the volume's radius - 1, so the
    rim is interior or the boundary.
    """
    starts = volume.starts
    if not 0 <= radius < len(starts) - 2:
        raise ValueError("the inner radius must lie in 0 .. the radius - 1")
    a = kernel.law.as_array()
    # the weight hanging below a rim vertex equals the boundary law itself
    # exactly when the law solves the fixed-point equation
    hang = _upward(volume, kernel.circulant, a)[0][radius + 1]
    width = float(np.ptp(np.log(hang) - np.log(a)))
    rim = starts[radius + 2] - starts[radius + 1]
    return _certified(volume, rim * width)


# ---------------------------------------------------------------------------
# verification: homogeneity and the restricted conditional structure


def check_homogeneity(kernel: LayerKernel, chain: FuzzyChain, volume: FiniteTreeVolume,
                      pins: Iterable[int]) -> float:
    """Certified upper bound on the largest |ratio - 1| between the mixture
    probabilities of one windowed configuration under any two of ``pins``
    as the pin vertex, from the kernel table alone, the pins being depths
    0 .. radius of one ray from vertex 0.

    Moving the pin from w to a neighbour w' across an edge with increment z
    turns the mixture probability sum_s F(s, z) R(s) into
    sum_s F(s + z, -z) R(s): F(s, z) = alpha(s) P(s, z) is the flow of
    ``chains.balance_defect``, and R(s) >= 0 the product of the kernel
    probabilities on both sides of the edge, with the layer s at w and
    s + z at w'. Only that edge's factor changes, so by the mediant
    inequality the ratio of the two lies in [min_s rho_s, max_s rho_s],
    rho_s = F(s, z) / F(s + z, -z) over the s where either flow is positive.
    With r = max |rho - 1| over every layer and increment, two pins joined
    by k edges, k = max - min of the depths, are within a ratio of
    [(1 - r)**k, (1 + r)**k], so the bound is (1 + r)**k - 1. Its
    allowance covers the rounding of the k ratios and of the power, about
    one ulp each.
    """
    _same_period(kernel, chain)
    pins = list(pins)
    if not 0 <= min(pins) <= max(pins) <= len(volume.starts) - 2:
        raise ValueError("pin depths must lie in 0 .. the radius")
    k = max(pins) - min(pins)
    if not k:
        return 0.0
    flow, back = _balance_flows(kernel, chain)
    live = (flow > 0.0) | (back > 0.0)
    with np.errstate(divide="ignore"):
        r = float(np.abs(flow[live] / back[live] - 1.0).max())
    try:
        grown = math.expm1(k * math.log1p(r))
    except OverflowError:  # (1 + r)**k is beyond the largest double
        return math.inf
    return grown + (k + 2) * EPS * (1.0 + grown)


def check_restricted_dlr(kernel: LayerKernel, volume: FiniteTreeVolume, radius: int) -> float:
    """Conditional law inside the sub-ball of radius ``radius`` hanging
    below vertex 1, away from the pin, given the outside increments and the
    relative boundary heights, against the bare-weight prediction:
    proportional to the product of Q factors over configurations in the same
    boundary-height class.

    Returns a certified upper bound on the largest |ratio - 1| between the
    two conditional laws, which holds for every outside assignment and every
    boundary-height class. Some inner-boundary vertex is tied to the pin
    through outside edges, so a class keeps the height of every vertex
    outside the sub-ball. On it the joint probability p over the bare
    weight b is a constant times prod_v a(t_v) / N(t_v)**k_v over the inner
    vertices v, k_v being the number of edges leaving v away from the pin.
    So p / b varies by at most a factor rho, the product of the per-vertex
    ranges, and (p / sum p) / (b / sum b) lies in [1 / rho, rho]. Under the
    stationary mixture p is an alpha-mean of such terms, with the same
    range, so the bound holds for the mixture too. The radius lies in
    0 .. the volume's radius - 2, so the sub-ball is interior.
    """
    if not 0 <= radius < len(volume.starts) - 3:
        raise ValueError("the sub-ball radius must lie in 0 .. the radius - 2")
    # every vertex of the sub-ball has d neighbours away from the pin, its
    # children, so each adds the same width ptp(log g)
    count = sum(volume.d ** j for j in range(radius + 1))
    return _certified(volume, count * _dual_parts(kernel, volume.d)[1])
