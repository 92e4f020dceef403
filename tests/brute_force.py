"""Brute-force oracles for ``ggmtree``, kept in the tests.

The verifier scans in ``ggmtree.measures`` are checked against the
enumerating implementations they replaced, kept unchanged apart from the
partition cache: ``check_consistency`` and ``check_restricted_dlr`` visit
every windowed inner configuration, and the dual-gap scans loop over the
residue vectors one at a time in Python. They are slow, so tests run them on
depth-1 and depth-2 volumes only.

``sample_ggm_batch`` is the per-edge sampler and ``sample_csv`` the
``csv.writer`` output of ``ggmtree sample``, the references for the
level-blocked sampler and the table-driven encoder. ``is_normalizable`` and
``stationary_by_power_iteration`` are answers the library has no use for.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
from typing import Iterable, Mapping

import numpy as np

from ggmtree import cli
from ggmtree.chains import FuzzyChain, LayerKernel
from ggmtree.errors import PinInsideInner, VolumeTooLarge
from ggmtree.measures import GGMSpec, PinnedMeasureSpec
from ggmtree.model import (
    FiniteTreeVolume,
    PeriodicBoundaryLaw,
    TransferOperator,
    cayley_ball,
    eval_q,
    vertex_heights,
)


def _product_prob(kernel: LayerKernel, volume: FiniteTreeVolume, pin: int,
                  s: int, zeta) -> float:
    q = kernel.q
    layer = [0] * volume.n_vertices
    layer[pin] = s % q
    p = 1.0
    for e, src, dst, sign in volume.orientation_from(pin):
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
    for e, src, dst, sign in reversed(volume.orientation_from(pin)):
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
    for e, src, dst, sign in reversed(volume.orientation_from(pin)):
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
    for e, src, dst, sign in reversed(volume.orientation_from(spec.pin_vertex)):
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
        heights = vertex_heights(volume, spec.pin_vertex, 0, arr)
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
        h = vertex_heights(volume, spec.pin_vertex, 0, arr)
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
    for e, src, dst, sign in volume.orientation_from(pin):
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
    orient = volume.orientation_from(spec.pin_vertex)
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
    orient = volume.orientation_from(0)
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
    for e, src, dst, sign in volume.orientation_from(0):
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
    op, d, law, label, window, config = cli._setup(args, "sample", "n", "seed", "depth")
    kernel, chain = cli._kernel_and_chain(op, law, window)
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
