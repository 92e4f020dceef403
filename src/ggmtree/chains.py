"""Layer-dependent increment kernels and their mod-q fuzzy chains.

Given a potential Q and a q-periodic boundary law l, the one-step kernel at
layer s puts weight Q(z) l(s + z mod q) on the increment z, normalized by
N(s) = sum_z Q(z) l(s + z). ``build_layer_kernel`` tabulates it once over the
window increments, with the layer each step ends in, and every consumer
(point probabilities, detailed balance, the product form, the windowed mass,
the bond marginals) reads that table. Wrapping the increments mod q turns the
kernel into a q-state chain whose stationary distribution alpha(s) is
proportional to l(s) N(s); that chain controls how fast the layer at a
far-away vertex forgets its start.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonStochastic, NonSummable
from .model import (
    IncrementWindow,
    PeriodicBoundaryLaw,
    TransferOperator,
    eval_q,
    interaction_matrix,
)

__all__ = [
    "LayerKernel",
    "FuzzyChain",
    "build_layer_kernel",
    "fuzzy_transform",
    "balance_defect",
    "check_reversibility",
    "tv_distance",
    "mixing_profile",
    "second_eigenvalue_modulus",
]


@dataclass(frozen=True, eq=False)
class LayerKernel:
    """Increment distributions per layer, truncated to a certified window.

    ``probs[s, k]`` is the exact kernel probability Q(z) a(s + z) / N(s) of
    the increment z = offsets[k] at layer s, and ``ends[s, k]`` the layer
    (s + z) mod q it ends in. ``rows`` renormalizes each row of ``probs`` to
    sum to one; the mass dropped by the truncation is ``deficits``. ``norms``
    are the exact one-step normalizers N(s) and ``circulant`` is the wrapped
    interaction matrix, both computed from full sums so that no truncation
    error enters them.
    """

    law: PeriodicBoundaryLaw
    window: IncrementWindow
    norms: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)
    ends: np.ndarray = field(repr=False)
    circulant: np.ndarray = field(repr=False)

    @property
    def q(self) -> int:
        return self.law.q

    @property
    def offsets(self) -> np.ndarray:
        return self.window.offsets

    @property
    def deficits(self) -> np.ndarray:
        return 1.0 - self.probs.sum(axis=1)

    @property
    def rows(self) -> np.ndarray:
        return self.probs / self.probs.sum(axis=1)[:, None]


def build_layer_kernel(op: TransferOperator, law: PeriodicBoundaryLaw,
                       window: IncrementWindow | None = None) -> LayerKernel:
    """Assemble the layer kernel for (op, law) on the given window.

    Raises ``NonSummable`` when the actually dropped row mass exceeds the
    window's declared bound.
    """
    if window is None:
        window = IncrementWindow.for_model(op, law)
    q = law.q
    a = law.as_array()
    circ = interaction_matrix(op, q)
    norms = circ @ a
    weights = np.array([eval_q(op, int(z)) for z in window.offsets])
    ends = (np.arange(q)[:, None] + window.offsets) % q
    kernel = LayerKernel(law, window, norms, weights * a[ends] / norms[:, None], ends, circ)
    deficits = kernel.deficits
    if np.any(deficits > window.tail_mass_bound + 1e-13):
        raise NonSummable(
            f"window cutoff {window.cutoff} drops {deficits.max():.3e} row mass, "
            f"above the declared bound {window.tail_mass_bound:.3e}"
        )
    return kernel


@dataclass(frozen=True, eq=False)
class FuzzyChain:
    """Row-stochastic q x q chain on layers with its stationary distribution."""

    q: int
    matrix: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)


def fuzzy_transform(kernel: LayerKernel) -> FuzzyChain:
    """Wrap the layer kernel mod q and attach its stationary distribution.

    The matrix entry (i, j) collects the full probability of all increments
    congruent to j - i, computed from wrapped sums rather than the truncated
    rows. alpha comes from the closed form alpha(i) proportional to
    l(i) N(i); the left-eigenvector route is kept to tests as an oracle.
    """
    q = kernel.q
    a = kernel.law.as_array()
    matrix = kernel.circulant * a[None, :] / kernel.norms[:, None]
    sums = matrix.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise NonStochastic(f"fuzzy row sums deviate by {np.abs(sums - 1).max():.3e}")
    matrix = matrix / sums[:, None]
    if np.any(matrix <= 0.0) and not _irreducible(matrix):
        raise NonStochastic("fuzzy chain is reducible; stationary law not unique")
    alpha = a * kernel.norms
    alpha /= alpha.sum()
    return FuzzyChain(q, matrix, alpha)


def _irreducible(matrix: np.ndarray) -> bool:
    q = len(matrix)
    reach = np.eye(q, dtype=bool) | (matrix > 0.0)
    power = reach.copy()
    for _ in range(q):
        power = power @ reach
    return bool(power.all())


def _same_period(kernel: LayerKernel, chain: FuzzyChain) -> None:
    """Raise ``ValueError`` unless the chain has the kernel's period, as the
    chain of another would index its layers and broadcast silently; every
    public function of a kernel and a chain calls this first."""
    if kernel.q != chain.q:
        raise ValueError("kernel and chain periods disagree")


def _balance_flows(kernel: LayerKernel, chain: FuzzyChain) -> tuple[np.ndarray, np.ndarray]:
    """The flows alpha(i) P(i, z) and alpha(i + z) P(i + z, -z) for layers i
    and the window increments z = offsets[k], P being the kernel table
    ``LayerKernel.probs``."""
    flow = chain.alpha[:, None] * kernel.probs
    # offsets run from -cutoff to cutoff, so -z sits at the mirrored column
    return flow, flow[kernel.ends, np.arange(len(kernel.offsets))[::-1]]


def balance_defect(kernel: LayerKernel, chain: FuzzyChain) -> np.ndarray:
    """D[i, k] = alpha(i) P(i, z) - alpha(i + z) P(i + z, -z), the difference
    of the two flows of ``_balance_flows``."""
    _same_period(kernel, chain)
    flow, back = _balance_flows(kernel, chain)
    return flow - back


def check_reversibility(kernel: LayerKernel, chain: FuzzyChain) -> float:
    """Maximal violation of alpha(i) P(i, z) = alpha(i + z) P(i + z, -z)
    over layers i and window increments z."""
    return float(np.abs(balance_defect(kernel, chain)).max())


def tv_distance(p: np.ndarray, r: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(r)).sum())


def mixing_profile(chain: FuzzyChain, n_max: int) -> np.ndarray:
    """max over start layers of TV(P^n(s, .), alpha) for n = 1 .. n_max."""
    out = np.empty(n_max)
    power = np.eye(chain.q)
    for n in range(1, n_max + 1):
        power = power @ chain.matrix
        out[n - 1] = max(tv_distance(power[s], chain.alpha) for s in range(chain.q))
    return out


def second_eigenvalue_modulus(matrix: np.ndarray) -> float:
    eig = np.sort(np.abs(np.linalg.eigvals(matrix)))
    return float(eig[-2]) if len(eig) > 1 else 0.0
