"""Correlation decay and the one-dimensional non-Gibbs mixture.

Correlations between events in two distant sub-volumes factor through powers
of the fuzzy chain along the connecting path, which yields both the exact
covariance and a total-variation bound on it. The chain-mixture on the
integer line shows what goes wrong without the boundary-law structure: its
conditional single-bond probabilities drift with the size of the
conditioning window.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import FuzzyChain, mixing_profile, second_eigenvalue_modulus, tv_distance

__all__ = [
    "CounterexampleChain",
    "correlation_and_bound",
    "decay_envelope",
    "conditional_ratio_closed",
    "conditional_ratio_enumerated",
    "path_mixture_prob",
]


def correlation_and_bound(chain: FuzzyChain, pA: np.ndarray, pB: np.ndarray,
                          n: int) -> tuple[float, float]:
    """Exact covariance of two windowed cylinder events at distance n, and the
    total-variation bound through the n-step fuzzy chain.

    pA and pB are the events' probabilities as vectors over the layer class s
    pinned at the event's vertex nearest the other (for a flat bond, the
    increment-0 column of ``LayerKernel.probs``), and n >= 1 is the distance
    between those two vertices. The joint probability factors as pA times n
    chain steps times pB; the bound is twice the A-probability times the
    worst n-step distance to stationarity times the largest pinned
    B-probability.
    """
    if np.shape(pA) != (chain.q,) or np.shape(pB) != (chain.q,):
        raise ValueError(f"pA and pB must be vectors of length q = {chain.q}")
    if n < 1:
        raise ValueError("the distance n must be at least 1")
    step_n = np.linalg.matrix_power(chain.matrix, n)
    joint = float(chain.alpha @ (pA * (step_n @ pB)))
    margA = float(chain.alpha @ pA)
    margB = float(chain.alpha @ pB)
    cov = joint - margA * margB
    tv = max(tv_distance(row, chain.alpha) for row in step_n)
    bound = 2.0 * margA * tv * float(pB.max())
    if abs(cov) > bound + 1e-14:
        raise AssertionError(f"covariance {cov} escaped its bound {bound}")
    return cov, bound


def decay_envelope(chain: FuzzyChain, n_max: int) -> tuple[float, float, np.ndarray]:
    """Geometric decay C * delta**n fitted to the mixing profile, not a bound:
    the profile can exceed it. delta is the modulus of the second-largest
    eigenvalue; C is fitted from the first two total-variation values.
    """
    delta = second_eigenvalue_modulus(chain.matrix)
    profile = mixing_profile(chain, max(n_max, 2))
    if delta == 0.0:
        return 0.0, 0.0, np.zeros(n_max)
    c = max(profile[0] / delta, profile[1] / delta**2)
    return c, delta, c * delta ** np.arange(1, n_max + 1)


# ---------------------------------------------------------------------------
# the one-dimensional counterexample


@dataclass(frozen=True)
class CounterexampleChain:
    """Two-layer chain on the integers with steps in {-1, 0, 1}.

    At layer parity s the step is +-1 with probability eps_s each and 0 with
    probability 1 - 2 eps_s. The layer-dependence is not induced by any
    boundary law, so the stationary mixture of the pinned walks is
    translation invariant but loses the conditional structure of a gradient
    measure.
    """

    eps0: float
    eps1: float

    def __post_init__(self):
        for e in (self.eps0, self.eps1):
            if not 0.0 < e < 0.5:
                raise ValueError("eps values must lie in (0, 1/2)")
        if self.eps0 == self.eps1:
            raise ValueError("the two layers must differ")

    def step_prob(self, layer: int, zeta: int) -> float:
        eps = self.eps1 if layer % 2 else self.eps0
        if zeta == 0:
            return 1.0 - 2.0 * eps
        if abs(zeta) == 1:
            return eps
        return 0.0

    def alpha(self) -> np.ndarray:
        # stationary layer weights: alpha(1)/alpha(0) = eps0/eps1
        total = self.eps0 + self.eps1
        return np.array([self.eps1 / total, self.eps0 / total])

    def growth_constant(self) -> float:
        return (1.0 - 2.0 * self.eps1) / (1.0 - 2.0 * self.eps0)


def path_mixture_prob(ce: CounterexampleChain, zeta: Sequence[int]) -> float:
    """Probability of a full increment configuration along a path under the
    stationary mixture of the pinned walks."""
    alpha = ce.alpha()
    total = 0.0
    for s in (0, 1):
        p = alpha[s]
        layer = s
        for z in zeta:
            p *= ce.step_prob(layer, int(z))
            layer = (layer + int(z)) % 2
        total += p
    return float(total)


def conditional_ratio_closed(ce: CounterexampleChain, len_left: int,
                             len_right: int) -> float:
    """Closed form of the ratio P(middle bond flat | flanks flat) over
    P(middle bond steps | flanks flat)."""
    a = ce.alpha()
    c = ce.growth_constant()
    num = (a[1] * (1.0 - 2.0 * ce.eps1) * c ** (len_left + len_right)
           + a[0] * (1.0 - 2.0 * ce.eps0))
    den = a[1] * ce.eps1 * c**len_left + a[0] * ce.eps0 * c**len_right
    return float(num / den)


def conditional_ratio_enumerated(ce: CounterexampleChain, len_left: int,
                                 len_right: int) -> float:
    """Same ratio from raw path probabilities: the conditioning pins every
    flank increment to zero, so only the middle bond varies."""
    flat = [0] * len_left + [0] + [0] * len_right
    up = [0] * len_left + [1] + [0] * len_right
    return path_mixture_prob(ce, flat) / path_mixture_prob(ce, up)

