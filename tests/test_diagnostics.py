import math

import numpy as np
import pytest

from ggmtree import (
    SOS,
    CounterexampleChain,
    GGMSpec,
    IncrementWindow,
    PeriodMismatch,
    PeriodicBoundaryLaw,
    build_layer_kernel,
    correlation_and_bound,
    counterexample_conditional_ratio,
    decay_envelope,
    fuzzy_transform,
    identifiability_check,
    path_volume,
)
from ggmtree.diagnostics import (
    conditional_ratio_closed,
    conditional_ratio_enumerated,
    path_mixture_prob,
)

from brute_force import (
    GradientConfiguration,
    bond_marginals_by_position,
    ggm_prob,
    windowed_configs,
)


def bond_events(n):
    return {0, 1}, {n + 1, n + 2}, {(0, 1): 0}, {(n + 1, n + 2): 0}


class TestCorrelation:
    def test_uniform_law_has_zero_covariance(self):
        kernel = build_layer_kernel(SOS(1.5), PeriodicBoundaryLaw.trivial(2))
        chain = fuzzy_transform(kernel)
        for n in (1, 3):
            spec = GGMSpec(kernel, chain, path_volume(n + 2))
            A, B, zA, zB = bond_events(n)
            cov, bound = correlation_and_bound(spec, A, B, zA, zB, n)
            assert abs(cov) < 1e-15

    def test_decay_below_bound_and_envelope(self, kernel, chain):
        covs = []
        bounds = []
        for n in range(1, 11):
            spec = GGMSpec(kernel, chain, path_volume(n + 2))
            A, B, zA, zB = bond_events(n)
            cov, bound = correlation_and_bound(spec, A, B, zA, zB, n)
            covs.append(abs(cov))
            bounds.append(bound)
        covs = np.array(covs)
        bounds = np.array(bounds)
        assert np.all(covs <= bounds)
        c, delta, env = decay_envelope(chain, 10)
        assert np.all(np.diff(np.log(covs)) < 0.0)
        slope = np.polyfit(np.arange(1, 11), np.log(covs), 1)[0]
        assert abs(slope - math.log(delta)) <= 0.1 * abs(math.log(delta))

    def test_matches_enumeration_within_truncated_semantics(self, sos2, upper_law):
        # rebuild the factorized covariance from the truncated rows themselves;
        # enumeration over the window then agrees to machine precision
        window = IncrementWindow.manual(sos2, 3, upper_law)
        kernel = build_layer_kernel(sos2, upper_law, window)
        offs = kernel.offsets
        q = kernel.q
        rows = kernel.rows
        P = np.zeros((q, q))
        for i in range(q):
            for z, p in zip(offs, rows[i]):
                P[i, (i + int(z)) % q] += p
        alpha = fuzzy_transform(kernel).alpha
        for n in (1, 2, 3, 4):
            vol = path_volume(n + 2)
            pA = rows[:, list(offs).index(0)]
            # truncated-row event probabilities; alpha is stationary only for
            # the exact chain, so the far bond needs the propagated layer law
            step = np.linalg.matrix_power(P, n)
            joint = float(alpha @ (pA * (step @ pA)))
            pa = float(alpha @ pA)
            pb = float(alpha @ (np.linalg.matrix_power(P, n + 1) @ pA))
            cov_formula = joint - pa * pb
            # enumeration over all windowed path configurations
            tot_joint = tot_a = tot_b = 0.0
            for arr in windowed_configs(vol, window, 10**7):
                p = 0.0
                for s in range(q):
                    term = alpha[s]
                    layer = s
                    for z in arr:
                        term *= rows[layer, list(offs).index(int(z))]
                        layer = (layer + int(z)) % q
                    p += term
                if arr[0] == 0:
                    tot_a += p
                if arr[-1] == 0:
                    tot_b += p
                if arr[0] == 0 and arr[-1] == 0:
                    tot_joint += p
            cov_enum = tot_joint - tot_a * tot_b
            assert cov_formula == pytest.approx(cov_enum, abs=1e-13)

    def test_exact_semantics_converge_with_window(self, sos2, upper_law):
        # with a certified window the enumerated covariance approaches the
        # wrapped-sum factorization at the rate of the dropped tail mass
        window = IncrementWindow.manual(sos2, 8, upper_law)
        kernel = build_layer_kernel(sos2, upper_law, window)
        chain = fuzzy_transform(kernel)
        n = 1
        vol = path_volume(n + 2)
        spec = GGMSpec(kernel, chain, vol)
        A, B, zA, zB = bond_events(n)
        cov, _ = correlation_and_bound(spec, A, B, zA, zB, n)
        tot_joint = tot_a = tot_b = 0.0
        for arr in windowed_configs(vol, window, 10**7):
            p = ggm_prob(spec, GradientConfiguration(vol, tuple(map(int, arr))))
            if arr[0] == 0:
                tot_a += p
            if arr[-1] == 0:
                tot_b += p
            if arr[0] == 0 and arr[-1] == 0:
                tot_joint += p
        cov_enum = tot_joint - tot_a * tot_b
        slack = 10.0 * (n + 2) * kernel.deficits.max()
        assert abs(cov - cov_enum) <= slack

    def test_distance_validation(self, kernel, chain):
        spec = GGMSpec(kernel, chain, path_volume(4))
        with pytest.raises(ValueError):
            correlation_and_bound(spec, {0, 1}, {3, 4}, {(0, 1): 0}, {(3, 4): 0}, 5)

    def test_tv_profile_submultiplicative(self, chain):
        from ggmtree.chains import mixing_profile
        prof = mixing_profile(chain, 16)
        for m in range(1, 8):
            for n in range(1, 8):
                assert prof[m + n - 1] <= 2.0 * prof[m - 1] * prof[n - 1] + 1e-13


class TestIdentifiability:
    def test_nontrivial_law_distinguishable_from_flat(self, sos2, upper_law):
        distinguishable, gap = identifiability_check(
            sos2, upper_law, PeriodicBoundaryLaw.trivial(2))
        assert distinguishable
        assert gap > 1e-3

    def test_cyclic_shift_indistinguishable(self, sos2, upper_law):
        distinguishable, gap = identifiability_check(sos2, upper_law, upper_law.shifted(1))
        assert not distinguishable
        assert gap < 1e-12

    def test_single_marked_class_detectable_for_period_four(self):
        op = SOS(1.0)
        marked = PeriodicBoundaryLaw.from_values([2.0, 1.0, 1.0, 1.0])
        distinguishable, gap = identifiability_check(op, marked, PeriodicBoundaryLaw.trivial(4))
        assert distinguishable
        assert gap > 1e-4

    def test_period_mismatch_rejected(self, sos2):
        with pytest.raises(PeriodMismatch):
            identifiability_check(sos2, PeriodicBoundaryLaw.trivial(2),
                                  PeriodicBoundaryLaw.trivial(3))


class TestCounterexample:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CounterexampleChain(0.1, 0.1)
        with pytest.raises(ValueError):
            CounterexampleChain(0.0, 0.1)
        with pytest.raises(ValueError):
            CounterexampleChain(0.1, 0.5)

    def test_stationary_ratio(self):
        ce = CounterexampleChain(0.1, 0.05)
        alpha = ce.alpha()
        assert alpha[1] / alpha[0] == pytest.approx(ce.eps0 / ce.eps1, abs=1e-15)
        assert alpha @ ce.fuzzy_matrix() == pytest.approx(alpha, abs=1e-15)

    def test_closed_form_equals_enumeration(self):
        ce = CounterexampleChain(0.1, 0.05)
        for k in range(1, 13):
            closed = conditional_ratio_closed(ce, k, k)
            enum = conditional_ratio_enumerated(ce, k, k)
            assert abs(closed - enum) <= 1e-10 * closed
            counterexample_conditional_ratio(ce, k, k)

    def test_ratio_grows_with_flank_length(self):
        ce = CounterexampleChain(0.1, 0.05)
        ratios = [conditional_ratio_closed(ce, k, k) for k in range(1, 13)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        growth = [b / a for a, b in zip(ratios, ratios[1:])]
        # per-step growth approaches the drift constant of the closed form
        assert growth[-1] == pytest.approx(ce.growth_constant(), abs=0.02)

    def test_nearly_equal_rates_are_stable(self):
        # the degenerate equal-rate chain is rejected, but the formula limit
        # loses its dependence on the conditioning window
        ce = CounterexampleChain(0.1, 0.1 - 1e-9)
        r1 = conditional_ratio_closed(ce, 1, 1)
        r8 = conditional_ratio_closed(ce, 8, 8)
        assert r8 == pytest.approx(r1, rel=1e-6)

    def test_translation_invariance_of_bond_marginals(self):
        ce = CounterexampleChain(0.1, 0.05)
        marg = bond_marginals_by_position(ce, 6)
        assert np.abs(marg - marg[0]).max() < 1e-14
        assert np.abs(marg.sum(axis=1) - 1.0).max() < 1e-14

    def test_total_mass_of_path_measure(self):
        ce = CounterexampleChain(0.12, 0.07)
        import itertools
        tot = sum(path_mixture_prob(ce, combo)
                  for combo in itertools.product((-1, 0, 1), repeat=5))
        assert tot == pytest.approx(1.0, abs=1e-14)

    def test_asymmetric_flanks(self):
        ce = CounterexampleChain(0.1, 0.05)
        for L, R in ((0, 0), (0, 3), (5, 2)):
            closed = conditional_ratio_closed(ce, L, R)
            enum = conditional_ratio_enumerated(ce, L, R)
            assert abs(closed - enum) <= 1e-12 * closed
