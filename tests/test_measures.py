import itertools
import math

import numpy as np
import pytest

from ggmtree import (
    SOS,
    FiniteTreeVolume,
    GGMSpec,
    IncrementWindow,
    PeriodicBoundaryLaw,
    PinInsideInner,
    PinnedMeasureSpec,
    build_layer_kernel,
    cayley_ball,
    check_consistency,
    check_homogeneity,
    check_restricted_dlr,
    closed_form_q2_sos,
    eval_q,
    find_branches,
    fuzzy_transform,
    max_dual_gap_ggm,
    max_dual_gap_pinned,
    path_volume,
    sample_ggm_batch,
    single_bond_marginal,
    total_mass,
    wrapped_row,
)
from ggmtree import measures
from ggmtree.chains import tv_distance
from ggmtree.measures import event_prob_pinned, windowed_mass

import brute_force as bf
from brute_force import (
    GradientConfiguration,
    VolumeTooLarge,
    alt_ggm_prob,
    coupling_expectation,
    event_prob_ggm,
    ggm_prob,
    pinned_prob_bl,
    pinned_prob_product,
    sample_ggm,
    windowed_configs,
)


def perturbed(law, factor=1.1):
    a = list(law.a)
    a[1] *= factor
    return PeriodicBoundaryLaw.from_values(a)


@pytest.fixture(scope="module")
def small_kernel(sos2, upper_law):
    # cutoff 3 keeps enumerations tiny; the declared bound tracks the true tail
    return build_layer_kernel(sos2, upper_law, IncrementWindow.manual(sos2, 3, upper_law))


@pytest.fixture(scope="module")
def small_chain(small_kernel):
    return fuzzy_transform(small_kernel)


class TestScaledPass:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_partition_agrees_with_unscaled_pass(self, spec_parts, depth):
        kernel, _ = spec_parts
        volume = cayley_ball(2, depth)
        for pin in (0, 1):
            got = np.exp(measures._bl_partition(kernel, volume, pin))
            want = bf._bl_partition(kernel, volume, pin)
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_windowed_mass_agrees_with_unscaled_pass(self, kernel, depth):
        spec = PinnedMeasureSpec(kernel, cayley_ball(2, depth), 0, 1)
        assert windowed_mass(spec) == pytest.approx(bf.windowed_mass(spec), rel=1e-13)

    def test_deep_partition_stays_finite(self, kernel):
        # the unscaled partition overflows from depth 8 on
        log_z = measures._bl_partition(kernel, cayley_ball(2, 14), 0)
        assert np.all(np.isfinite(log_z))
        assert log_z.min() > 700.0

    def test_max_product_is_the_largest_weight(self, small_kernel, ball1):
        # the largest boundary-law weight over the windowed configurations
        a = small_kernel.law.as_array()
        top = measures._upward(ball1, 0, measures._largest_q(small_kernel),
                               ball1.boundary, a, maximum=True)
        for s in range(2):
            want = max(bf._bl_weight(small_kernel, ball1, 0, s, arr)
                       for arr in windowed_configs(ball1, small_kernel.window))
            assert np.exp(measures._log_at(top, 0)[s]) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("q", [2, 3, 4, 6])
    def test_level_batches_are_the_scalar_pass(self, q):
        # bit for bit: each src takes its updates in the scalar pass's order.
        # The random tree's subtrees differ, so its scales are many distinct
        # logs, which numpy's vectorized log would round differently
        rng = np.random.default_rng(q)
        matrix = rng.random((q, q)) + 0.1
        leaf = rng.random(q) + 0.5
        tree = FiniteTreeVolume(2, [None, *(int(rng.integers(i)) for i in range(1, 2000))], ())
        volumes = [cayley_ball(2, 2), cayley_ball(2, 3), cayley_ball(2, 10), tree]
        for volume, pin in itertools.product(volumes, (0, 1, 5)):
            leaves = [v for v in range(volume.n_vertices) if not volume.children[v]]
            part = {pin}  # a random connected part holding the pin
            while len(part) < min(volume.n_vertices // 2, 40):
                part.add(int(rng.choice(sorted(volume.adjacent_outside(part)))))
            edges = {v - 1 for v in part if v and volume.parents[v] in part}
            for maximum, (within, restrict) in itertools.product(
                    (False, True), ((None, None), (part, edges))):
                unit, scale = measures._upward(volume, pin, matrix, leaves, leaf, within,
                                               maximum)
                want_unit, want_scale = bf.scalar_upward(
                    volume, pin, matrix, dict.fromkeys(leaves, leaf), restrict, maximum)
                assert np.array_equal(unit, np.array(want_unit))
                assert np.array_equal(scale, want_scale)

    def test_one_update_per_level_and_rank(self, kernel):
        class Counted(np.ndarray):
            calls = 0

            def __matmul__(self, other):
                Counted.calls += 1
                return np.asarray(self) @ other

        matrix = kernel.circulant.view(Counted)
        for depth in range(2, 11):
            volume = cayley_ball(2, depth)
            Counted.calls = 0
            measures._upward(volume, 0, matrix, volume.boundary, kernel.law.as_array())
            assert 0 < Counted.calls <= depth * (volume.d + 1)


class TestPinnedProduct:
    def test_single_edge_uniform_law(self):
        op = SOS(1.0)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(2))
        vol = path_volume(1)
        spec = PinnedMeasureSpec(kernel, vol, 0, 0)
        zeta = GradientConfiguration(vol, (0,))
        assert pinned_prob_product(spec, zeta) == pytest.approx(
            1.0 / total_mass(op), abs=1e-13)

    def test_two_edge_path_unrolls_kernel_factors(self, kernel):
        vol = path_volume(2)
        spec = PinnedMeasureSpec(kernel, vol, 0, 0)
        zeta = GradientConfiguration(vol, (1, 1))
        want = kernel.prob(0, 1) * kernel.prob(1, 1)
        assert pinned_prob_product(spec, zeta) == pytest.approx(want, abs=1e-15)

    def test_star_volume_sums_to_one(self, kernel, ball1):
        # enumeration over the certified window captures all but the tail
        spec = PinnedMeasureSpec(kernel, ball1, 0, 0)
        tot = sum(
            pinned_prob_product(spec, GradientConfiguration(ball1, tuple(map(int, arr))))
            for arr in windowed_configs(ball1, kernel.window, 10**6)
        )
        assert tot == pytest.approx(1.0, abs=1e-10)

    def test_windowed_mass_matches_enumeration(self, small_kernel, ball1):
        spec = PinnedMeasureSpec(small_kernel, ball1, 0, 0)
        tot = sum(
            pinned_prob_product(spec, GradientConfiguration(ball1, tuple(map(int, arr))))
            for arr in windowed_configs(ball1, small_kernel.window, 10**6)
        )
        assert windowed_mass(spec) == pytest.approx(tot, abs=1e-13)

    def test_stored_orientation_does_not_matter(self, kernel):
        # the same physical path stored with the opposite root: walking from
        # the same physical pin gives identical probabilities
        fwd = path_volume(2)
        rev = path_volume(2)  # vertex j here plays the role of vertex 2 - j
        spec_f = PinnedMeasureSpec(kernel, fwd, 0, 0)
        spec_r = PinnedMeasureSpec(kernel, rev, 2, 0)
        for z1 in (-2, 0, 1):
            for z2 in (-1, 0, 3):
                p_f = pinned_prob_product(spec_f, GradientConfiguration(fwd, (z1, z2)))
                p_r = pinned_prob_product(spec_r, GradientConfiguration(rev, (-z2, -z1)))
                assert p_f == pytest.approx(p_r, abs=1e-16)

    def test_increment_outside_window_rejected(self, small_kernel, ball1):
        from ggmtree import OutOfWindow
        spec = PinnedMeasureSpec(small_kernel, ball1, 0, 0)
        zeta = GradientConfiguration.from_map(ball1, {(0, 1): 4})
        with pytest.raises(OutOfWindow):
            pinned_prob_product(spec, zeta)


class TestDualRepresentation:
    def test_pointwise_agreement_on_depth2(self, small_kernel, ball2):
        spec = PinnedMeasureSpec(small_kernel, ball2, 0, 0)
        rng = np.random.default_rng(11)
        for _ in range(300):
            arr = rng.integers(-3, 4, size=ball2.n_edges)
            zeta = GradientConfiguration(ball2, tuple(map(int, arr)))
            p1 = pinned_prob_product(spec, zeta)
            p2 = pinned_prob_bl(spec, zeta)
            assert abs(p1 - p2) < 1e-9

    def test_exact_maximum_gap_matches_enumeration(self, sos2, upper_law, ball1):
        kernel = build_layer_kernel(sos2, upper_law, IncrementWindow.manual(sos2, 2, upper_law))
        spec = PinnedMeasureSpec(kernel, ball1, 0, 0)
        brute = 0.0
        for arr in windowed_configs(ball1, kernel.window, 10**6):
            zeta = GradientConfiguration(ball1, tuple(map(int, arr)))
            brute = max(brute, abs(pinned_prob_product(spec, zeta) - pinned_prob_bl(spec, zeta)))
        assert bf.scan_dual_gap_pinned(spec) == pytest.approx(brute, rel=1e-9, abs=1e-18)
        assert brute <= max_dual_gap_pinned(spec)

    def test_uniform_law_reduces_to_bare_weights(self, ball1):
        op = SOS(1.3)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(2))
        for s in range(2):
            spec = PinnedMeasureSpec(kernel, ball1, 0, s)
            zeta = GradientConfiguration.from_map(ball1, {(0, 1): 1, (0, 2): -2})
            want = (eval_q(op, 1) * eval_q(op, -2) * eval_q(op, 0)) / total_mass(op) ** 3
            assert pinned_prob_bl(spec, zeta) == pytest.approx(want, abs=1e-13)

    def test_class_shift_relabelling_identity(self, sos2, upper_law, ball1):
        # pinning class 1 with the law equals pinning class 0 with its shift
        k1 = build_layer_kernel(sos2, upper_law)
        k2 = build_layer_kernel(sos2, upper_law.shifted(1))
        s1 = PinnedMeasureSpec(k1, ball1, 0, 1)
        s2 = PinnedMeasureSpec(k2, ball1, 0, 0)
        for zmap in ({(0, 1): 0}, {(0, 1): 1, (0, 2): -1}, {(0, 3): 2}):
            zeta = GradientConfiguration.from_map(ball1, zmap)
            assert pinned_prob_bl(s1, zeta) == pytest.approx(
                pinned_prob_bl(s2, zeta), abs=1e-13)

    def test_bl_form_requires_closed_volume(self, kernel):
        vol = path_volume(2)
        spec = PinnedMeasureSpec(kernel, vol, 0, 0)
        with pytest.raises(ValueError):
            pinned_prob_bl(spec, GradientConfiguration.zeros(vol))


class TestMixtures:
    def test_single_edge_matches_overlap_formula(self, kernel, chain):
        # one-bond probability is Q(z) sum_s l(s) l(s+z) over a constant
        vol = path_volume(1)
        spec = GGMSpec(kernel, chain, vol)
        marg = single_bond_marginal(kernel.op, kernel.law, kernel.window)
        for z, want in zip(kernel.offsets, marg):
            got = ggm_prob(spec, GradientConfiguration(vol, (int(z),)))
            assert got == pytest.approx(want, abs=1e-13)

    def test_uniform_law_factorizes(self, ball1):
        op = SOS(1.1)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(2))
        chain = fuzzy_transform(kernel)
        spec = GGMSpec(kernel, chain, ball1)
        zeta = GradientConfiguration.from_map(ball1, {(0, 1): 2, (0, 2): -1})
        want = (eval_q(op, 2) * eval_q(op, -1) * eval_q(op, 0)) / total_mass(op) ** 3
        assert ggm_prob(spec, zeta) == pytest.approx(want, abs=1e-14)

    def test_agreement_with_class_summed_form(self, small_kernel, small_chain, ball2):
        spec = GGMSpec(small_kernel, small_chain, ball2)
        rng = np.random.default_rng(5)
        for _ in range(200):
            arr = rng.integers(-3, 4, size=ball2.n_edges)
            zeta = GradientConfiguration(ball2, tuple(map(int, arr)))
            assert abs(ggm_prob(spec, zeta) - alt_ggm_prob(small_kernel, ball2, zeta)) < 1e-10

    def test_event_on_whole_ball_is_the_product_form(self, kernel, ball2):
        # anchor 1 walks edge (0, 1) against its stored direction
        increments = (2, 0, -1, 1, -3, 0, 1, -1, 2)
        zeta = GradientConfiguration(ball2, increments)
        by_edge = dict(zip(ball2.directed_edges, increments))
        for s in range(kernel.q):
            want = pinned_prob_product(PinnedMeasureSpec(kernel, ball2, 1, s), zeta)
            assert event_prob_pinned(kernel, ball2, range(ball2.n_vertices), 1, s,
                                     by_edge) == want

    def test_exact_maximum_mixture_gap(self, small_kernel, small_chain, ball2):
        spec = GGMSpec(small_kernel, small_chain, ball2)
        assert max_dual_gap_ggm(spec) < 1e-10

    def test_period_one_collapses_to_bare_weights(self, ball1):
        op = SOS(0.9)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(1))
        zeta = GradientConfiguration.from_map(ball1, {(0, 1): 1})
        want = eval_q(op, 1) * eval_q(op, 0) ** 2 / total_mass(op) ** 3
        assert alt_ggm_prob(kernel, ball1, zeta) == pytest.approx(want, abs=1e-14)

    def test_shift_orbit_gives_identical_mixture(self, sos2, upper_law, ball1):
        k1 = build_layer_kernel(sos2, upper_law)
        k2 = build_layer_kernel(sos2, upper_law.shifted(1))
        g1 = GGMSpec(k1, fuzzy_transform(k1), ball1)
        g2 = GGMSpec(k2, fuzzy_transform(k2), ball1)
        for zmap in ({(0, 1): 0}, {(0, 1): 1}, {(0, 1): 1, (0, 2): -1, (0, 3): 2}):
            zeta = GradientConfiguration.from_map(ball1, zmap)
            assert ggm_prob(g1, zeta) == pytest.approx(ggm_prob(g2, zeta), abs=1e-13)


class TestCoupling:
    def test_total_mass_one(self, kernel, chain, ball1):
        spec = GGMSpec(kernel, chain, ball1)
        got = coupling_expectation(spec, lambda cfg, labels: 1.0)
        want = sum(
            chain.alpha[s] * windowed_mass(PinnedMeasureSpec(kernel, ball1, 0, s))
            for s in range(kernel.q)
        )
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_root_label_marginal_is_alpha(self, kernel, chain, ball1):
        spec = GGMSpec(kernel, chain, ball1)
        for s0 in range(2):
            got = coupling_expectation(
                spec, lambda cfg, labels, s0=s0: 1.0 if labels[0] == s0 else 0.0)
            assert got == pytest.approx(chain.alpha[s0], abs=1e-9)

    def test_edge_label_pattern_matches_finite_state_marginal(
            self, sos2, upper_law, kernel, chain, ball1):
        # independent route: the two-site marginal of the wrapped finite-state
        # model with boundary law l, evaluated on a closed one-site volume
        spec = GGMSpec(kernel, chain, ball1)
        row = wrapped_row(sos2, 2)
        a = np.array(upper_law.a)
        norms = np.array([row[0] + row[1] * a[1], row[1] + row[0] * a[1]])
        pair = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                pair[i, j] = row[(i - j) % 2] * a[j] * norms[i] ** 2
        pair /= pair.sum()
        for i in range(2):
            for j in range(2):
                got = coupling_expectation(
                    spec,
                    lambda cfg, labels, i=i, j=j: 1.0 if labels[0] == i and labels[1] == j else 0.0)
                assert got == pytest.approx(pair[i, j], abs=1e-9)


class TestSampling:
    def test_fixed_seed_reproduces_configuration(self, kernel, chain, ball2):
        spec = GGMSpec(kernel, chain, ball2)
        one = sample_ggm(spec, seed=42)
        two = sample_ggm(spec, seed=42)
        other = sample_ggm(spec, seed=43)
        assert one.increments == two.increments
        assert one.increments != other.increments

    def test_batch_deterministic(self, kernel, chain):
        vol = path_volume(2)
        spec = GGMSpec(kernel, chain, vol)
        b1 = sample_ggm_batch(spec, 4096, seed=9)
        b2 = sample_ggm_batch(spec, 4096, seed=9)
        assert np.array_equal(b1, b2)

    def test_empirical_single_bond_within_four_sigma(self, kernel, chain):
        vol = path_volume(1)
        spec = GGMSpec(kernel, chain, vol)
        n = 200_000
        batch = sample_ggm_batch(spec, n, seed=1234)
        marg = single_bond_marginal(kernel.op, kernel.law, kernel.window)
        emp = np.array([(batch[:, 0] == z).mean() for z in kernel.offsets])
        se = np.sqrt(np.maximum(marg * (1 - marg), 1e-12) / n)
        assert np.max(np.abs(emp - marg) / se) < 4.0

    def test_uniform_law_increment_distribution(self):
        op = SOS(1.5)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(2))
        chain = fuzzy_transform(kernel)
        vol = path_volume(1)
        spec = GGMSpec(kernel, chain, vol)
        n = 200_000
        batch = sample_ggm_batch(spec, n, seed=77)
        mass = total_mass(op)
        for z in (-1, 0, 1, 2):
            want = eval_q(op, z) / mass
            se = math.sqrt(want * (1 - want) / n)
            assert abs((batch[:, 0] == z).mean() - want) < 4.0 * se


@pytest.fixture(scope="module", params=[2, 3], ids=["q2", "q3"])
def spec_parts(request):
    # the law farthest from the trivial one, as the CLI's default branch
    q = request.param
    op = SOS(2.0 if q == 2 else 3.0)
    law = max((r.solution for r in find_branches(op, q, 2)),
              key=lambda law: max(abs(v - 1.0) for v in law.a))
    kernel = build_layer_kernel(op, law)
    return kernel, fuzzy_transform(kernel)


class TestLevelBlockedSampler:
    # levels drawn whole at (1, 1), split into blocks of 218 edges at
    # (300, 10), both at (2000, 6), and one edge at a time at (10**5, 2)
    @pytest.mark.parametrize("n, depth", [(1, 1), (300, 10), (2000, 6), (10**5, 2)])
    def test_equals_per_edge_sampler(self, spec_parts, n, depth):
        spec = GGMSpec(*spec_parts, cayley_ball(2, depth))
        assert np.array_equal(sample_ggm_batch(spec, n, 5), bf.sample_ggm_batch(spec, n, 5))

    def test_homogeneity_unchanged(self, spec_parts, monkeypatch):
        # depth 2 with cutoff >= 1 has over 4096 windowed configurations, so
        # the sampled homogeneity scan samples
        spec = GGMSpec(*spec_parts, cayley_ball(2, 2))
        got = bf.scan_homogeneity(spec, [0, 1, 4])
        monkeypatch.setattr(measures, "sample_ggm_batch", bf.sample_ggm_batch)
        assert bf.scan_homogeneity(spec, [0, 1, 4]) == got


class TestConsistency:
    def test_one_site_growth(self, small_kernel, ball2):
        spec = PinnedMeasureSpec(small_kernel, ball2, 0, 0)
        assert check_consistency(spec, {0}) < 1e-9
        assert check_consistency(spec, {0, 1}) < 1e-9

    def test_mixture_consistency(self, small_kernel, small_chain, ball2):
        spec = PinnedMeasureSpec(small_kernel, ball2, 0, 0)
        assert check_consistency(spec, {0}, mixture=True, chain=small_chain) < 1e-9

    def test_uniform_law_is_product(self, ball2):
        law = PeriodicBoundaryLaw.trivial(2)
        kernel = build_layer_kernel(SOS(2.0), law, IncrementWindow.manual(SOS(2.0), 3, law))
        spec = PinnedMeasureSpec(kernel, ball2, 0, 0)
        assert check_consistency(spec, {0}) < 1e-12

    def test_perturbed_law_fails(self, sos2, upper_law, ball2):
        law = perturbed(upper_law)
        kernel = build_layer_kernel(sos2, law, IncrementWindow.manual(sos2, 3, law))
        spec = PinnedMeasureSpec(kernel, ball2, 0, 0)
        assert check_consistency(spec, {0}) > 1e-3


class TestHomogeneity:
    def test_adjacent_pins_on_single_edge(self, kernel, chain):
        vol = path_volume(1)
        spec = GGMSpec(kernel, chain, vol)
        assert check_homogeneity(spec, [0, 1]) < 1e-10

    def test_three_pins_on_depth2(self, ggm):
        assert check_homogeneity(ggm, [0, 1, 4]) < 1e-9

    def test_uniform_law_exact(self, ball1):
        kernel = build_layer_kernel(SOS(1.0), PeriodicBoundaryLaw.trivial(2))
        chain = fuzzy_transform(kernel)
        spec = GGMSpec(kernel, chain, ball1)
        assert check_homogeneity(spec, [0, 1, 2]) < 1e-14

    def test_holds_for_any_positive_law(self, sos2, upper_law, ball1):
        # pin switching telescopes through detailed balance, which is
        # structural; homogeneity cannot detect off-manifold laws
        law = perturbed(upper_law)
        kernel = build_layer_kernel(sos2, law)
        spec = GGMSpec(kernel, fuzzy_transform(kernel), ball1)
        assert check_homogeneity(spec, [0, 1, 2]) < 1e-12


class TestRestrictedConditional:
    def test_inner_star_inside_depth2(self, small_kernel, ball2):
        spec = PinnedMeasureSpec(small_kernel, ball2, 0, 0)
        assert check_restricted_dlr(spec, {1}) < 1e-9
        assert check_restricted_dlr(spec, {1}, reference={3: 1}) < 1e-9

    def test_mixture_conditional_agrees(self, small_kernel, small_chain, ball2):
        spec = PinnedMeasureSpec(small_kernel, ball2, 0, 0)
        got = check_restricted_dlr(spec, {1})
        assert got < 1e-9

    def test_period_one_uniform_law(self, ball2):
        law = PeriodicBoundaryLaw.trivial(1)
        kernel = build_layer_kernel(SOS(2.0), law, IncrementWindow.manual(SOS(2.0), 3, law))
        spec = PinnedMeasureSpec(kernel, ball2, 0, 0)
        assert check_restricted_dlr(spec, {1}) < 1e-12

    def test_pin_inside_inner_rejected(self, small_kernel, ball2):
        spec = PinnedMeasureSpec(small_kernel, ball2, 0, 0)
        with pytest.raises(PinInsideInner):
            check_restricted_dlr(spec, {0, 1})

    def test_perturbed_law_fails(self, sos2, upper_law, ball2):
        law = perturbed(upper_law)
        kernel = build_layer_kernel(sos2, law, IncrementWindow.manual(sos2, 3, law))
        spec = PinnedMeasureSpec(kernel, ball2, 0, 0)
        assert check_restricted_dlr(spec, {1}, reference={3: 1}) > 1e-3

    def test_outside_increment_beyond_window_rejected(self, small_kernel, ball2):
        from ggmtree import OutOfWindow
        spec = PinnedMeasureSpec(small_kernel, ball2, 0, 0)
        with pytest.raises(OutOfWindow):
            check_restricted_dlr(spec, {1}, outside={1: small_kernel.window.cutoff + 1})

    def test_nonzero_outside_configuration(self, small_kernel, ball2):
        spec = PinnedMeasureSpec(small_kernel, ball2, 0, 0)
        outside = {1: 1, 5: -1}
        assert check_restricted_dlr(spec, {1}, outside=outside) < 1e-9


class TestPinForgetting:
    def test_layer_distribution_follows_chain_powers(self, small_kernel, small_chain):
        # distribution of the layer reached at distance n equals the n-step
        # chain row, checked by enumeration over the windowed path
        q = small_kernel.q
        for n in (1, 2, 3):
            vol = path_volume(n)
            dist = np.zeros(q)
            for arr in windowed_configs(vol, small_kernel.window, 10**6):
                p = 1.0
                layer = 0
                for z in arr:
                    p *= small_kernel.prob(layer, int(z))
                    layer = (layer + int(z)) % q
                dist[layer] += p
            dist /= dist.sum()
            want = np.linalg.matrix_power(small_chain.matrix, n)[0]
            assert np.abs(dist - want).max() < 1e-3  # truncated rows vs exact wrap

    def test_pin_forgotten_geometrically(self, chain):
        from ggmtree.diagnostics import decay_envelope
        c, delta, env = decay_envelope(chain, 25)
        powers = np.eye(chain.q)
        for n in range(1, 26):
            powers = powers @ chain.matrix
            worst = max(tv_distance(powers[s], chain.alpha) for s in range(chain.q))
            assert worst <= env[n - 1] + 1e-12

    def test_distant_pin_converges_to_mixture_marginal(self, kernel, chain):
        # single-bond law seen k steps away from the pin approaches the
        # stationary-mixture law at chain speed
        offs = kernel.offsets
        stat = np.array([
            sum(chain.alpha[t] * kernel.prob(t, int(z)) for t in range(kernel.q))
            for z in offs
        ])
        prev = np.inf
        for k in (1, 2, 4, 8):
            step = np.linalg.matrix_power(chain.matrix, k)
            seen = np.array([
                sum(step[0, t] * kernel.prob(t, int(z)) for t in range(kernel.q))
                for z in offs
            ])
            gap = tv_distance(seen, stat)
            c, delta, _ = __import__("ggmtree.diagnostics", fromlist=["decay_envelope"]).decay_envelope(chain, 10)
            assert gap <= c * delta**k + 1e-12
            assert gap <= prev + 1e-15
            prev = gap


class TestGuards:
    def test_windowed_configs_budget(self, kernel, ball2):
        with pytest.raises(VolumeTooLarge):
            list(windowed_configs(ball2, kernel.window, config_budget=1000))

    def test_event_prob_requires_anchor_in_set(self, kernel, ball2):
        with pytest.raises(ValueError):
            event_prob_ggm(kernel, fuzzy_transform(kernel), ball2, {1, 4}, 0, {(1, 4): 0})

    def test_event_prob_rejects_a_disconnected_set(self, kernel, ball2):
        # {1, 4} and {2, 6} meet only through the root, which is not in the set
        with pytest.raises(ValueError, match="connected"):
            event_prob_pinned(kernel, ball2, {1, 4, 2, 6}, 1, 0, {(1, 4): 0, (2, 6): 3})

    def test_event_prob_rejects_vertices_outside_the_volume(self, kernel, ball2):
        # -1 would index the last vertex, and the root's parent is -1
        with pytest.raises(ValueError, match="lie in the volume"):
            event_prob_pinned(kernel, ball2, {0, -1}, 0, 0, {(3, 9): 0})
