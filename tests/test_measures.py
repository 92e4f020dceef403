import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from ggmtree import (
    SOS,
    FuzzyChain,
    IncrementWindow,
    PeriodicBoundaryLaw,
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
    sample_ggm_batch,
    single_bond_marginal,
    wrapped_row,
    wrapped_sum,
)
from ggmtree import measures
from ggmtree.chains import tv_distance
from ggmtree.measures import windowed_mass

import brute_force as bf
from brute_force import (
    GradientConfiguration,
    VolumeTooLarge,
    alt_ggm_prob,
    coupling_expectation,
    event_prob_ggm,
    ggm_prob,
    path_volume,
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
    def test_partition_agrees_with_unscaled_pass(self, far_model, depth):
        kernel, _ = far_model
        volume = cayley_ball(2, depth)
        got = np.exp(bf.log_bl_partition(kernel, volume))
        want = bf._bl_partition(kernel, volume, 0)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_windowed_mass_agrees_with_unscaled_pass(self, sos2, kernel, depth):
        volume = cayley_ball(2, depth)
        assert windowed_mass(kernel, volume, 1) == pytest.approx(
            bf.windowed_mass(sos2, kernel, volume, 1), rel=1e-13)

    @pytest.mark.parametrize("unit, log_total, want", [
        (0.5, 700.0, 0.5 * math.exp(700.0)),  # finite: the product, bit for bit
        (0.5, 710.0, math.exp(math.log(0.5) + 710.0)),  # exp(710) alone overflows
        (1.0, 800.0, math.inf),
        (0.0, 800.0, 0.0),
    ])
    def test_windowed_mass_past_the_largest_double(self, kernel, monkeypatch,
                                                   unit, log_total, want):
        def scaled(volume, matrix, leaf=None):
            return np.array([[unit, unit]]), log_total

        monkeypatch.setattr(measures, "_upward", scaled)
        assert windowed_mass(kernel, cayley_ball(2, 2), 1) == want

    def test_windowed_mass_of_a_deep_q6_ball_is_inf(self):
        # rows of the folded matrix summing to 1 + 2.2e-16 add count * log(top)
        # per level, so the log total passes 709.78 (5399 at depth 40)
        op = SOS(3.0)
        law = max((r.solution for r in find_branches(op, 6, 3)),
                  key=lambda law: max(abs(v - 1.0) for v in law.a))
        kernel = build_layer_kernel(op, law)
        assert measures._upward(cayley_ball(3, 40), measures._fold(
            kernel, kernel.probs))[1] > math.log(sys.float_info.max)
        assert windowed_mass(kernel, cayley_ball(3, 40), 0) == math.inf

    def test_windowed_mass_refuses_a_class_outside_the_period(self, kernel, ball1):
        # -1 would read the last layer's entry, as numpy indexes from the end
        for pin_class in (-1, kernel.q):
            with pytest.raises(ValueError, match="pin class"):
                windowed_mass(kernel, ball1, pin_class)

    def test_deep_partition_stays_finite(self, kernel):
        # the unscaled partition overflows from depth 8 on
        log_z = bf.log_bl_partition(kernel, cayley_ball(2, 14))
        assert np.all(np.isfinite(log_z))
        assert log_z.min() > 700.0

    @pytest.mark.parametrize("q", [2, 3, 4, 6])
    def test_level_batches_are_the_scalar_pass(self, q):
        # the unit vectors bit for bit: the scalar pass's vector of every
        # vertex is its level's row, each src multiplying its messages in
        # the same order.
        #
        # The log total: the scalar pass takes one log l_i per vertex scaled,
        # and the radial pass one per level and kind of scale, c_i copies of
        # the same value at once, as m = 2 radius + 1 terms fl(c_i l'_i):
        # the leaf term, then a message and a peak term per level.
        # - l'_i (numpy's log) and l_i (math.log) are each within an ulp of
        #   the exact log, so |l'_i - l_i| <= 4u |l_i|, u = eps / 2;
        # - c_i is below 2**53, so exact, and each product rounds once, by at
        #   most u of its value;
        # - the m terms summed in any order are within gamma_(m-1) of the sum
        #   of their magnitudes from their exact sum (Higham 2002, 4.2);
        # - the oracle's fsum of the l_i rounds once, by at most u.
        # With S = sum c_i |l_i| = sum |l_i| over every vertex, the two totals
        # differ by at most (4u + u + u + gamma_(m-1) (1 + 5u)) S, and
        # gamma_m >= gamma_(m-1) (1 + 5u) while m u < 1 / 5, so the bound
        # below, with one u spare for the rounding of S itself, covers it.
        rng = np.random.default_rng(q)
        matrix = rng.random((q, q)) + 0.1
        leaf = rng.random(q) + 0.5
        volumes = [cayley_ball(2, 2), cayley_ball(2, 3), cayley_ball(2, 10), cayley_ball(5, 4)]
        u = measures.EPS / 2
        for volume in volumes:
            unit, log_total = measures._upward(volume, matrix, leaf)
            want_unit, logs = bf.scalar_upward(
                volume, 0, matrix, dict.fromkeys(bf.tree(volume).boundary.tolist(), leaf))
            assert unit.shape == (len(volume.starts) - 1, q)
            assert np.array_equal(np.array(want_unit),
                                  np.repeat(unit, np.diff(volume.starts), axis=0))
            m, size = 2 * len(volume.starts) - 3, math.fsum(map(abs, logs))
            bound = (7 * u + m * u / (1 - m * u)) * size
            assert abs(log_total - math.fsum(logs)) <= bound

    def test_one_update_per_level(self, kernel):
        class Counted(np.ndarray):
            calls = 0

            def __matmul__(self, other):
                Counted.calls += 1
                return np.asarray(self) @ other

        matrix = kernel.circulant.view(Counted)
        for depth in range(2, 11):
            volume = cayley_ball(2, depth)
            Counted.calls = 0
            measures._upward(volume, matrix, kernel.law.as_array())
            assert Counted.calls == depth

    def test_wide_ball_stays_finite(self):
        # 400 messages of entries near 10 multiply to 1e400 unless each is
        # scaled before the product
        matrix = np.array([[6.0, 4.0], [3.0, 7.0]])
        unit, log_total = measures._upward(cayley_ball(400, 2), matrix)
        assert np.all(np.isfinite(unit)) and np.isfinite(log_total)
        assert unit.max() == 1.0
        assert log_total > 400 * math.log(10.0)


class TestPinnedProduct:
    def test_single_edge_uniform_law(self):
        op = SOS(1.0)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(2))
        vol = path_volume(1)
        zeta = GradientConfiguration(vol, (0,))
        assert pinned_prob_product(kernel, vol, 0, zeta) == pytest.approx(
            1.0 / wrapped_sum(op, 1, 0), abs=1e-13)

    def test_two_edge_path_unrolls_kernel_factors(self, kernel):
        vol = path_volume(2)
        zeta = GradientConfiguration(vol, (1, 1))
        want = bf.table_prob(kernel, 0, 1) * bf.table_prob(kernel, 1, 1)
        assert pinned_prob_product(kernel, vol, 0, zeta) == pytest.approx(want, abs=1e-15)

    def test_star_volume_sums_to_one(self, kernel, ball1):
        # enumeration over the certified window captures all but the tail
        tot = sum(
            pinned_prob_product(kernel, ball1, 0,
                                GradientConfiguration(ball1, tuple(map(int, arr))))
            for arr in windowed_configs(ball1, kernel.window, 10**6)
        )
        assert tot == pytest.approx(1.0, abs=1e-10)

    def test_windowed_mass_matches_enumeration(self, small_kernel, ball1):
        tot = sum(
            pinned_prob_product(small_kernel, ball1, 0,
                                GradientConfiguration(ball1, tuple(map(int, arr))))
            for arr in windowed_configs(ball1, small_kernel.window, 10**6)
        )
        assert windowed_mass(small_kernel, ball1, 0) == pytest.approx(tot, abs=1e-13)

    def test_stored_orientation_does_not_matter(self, kernel):
        # the same physical path stored with the opposite root: walking from
        # the same physical pin gives identical probabilities
        fwd = path_volume(2)
        rev = path_volume(2)  # vertex j here plays the role of vertex 2 - j
        for z1 in (-2, 0, 1):
            for z2 in (-1, 0, 3):
                p_f = pinned_prob_product(kernel, fwd, 0, GradientConfiguration(fwd, (z1, z2)))
                p_r = pinned_prob_product(kernel, rev, 0,
                                          GradientConfiguration(rev, (-z2, -z1)), pin=2)
                assert p_f == pytest.approx(p_r, abs=1e-16)

    def test_increment_outside_window_rejected(self, small_kernel, ball1):
        zeta = GradientConfiguration.from_map(ball1, {(0, 1): 4})
        with pytest.raises(ValueError, match="exceeds cutoff"):
            pinned_prob_product(small_kernel, ball1, 0, zeta)


class TestDualRepresentation:
    def test_pointwise_agreement_on_depth2(self, sos2, small_kernel, ball2):
        rng = np.random.default_rng(11)
        for _ in range(300):
            arr = rng.integers(-3, 4, size=ball2.n_edges)
            zeta = GradientConfiguration(ball2, tuple(map(int, arr)))
            p1 = pinned_prob_product(small_kernel, ball2, 0, zeta)
            p2 = pinned_prob_bl(sos2, small_kernel, ball2, 0, zeta)
            assert abs(p1 - p2) < 1e-9

    def test_exact_maximum_gap_matches_enumeration(self, sos2, upper_law, ball1):
        kernel = build_layer_kernel(sos2, upper_law, IncrementWindow.manual(sos2, 2, upper_law))
        brute = 0.0
        for arr in windowed_configs(ball1, kernel.window, 10**6):
            zeta = GradientConfiguration(ball1, tuple(map(int, arr)))
            brute = max(brute, abs(pinned_prob_product(kernel, ball1, 0, zeta)
                                   - pinned_prob_bl(sos2, kernel, ball1, 0, zeta)))
        assert bf.scan_dual_gap_pinned(sos2, kernel, ball1, 0)[0] == pytest.approx(
            brute, rel=1e-9, abs=1e-18)
        assert brute <= max_dual_gap_pinned(kernel, ball1)

    def test_uniform_law_reduces_to_bare_weights(self, ball1):
        op = SOS(1.3)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(2))
        for s in range(2):
            zeta = GradientConfiguration.from_map(ball1, {(0, 1): 1, (0, 2): -2})
            want = (eval_q(op, 1) * eval_q(op, -2) * eval_q(op, 0)) / wrapped_sum(op, 1, 0) ** 3
            assert pinned_prob_bl(op, kernel, ball1, s, zeta) == pytest.approx(want, abs=1e-13)

    def test_class_shift_relabelling_identity(self, sos2, upper_law, ball1):
        # pinning class 1 with the law equals pinning class 0 with its shift
        k1 = build_layer_kernel(sos2, upper_law)
        k2 = build_layer_kernel(sos2, bf.shifted(upper_law, 1))
        for zmap in ({(0, 1): 0}, {(0, 1): 1, (0, 2): -1}, {(0, 3): 2}):
            zeta = GradientConfiguration.from_map(ball1, zmap)
            assert pinned_prob_bl(sos2, k1, ball1, 1, zeta) == pytest.approx(
                pinned_prob_bl(sos2, k2, ball1, 0, zeta), abs=1e-13)

    def test_bl_form_requires_closed_volume(self, sos2, kernel):
        vol = path_volume(2)
        with pytest.raises(ValueError):
            pinned_prob_bl(sos2, kernel, vol, 0, GradientConfiguration.zeros(vol))


class TestMixtures:
    def test_single_edge_matches_overlap_formula(self, sos2, kernel, chain):
        # one-bond probability is Q(z) sum_s l(s) l(s+z) over a constant
        vol = path_volume(1)
        marg = single_bond_marginal(sos2, kernel.law, kernel.window)
        for z, want in zip(kernel.offsets, marg):
            got = ggm_prob(kernel, chain, vol, GradientConfiguration(vol, (int(z),)))
            assert got == pytest.approx(want, abs=1e-13)

    def test_uniform_law_factorizes(self, ball1):
        op = SOS(1.1)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(2))
        zeta = GradientConfiguration.from_map(ball1, {(0, 1): 2, (0, 2): -1})
        want = (eval_q(op, 2) * eval_q(op, -1) * eval_q(op, 0)) / wrapped_sum(op, 1, 0) ** 3
        assert ggm_prob(kernel, fuzzy_transform(kernel), ball1, zeta) == pytest.approx(
            want, abs=1e-14)

    def test_agreement_with_class_summed_form(self, sos2, small_kernel, small_chain, ball2):
        rng = np.random.default_rng(5)
        for _ in range(200):
            arr = rng.integers(-3, 4, size=ball2.n_edges)
            zeta = GradientConfiguration(ball2, tuple(map(int, arr)))
            assert abs(ggm_prob(small_kernel, small_chain, ball2, zeta)
                       - alt_ggm_prob(sos2, small_kernel, ball2, zeta)) < 1e-10

    def test_exact_maximum_mixture_gap(self, small_kernel, small_chain, ball2):
        assert max_dual_gap_ggm(small_kernel, small_chain, ball2) < 1e-10

    def test_period_one_collapses_to_bare_weights(self, ball1):
        op = SOS(0.9)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(1))
        zeta = GradientConfiguration.from_map(ball1, {(0, 1): 1})
        want = eval_q(op, 1) * eval_q(op, 0) ** 2 / wrapped_sum(op, 1, 0) ** 3
        assert alt_ggm_prob(op, kernel, ball1, zeta) == pytest.approx(want, abs=1e-14)

    def test_shift_orbit_gives_identical_mixture(self, sos2, upper_law, ball1):
        k1 = build_layer_kernel(sos2, upper_law)
        k2 = build_layer_kernel(sos2, bf.shifted(upper_law, 1))
        c1, c2 = fuzzy_transform(k1), fuzzy_transform(k2)
        for zmap in ({(0, 1): 0}, {(0, 1): 1}, {(0, 1): 1, (0, 2): -1, (0, 3): 2}):
            zeta = GradientConfiguration.from_map(ball1, zmap)
            assert ggm_prob(k1, c1, ball1, zeta) == pytest.approx(
                ggm_prob(k2, c2, ball1, zeta), abs=1e-13)


class TestCoupling:
    def test_total_mass_one(self, kernel, chain, ball1):
        got = coupling_expectation(kernel, chain, ball1, lambda cfg, labels: 1.0)
        want = sum(chain.alpha[s] * windowed_mass(kernel, ball1, s) for s in range(kernel.q))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_root_label_marginal_is_alpha(self, kernel, chain, ball1):
        for s0 in range(2):
            got = coupling_expectation(
                kernel, chain, ball1, lambda cfg, labels, s0=s0: 1.0 if labels[0] == s0 else 0.0)
            assert got == pytest.approx(chain.alpha[s0], abs=1e-9)

    def test_edge_label_pattern_matches_finite_state_marginal(
            self, sos2, upper_law, kernel, chain, ball1):
        # independent route: the two-site marginal of the wrapped finite-state
        # model with boundary law l, evaluated on a closed one-site volume
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
                    kernel, chain, ball1,
                    lambda cfg, labels, i=i, j=j: 1.0 if labels[0] == i and labels[1] == j else 0.0)
                assert got == pytest.approx(pair[i, j], abs=1e-9)


class TestSampling:
    def test_fixed_seed_reproduces_configuration(self, kernel, chain, ball2):
        one = sample_ggm(kernel, chain, ball2, seed=42)
        two = sample_ggm(kernel, chain, ball2, seed=42)
        other = sample_ggm(kernel, chain, ball2, seed=43)
        assert one.increments == two.increments
        assert one.increments != other.increments

    def test_batch_deterministic(self, kernel, chain, ball1):
        b1 = bf.library_batch(kernel, chain, ball1, 4096, seed=9)
        b2 = bf.library_batch(kernel, chain, ball1, 4096, seed=9)
        assert np.array_equal(b1, b2)

    def test_empirical_single_bond_within_four_sigma(self, sos2, kernel, chain, ball1):
        # every edge of the homogeneous measure has the single-bond marginal
        n = 200_000
        batch = bf.library_batch(kernel, chain, ball1, n, seed=1234)
        marg = single_bond_marginal(sos2, kernel.law, kernel.window)
        emp = np.array([(batch[:, 0] == z).mean() for z in kernel.offsets])
        se = np.sqrt(np.maximum(marg * (1 - marg), 1e-12) / n)
        assert np.max(np.abs(emp - marg) / se) < 4.0

    def test_uniform_law_increment_distribution(self, ball1):
        op = SOS(1.5)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(2))
        n = 200_000
        batch = bf.library_batch(kernel, fuzzy_transform(kernel), ball1, n, seed=77)
        mass = wrapped_sum(op, 1, 0)
        for z in (-1, 0, 1, 2):
            want = eval_q(op, z) / mass
            se = math.sqrt(want * (1 - want) / n)
            assert abs((batch[:, 0] == z).mean() - want) < 4.0 * se


def far_kernel(beta, q):
    # the law farthest from the trivial one, as the CLI's default branch
    op = SOS(beta)
    law = max((r.solution for r in find_branches(op, q, 2)),
              key=lambda law: max(abs(v - 1.0) for v in law.a))
    return build_layer_kernel(op, law)


@pytest.fixture(scope="module", params=[2, 3], ids=["q2", "q3"])
def far_model(request):
    q = request.param
    kernel = far_kernel(2.0 if q == 2 else 3.0, q)
    return kernel, fuzzy_transform(kernel)


# SplitMix64 from seed 0, as published with the generator
SPLITMIX_SEED_0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestCounterStream:
    def test_splitmix64_known_answers(self):
        assert [bf.splitmix64(0, p) for p in range(3)] == SPLITMIX_SEED_0
        states = np.array([k * measures.GOLDEN % 2**64 for k in (1, 2, 3)], dtype=np.uint64)
        assert measures._uniforms(states, np.empty(3)).tolist() == [
            (word >> 11) * 2.0**-53 for word in SPLITMIX_SEED_0]

    @pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1, 2**63 + 12345, 2**70 + 3])
    def test_uniforms_are_the_python_int_stream(self, seed):
        rng = np.random.default_rng(31)
        n = 5000
        for v in [0, 1, 2**20 + 7, *rng.integers(0, 10**6, size=5).tolist()]:
            got = bf.vertex_uniforms(seed, n, v)
            for i in [0, 1, n - 1, *rng.integers(0, n, size=20).tolist()]:
                assert got[i] == bf.uniform(seed, i, v)

    def test_seed_is_masked_to_64_bits(self, far_model):
        ball = cayley_ball(2, 2)
        assert bf.uniform(-1, 3, 5) == bf.uniform(2**64 - 1, 3, 5)
        assert np.array_equal(bf.library_batch(*far_model, ball, 50, -1),
                              bf.library_batch(*far_model, ball, 50, 2**64 - 1))

    def test_fewer_samples_are_a_prefix(self, far_model):
        # a block of 2**16 uniforms holds 6553 samples of the 10 vertices of
        # a depth-2 ball
        ball = cayley_ball(2, 2)
        whole = bf.library_batch(*far_model, ball, 14000, 4)
        for n in (1, 7, 6553, 6554, 13999):
            assert np.array_equal(bf.library_batch(*far_model, ball, n, 4), whole[:n])

    def test_smaller_ball_is_the_restriction(self, far_model):
        deep = bf.library_batch(*far_model, cayley_ball(2, 6), 300, 8)
        for radius in (1, 2, 5):
            ball = cayley_ball(2, radius)
            assert np.array_equal(bf.library_batch(*far_model, ball, 300, 8),
                                  deep[:, :ball.n_edges])

    def test_block_size_does_not_change_the_batch(self, far_model, monkeypatch):
        # a depth-3 ball has 22 vertices: below 22 each level is drawn in
        # sub-ranges (of 7, ending between two siblings, or of 1 vertex), from
        # 22 on a block holds DRAW_BLOCK // 22 samples
        ball = cayley_ball(2, 3)
        whole = bf.library_batch(*far_model, ball, 700, 12)
        for draw_block in (1, 7, 21, 22, 23, 44, 100):
            monkeypatch.setattr(measures, "DRAW_BLOCK", draw_block)
            blocks = list(sample_ggm_batch(*far_model, ball, 700, 12))
            per_block = max(1, draw_block // 22)
            assert [len(block) for block in blocks] == [per_block] * (700 // per_block) + (
                [700 % per_block] if 700 % per_block else [])
            assert np.array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("d, depth", [(2, 6), (3, 5), (4, 4)])
    def test_sub_ranges_of_a_level_are_the_per_edge_sampler(self, far_model, monkeypatch,
                                                            d, depth):
        # ranges of 3 and 4 vertices split the root's d + 1 children at d = 3
        # and 4, and ranges of 7 and 13 split later levels between siblings
        ball = cayley_ball(d, depth)
        want = bf.sample_ggm_batch(*far_model, ball, 3, 21)
        for draw_block in (3, 4, 7, 13):
            monkeypatch.setattr(measures, "DRAW_BLOCK", draw_block)
            assert np.array_equal(bf.library_batch(*far_model, ball, 3, 21), want)


class TestLevelBlockedSampler:
    # one partial block at (1, 1); blocks of 21 samples of 3070 vertices at
    # (300, 10), of 344 samples at (2000, 6) and of 6553 samples at
    # (10**5, 2), each run ending in a partial block
    @pytest.mark.parametrize("n, depth", [(1, 1), (300, 10), (2000, 6), (10**5, 2)])
    def test_equals_per_edge_sampler(self, far_model, n, depth):
        ball = cayley_ball(2, depth)
        assert np.array_equal(bf.library_batch(*far_model, ball, n, 5),
                              bf.sample_ggm_batch(*far_model, ball, n, 5))

    def test_memory_does_not_grow_with_n(self, far_model):
        # the blocks are drawn and dropped one at a time, so ten times the
        # samples need no more memory
        ball = cayley_ball(2, 2)
        peaks = []
        for n in (10**5, 10**6):
            tracemalloc.start()
            try:
                for _ in sample_ggm_batch(*far_model, ball, n, 5):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_homogeneity_unchanged(self, far_model, monkeypatch):
        # depth 2 with cutoff >= 1 has over 4096 windowed configurations, so
        # the sampled homogeneity scan samples
        ball = cayley_ball(2, 2)
        got = bf.scan_homogeneity(*far_model, ball, [0, 1, 4])
        monkeypatch.setattr(measures, "sample_ggm_batch", bf.sample_ggm_batch)
        assert bf.scan_homogeneity(*far_model, ball, [0, 1, 4]) == got


class TestGuideSampler:
    # q = 1, 2, 3, and SOS beta=1 (cutoff 28), whose tail entries crowd the
    # first and last buckets
    @pytest.mark.parametrize("beta, q", [(2.0, 1), (2.0, 2), (3.0, 3), (1.0, 2)])
    def test_lookup_is_searchsorted(self, beta, q):
        kernel = far_kernel(beta, q)
        guide = measures._Guide(kernel)
        cdf = np.cumsum(kernel.rows, axis=1)  # as the per-edge sampler builds it
        entries = cdf.ravel()
        u = np.concatenate([entries, np.nextafter(entries, -np.inf),
                            np.nextafter(entries, np.inf),
                            np.arange(measures.GUIDE) / measures.GUIDE, [0.0, 1.0 - 2.0**-53]])
        u = u[(u >= 0.0) & (u < 1.0)]
        top = len(kernel.offsets) - 1
        for t in range(q):
            k = np.minimum(np.searchsorted(cdf[t], u, side="right"), top)
            z, end = guide(np.full(u.shape, t, dtype=np.uint8), u, np.empty(u.shape, np.intp))
            assert np.array_equal(z, kernel.offsets[k])
            assert np.array_equal(end, kernel.ends[t, k])
        # both the table and the fallback answered
        assert (guide.steps == guide.lost).any() and (guide.steps != guide.lost).any()

    # SOS beta=0.2 has cutoff 138, past one byte
    @pytest.mark.parametrize("beta, q, dtype", [(0.2, 2, np.int16), (3.0, 6, np.int8),
                                                (1.0, 2, np.int8)])
    def test_compact_batch_equals_per_edge_sampler(self, beta, q, dtype):
        kernel = far_kernel(beta, q)
        chain, ball = fuzzy_transform(kernel), cayley_ball(2, 3)
        n = 700
        blocks = list(sample_ggm_batch(kernel, chain, ball, n, 11))
        for block in blocks:
            assert block.dtype == dtype
            # sample-major storage, one itemsize per (sample, edge)
            assert block.flags.c_contiguous
            assert block.nbytes == len(block) * ball.n_edges * block.itemsize
        assert np.array_equal(np.concatenate(blocks),
                              bf.sample_ggm_batch(kernel, chain, ball, n, 11))


def random_balls(count, seed):
    """Random balls of degree 2 to 4 and radius 1 to 3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, cayley_ball(int(rng.integers(2, 5)), int(rng.integers(1, 4)))


class TestStepTableWalks:
    """The checks read levels of the ball, checked against the neighbour
    walks of ``brute_force`` on random balls."""

    def test_part_is_the_restricted_bfs_and_its_rim(self, sos2, upper_law):
        # the rim of the inner ball of radius r is level r + 1, and the
        # consistency certificate sums a width per rim vertex
        law = perturbed(upper_law)
        kernel = build_layer_kernel(sos2, law, IncrementWindow.manual(sos2, 3, law))
        for _, volume in random_balls(40, seed=5):
            starts = volume.starts
            for r in range(len(starts) - 2):
                part = bf.descendants(volume, 0, r)
                rim = list(range(starts[r + 1], starts[r + 2]))
                # the steps out of the part, in the order of the BFS from the centre
                assert rim == [dst for _, src, dst, _ in bf.scalar_orientation(volume, 0)
                               if src in part and dst not in part]
                assert rim == sorted(bf.adjacent_outside(volume, part))
                assert (check_consistency(kernel, volume, r)
                        == bf.consistency_bound(kernel, volume, part))

    def test_homogeneity_counts_the_edges_spanning_the_pins(self, sos2, upper_law):
        # r = 1e-3, as in TestHomogeneity, so the bound is 1.001**k - 1 for
        # the k edges spanning the pins, which the oracle counts for pins
        # anywhere and the library reads off the depths of pins on one ray
        kernel = build_layer_kernel(sos2, upper_law)
        chain = fuzzy_transform(kernel)
        alpha = chain.alpha.copy()
        alpha[0] *= 1.0 + 1e-3
        chain = FuzzyChain(2, chain.matrix, alpha / alpha.sum())
        for rng, volume in random_balls(120, seed=6):
            # the oracle on any vertices of the ball, the boundary too, is the
            # union of the paths from the first pin to the others
            pins = rng.integers(volume.n_vertices, size=rng.integers(1, 5)).tolist()
            assert bf.spanning_edges(volume, pins) == len(
                {frozenset(step) for x in pins[1:] for step in bf.path(volume, pins[0], x)})
            # pins on the ray from the centre to a random boundary vertex,
            # whose j-th vertex lies at depth j
            ray = [0] + [y for _, y in bf.path(volume, 0, int(rng.integers(
                volume.starts[-2], volume.n_vertices)))]
            depths = rng.choice(len(ray), size=rng.integers(1, 5)).tolist()
            k = bf.spanning_edges(volume, [ray[j] for j in depths])
            got = check_homogeneity(kernel, chain, volume, depths)
            assert got == (pytest.approx(1.001**k - 1, rel=1e-9) if k else 0.0)

    def test_restricted_exponents_are_the_neighbour_counts(self, sos2, upper_law):
        # k_v counts the neighbours of v but the one towards the pin, for
        # each vertex of the sub-balls below vertex 1
        law = perturbed(upper_law)
        kernel = build_layer_kernel(sos2, law, IncrementWindow.manual(sos2, 3, law))
        for _, volume in random_balls(60, seed=7):
            for r in range(len(volume.starts) - 3):
                inner = bf.descendants(volume, 1, r)
                assert len(inner) == sum(volume.d**j for j in range(r + 1))
                assert (check_restricted_dlr(kernel, volume, r)
                        == bf.restricted_bound(kernel, volume, inner))


class TestConsistency:
    def test_one_site_growth(self, small_kernel, ball2):
        assert check_consistency(small_kernel, ball2, 0) < 1e-9
        assert check_consistency(small_kernel, ball2, 1) < 1e-9

    def test_mixture_consistency(self, sos2, small_kernel, small_chain, ball2):
        # one bound for every pin class, so it bounds their mixture too
        bound = check_consistency(small_kernel, ball2, 0)
        assert bound < 1e-9
        for s in range(small_kernel.q):
            assert bf.scan_consistency(sos2, small_kernel, ball2, s, {0})[1] <= bound
        assert bf.scan_consistency(sos2, small_kernel, ball2, 0, {0}, mixture=True,
                                   chain=small_chain)[1] <= bound

    def test_uniform_law_is_product(self, ball2):
        law = PeriodicBoundaryLaw.trivial(2)
        kernel = build_layer_kernel(SOS(2.0), law, IncrementWindow.manual(SOS(2.0), 3, law))
        assert check_consistency(kernel, ball2, 0) < 1e-12

    def test_perturbed_law_fails(self, sos2, upper_law, ball2):
        law = perturbed(upper_law)
        kernel = build_layer_kernel(sos2, law, IncrementWindow.manual(sos2, 3, law))
        assert check_consistency(kernel, ball2, 0) > 1e-3

    def test_repeated_width_sums_as_its_list(self):
        # the widths summed one at a time from an iterator, as from the list
        # of count copies they once were, in the same order, so bit for bit
        rng = np.random.default_rng(23)
        for width, count in zip(rng.random(500) * 10.0 ** rng.integers(-18, 3, 500),
                                rng.integers(0, 3000, 500).tolist()):
            width = float(width)
            assert sum(itertools.repeat(width, count)) == sum([width] * count)

    def test_deep_rim_sums_in_no_memory(self, kernel):
        # the rim of the inner ball of radius 23 has 3 * 2**23 vertices, whose
        # list of widths took 192 MiB
        volume = cayley_ball(2, 24)
        tracemalloc.start()
        try:
            got = check_consistency(kernel, volume, 23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert math.isfinite(got)


class TestHomogeneity:
    def test_adjacent_pins_on_single_edge(self, kernel, chain, ball1):
        assert check_homogeneity(kernel, chain, ball1, [0, 1]) < 1e-10

    def test_three_pins_on_depth2(self, kernel, chain, ball2):
        assert check_homogeneity(kernel, chain, ball2, [0, 1, 2]) < 1e-9

    def test_uniform_law_exact(self, ball2):
        kernel = build_layer_kernel(SOS(1.0), PeriodicBoundaryLaw.trivial(2))
        assert check_homogeneity(kernel, fuzzy_transform(kernel), ball2, [0, 1, 2]) < 1e-14

    def test_holds_for_any_positive_law(self, sos2, upper_law, ball2):
        # pin switching telescopes through detailed balance, which is
        # structural; homogeneity cannot detect off-manifold laws
        law = perturbed(upper_law)
        kernel = build_layer_kernel(sos2, law)
        assert check_homogeneity(kernel, fuzzy_transform(kernel), ball2, [0, 1, 2]) < 1e-12

    def test_pin_depths_lie_in_the_ball(self, chain, kernel, ball2):
        # a vertex number past the radius is no depth, so it is refused
        for pins in ([0, 3], [-1, 1], [4]):
            with pytest.raises(ValueError, match="pin depths"):
                check_homogeneity(kernel, chain, ball2, pins)

    @pytest.mark.parametrize("depth", [2, 10, 14])
    def test_unbalanced_alpha_fails_at_every_depth(self, sos2, upper_law, depth):
        # alpha(0) * (1 + 1e-3) breaks detailed balance on the odd
        # increments by a ratio of 1e-3, however far the boundary is
        kernel = build_layer_kernel(sos2, upper_law)
        chain = fuzzy_transform(kernel)
        alpha = chain.alpha.copy()
        alpha[0] *= 1.0 + 1e-3
        parts = kernel, FuzzyChain(2, chain.matrix, alpha / alpha.sum()), cayley_ball(2, depth)
        assert check_homogeneity(*parts, [0, 1, 2]) >= 1e-3
        # r = 1e-3, and the pins span k = 2 edges
        assert check_homogeneity(*parts, [0, 1, 2]) == pytest.approx(1.001**2 - 1, rel=1e-9)
        assert check_homogeneity(*parts, [2]) == 0.0

    def test_layer_without_weight_fails(self, kernel, chain, ball1):
        # alpha(0) = 0 leaves one flow of each odd pair at 0 and the other
        # positive: pinning at w or at a neighbour then weighs the
        # configurations differently, so the pair must count, not be skipped
        alpha = np.zeros(kernel.q)
        alpha[1] = 1.0
        chain = FuzzyChain(kernel.q, chain.matrix, alpha)
        assert check_homogeneity(kernel, chain, ball1, [0, 1]) == math.inf


class TestRestrictedConditional:
    def test_inner_star_inside_depth2(self, small_kernel, ball2):
        assert check_restricted_dlr(small_kernel, ball2, 0) < 1e-9

    def test_mixture_conditional_agrees(self, sos2, small_kernel, small_chain, ball2):
        got = check_restricted_dlr(small_kernel, ball2, 0)
        assert got < 1e-9
        assert bf.scan_restricted_dlr(sos2, small_kernel, ball2, 0, {1}, mixture=True,
                                      chain=small_chain) <= got

    def test_period_one_uniform_law(self, ball2):
        law = PeriodicBoundaryLaw.trivial(1)
        kernel = build_layer_kernel(SOS(2.0), law, IncrementWindow.manual(SOS(2.0), 3, law))
        assert check_restricted_dlr(kernel, ball2, 0) < 1e-12

    def test_pin_inside_inner_rejected(self, sos2, small_kernel, ball2):
        # a sub-ball below vertex 1 never holds the pin; the oracles, which
        # take any vertex set, refuse one that does
        for oracle in (bf.check_restricted_dlr, bf.scan_restricted_dlr, bf.ratio_range):
            with pytest.raises(bf.PinInsideInner):
                oracle(sos2, small_kernel, ball2, 0, {0, 1})

    def test_perturbed_law_fails(self, sos2, upper_law, ball2):
        law = perturbed(upper_law)
        kernel = build_layer_kernel(sos2, law, IncrementWindow.manual(sos2, 3, law))
        assert check_restricted_dlr(kernel, ball2, 0) > 1e-3


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
                    p *= bf.table_prob(small_kernel, layer, int(z))
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
            sum(chain.alpha[t] * bf.table_prob(kernel, t, int(z)) for t in range(kernel.q))
            for z in offs
        ])
        prev = np.inf
        for k in (1, 2, 4, 8):
            step = np.linalg.matrix_power(chain.matrix, k)
            seen = np.array([
                sum(step[0, t] * bf.table_prob(kernel, t, int(z)) for t in range(kernel.q))
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
