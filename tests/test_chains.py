import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ggmtree
from ggmtree import (
    SOS,
    FuzzyChain,
    IncrementWindow,
    LiftedPotts,
    NonStochastic,
    NonSummable,
    PeriodicBoundaryLaw,
    Table,
    build_layer_kernel,
    check_reversibility,
    eval_q,
    fuzzy_transform,
    mixing_profile,
    wrapped_row,
    wrapped_sum,
)
from ggmtree import measures
from ggmtree.chains import balance_defect, second_eigenvalue_modulus, tv_distance
from brute_force import potts_boundary_laws, stationary_by_power_iteration, table_prob


def brute_normalizer(op, law, layer, span=80):
    return sum(eval_q(op, z) * law.a[(layer + z) % law.q] for z in range(-span, span + 1))


class TestLayerKernel:
    def test_uniform_law_rows_are_layer_independent(self):
        op = SOS(1.5)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(3))
        mass = wrapped_sum(op, 1, 0)
        for s in range(3):
            for z in (-2, 0, 1):
                assert table_prob(kernel, s, z) == pytest.approx(eval_q(op, z) / mass, abs=1e-13)

    def test_row_value_against_brute_force_normalizer(self, sos2, upper_law, kernel):
        want = math.exp(-2.0) * upper_law.a[1] / brute_normalizer(sos2, upper_law, 0)
        assert table_prob(kernel, 0, 1) == pytest.approx(want, abs=1e-12)
        want = math.exp(-6.0) * upper_law.a[0] / brute_normalizer(sos2, upper_law, 1)
        assert table_prob(kernel, 1, 3) == pytest.approx(want, abs=1e-12)

    def test_rows_renormalized_and_deficit_recorded(self, kernel):
        sums = kernel.rows.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12
        assert kernel.deficits.max() <= kernel.window.tail_mass_bound + 1e-13

    def test_out_of_window_increment_rejected(self, kernel):
        with pytest.raises(ValueError, match="exceeds cutoff"):
            table_prob(kernel, 0, kernel.window.cutoff + 1)

    def test_window_too_small_for_declared_bound(self, sos2, upper_law):
        window = IncrementWindow(cutoff=2, tail_mass_bound=1e-12)
        with pytest.raises(NonSummable):
            build_layer_kernel(sos2, upper_law, window)

    def test_lifted_potts_rows_supported_on_central_increments(self):
        op = LiftedPotts(3, 2.0)
        law = potts_boundary_laws(3, 2.0, 2)[-1]
        kernel = build_layer_kernel(op, law)
        assert list(kernel.offsets) == [-1, 0, 1]
        assert np.all(kernel.rows > 0.0)


class TestFuzzyTransform:
    def test_uniform_law_symmetric_two_state_chain(self):
        op = SOS(1.2)
        kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(2))
        chain = fuzzy_transform(kernel)
        row = wrapped_row(op, 2)
        p = row[0] / (row[0] + row[1])
        assert chain.matrix[0, 0] == pytest.approx(p, abs=1e-13)
        assert chain.matrix[0, 1] == pytest.approx(1.0 - p, abs=1e-13)
        assert chain.matrix[1, 1] == pytest.approx(p, abs=1e-13)
        assert np.allclose(chain.alpha, [0.5, 0.5], atol=1e-13)

    def test_matrix_wraps_kernel_rows(self, kernel, chain):
        # summing the stored row over each residue class reproduces the chain
        # up to the truncated tail
        q = kernel.q
        offs = kernel.offsets
        for i in range(q):
            for j in range(q):
                got = sum(p for z, p in zip(offs, kernel.rows[i]) if (i + z) % q == j)
                assert got == pytest.approx(chain.matrix[i, j], abs=1e-11)

    def test_alpha_matches_power_iteration_oracle(self, chain):
        pi = stationary_by_power_iteration(chain.matrix)
        assert np.abs(pi - chain.alpha).max() < 1e-10

    def test_alpha_invariant(self, chain):
        assert np.abs(chain.alpha @ chain.matrix - chain.alpha).max() < 1e-10

    def test_strictly_positive_entries(self, chain):
        assert chain.matrix.min() > 0.0

    def test_lifted_potts_chain_is_positive(self):
        # the truncated support wraps onto every residue class
        for q in (4, 5, 6):
            op = LiftedPotts(q, 1.0)
            kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(q))
            assert fuzzy_transform(kernel).matrix.min() > 0.0

    @settings(max_examples=25, deadline=None)
    @given(beta=st.floats(0.5, 2.5),
           values=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4))
    def test_rows_stochastic_for_arbitrary_laws(self, beta, values):
        law = PeriodicBoundaryLaw.from_values([1.0] + values)
        kernel = build_layer_kernel(SOS(beta), law)
        chain = fuzzy_transform(kernel)
        assert np.abs(chain.matrix.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(chain.alpha @ chain.matrix - chain.alpha).max() < 1e-12

    def test_effective_ratio_matches_wrapped_row(self):
        # with the flat law the chain reproduces the finite-state transfer
        # structure: diagonal over off-diagonal equals the wrapped-row ratio
        for q in (2, 3):
            op = SOS(1.4)
            kernel = build_layer_kernel(op, PeriodicBoundaryLaw.trivial(q))
            chain = fuzzy_transform(kernel)
            row = wrapped_row(op, q)
            assert chain.matrix[0, 0] / chain.matrix[0, 1] == pytest.approx(
                row[0] / row[1], abs=1e-12)

    def test_reducible_chain_is_rejected(self):
        # Q(0) alone never changes the layer, so the chain is the identity
        kernel = build_layer_kernel(Table((1.0,)), PeriodicBoundaryLaw.trivial(2))
        with pytest.raises(NonStochastic, match="reducible"):
            fuzzy_transform(kernel)


class TestReversibility:
    def test_uniform_law(self):
        kernel = build_layer_kernel(SOS(1.0), PeriodicBoundaryLaw.trivial(2))
        chain = fuzzy_transform(kernel)
        assert check_reversibility(kernel, chain) < 1e-12

    def test_solved_law(self, kernel, chain):
        assert check_reversibility(kernel, chain) < 1e-9

    def test_detailed_balance_is_structural(self, sos2, upper_law):
        # alpha(i) P(i, z) equals Q(z) l(i) l(i+z) over a shared constant, so
        # the identity survives any positive perturbation of the law
        law = PeriodicBoundaryLaw.from_values([1.0, upper_law.a[1] * 1.1])
        kernel = build_layer_kernel(sos2, law)
        chain = fuzzy_transform(kernel)
        assert check_reversibility(kernel, chain) < 1e-12

    def test_defect_table_is_the_scalar_formula(self):
        # bit for bit, so the reported reversibility violation is unchanged
        op = SOS(3.0)
        law = PeriodicBoundaryLaw.from_values([1.0, 0.5, 40.0])
        kernel = build_layer_kernel(op, law)
        alpha = np.array([0.2, 0.3, 0.5])  # not stationary: a visible defect
        defect = balance_defect(kernel, FuzzyChain(3, np.eye(3), alpha))
        for i in range(3):
            for k, z in enumerate(kernel.offsets):
                j = (i + int(z)) % 3
                want = (alpha[i] * table_prob(kernel, i, int(z))
                        - alpha[j] * table_prob(kernel, j, -int(z)))
                assert defect[i, k] == want


# every public function of a layer kernel and a fuzzy chain, called with the
# ball of depth 2 where it takes a volume
PAIRED = {
    "balance_defect": lambda kernel, chain, ball: balance_defect(kernel, chain),
    "check_reversibility": lambda kernel, chain, ball: check_reversibility(kernel, chain),
    "max_dual_gap_ggm": lambda kernel, chain, ball: measures.max_dual_gap_ggm(
        kernel, chain, ball),
    "check_homogeneity": lambda kernel, chain, ball: measures.check_homogeneity(
        kernel, chain, ball, [0]),
    "sample_ggm_batch": lambda kernel, chain, ball: measures.sample_ggm_batch(
        kernel, chain, ball, 0, 1),
}


def test_paired_functions_are_every_kernel_and_chain_function():
    functions = {name: getattr(ggmtree, name) for name in ggmtree.__all__}
    paired = {name for name, f in functions.items() if inspect.isfunction(f)
              and {"kernel", "chain"} <= set(inspect.signature(f).parameters)}
    assert paired == set(PAIRED)


@pytest.mark.parametrize("name", list(PAIRED))
def test_chain_of_another_period_is_refused(kernel, ball2, name):
    # a period-1 chain against the q = 2 kernel: its one alpha and 1 x 1
    # matrix would broadcast against the kernel's two layers (the
    # reversibility defect read 0.267), so the call refuses it at once,
    # before a sample is drawn or a pin depth read
    other = FuzzyChain(1, np.ones((1, 1)), np.ones(1))
    with pytest.raises(ValueError, match="periods disagree"):
        PAIRED[name](kernel, other, ball2)
    PAIRED[name](kernel, fuzzy_transform(kernel), ball2)


class TestMixing:
    def test_profile_monotone_and_dominated(self, chain):
        profile = mixing_profile(chain, 30)
        assert np.all(np.diff(profile) <= 1e-15)
        delta = second_eigenvalue_modulus(chain.matrix)
        c = max(profile[0] / delta, profile[1] / delta**2)
        assert np.all(profile <= c * delta ** np.arange(1, 31) + 1e-12)

    def test_profile_submultiplicative(self, chain):
        profile = mixing_profile(chain, 12)
        for m in range(1, 6):
            for n in range(1, 6):
                assert profile[m + n - 1] <= 2.0 * profile[m - 1] * profile[n - 1] + 1e-12

    def test_tv_distance_basic(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
