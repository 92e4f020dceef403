"""The paper's Potts relations: the lifted Potts operator wraps exactly onto
the Potts row, any operator's wrap is a clock-model row, and the Potts laws
transport to boundary laws of the lifted operator."""
import math

import numpy as np
import pytest

import brute_force as bf
from ggmtree import (
    SOS,
    LiftedPotts,
    PeriodicBoundaryLaw,
    TailTooFat,
    eval_q,
    residual,
    wrapped_row,
    wrapped_sum,
)
from ggmtree.model import _certified_wrapped_sum


def assert_certified_wrap(op):
    """The wrap re-checked residue by residue by certified summation,
    independently of the closed form that ``wrapped_sum`` uses."""
    got = np.array([_certified_wrapped_sum(op, op.q, m) for m in range(op.q)])
    assert np.allclose(got, bf.potts_row(op.q, op.beta_tilde), rtol=0.0, atol=1e-14)


class TestLiftPotts:
    def test_five_state_row(self):
        op = LiftedPotts(5, 1.0)
        denom = math.e + 4.0
        assert wrapped_sum(op, 5, 0) == pytest.approx(math.e / denom, abs=1e-15)
        for m in range(1, 5):
            assert wrapped_sum(op, 5, m) == pytest.approx(1.0 / denom, abs=1e-15)

    def test_two_state_reduces_to_ising_row(self):
        bt = 1.4
        op = LiftedPotts(2, bt)
        assert np.allclose(wrapped_row(op, 2), bf.potts_row(2, bt), atol=1e-15)
        # three-point support with the shared residue halved
        assert eval_q(op, 1) == pytest.approx(0.5 / (math.exp(bt) + 1.0), abs=1e-16)
        assert eval_q(op, 2) == 0.0

    def test_infinite_temperature_is_uniform(self):
        for q in (3, 4, 5):
            op = LiftedPotts(q, 0.0)
            for m in range(q):
                assert wrapped_sum(op, q, m) == pytest.approx(1.0 / q, abs=1e-15)

    @pytest.mark.parametrize("q", range(2, 9))
    @pytest.mark.parametrize("bt", [0.5, 1.0, 2.0])
    def test_round_trip_is_exact(self, q, bt):
        op = LiftedPotts(q, bt)
        assert np.abs(wrapped_row(op, q) - bf.potts_row(q, bt)).max() == 0.0
        assert_certified_wrap(op)


class TestLiftPottsPositive:
    def test_exact_wrap_and_positivity(self):
        op = LiftedPotts(3, 1.0, 10.0)
        assert all(eval_q(op, m) > 0.0 for m in range(40))
        got = np.array([wrapped_sum(op, 3, m) for m in range(3)])
        assert np.abs(got - bf.potts_row(3, 1.0)).max() < 1e-12
        assert_certified_wrap(op)

    def test_even_period_shared_residue(self):
        op = LiftedPotts(4, 1.0, 8.0)
        got = np.array([wrapped_sum(op, 4, m) for m in range(4)])
        assert np.abs(got - bf.potts_row(4, 1.0)).max() < 1e-12
        assert eval_q(op, 2) == eval_q(op, -2)
        assert_certified_wrap(op)

    def test_sharp_tail_limit_recovers_truncation(self):
        soft = LiftedPotts(5, 1.5, 70.0)
        hard = LiftedPotts(5, 1.5)
        for m in range(3):
            assert eval_q(soft, m) == pytest.approx(eval_q(hard, m), abs=1e-15)

    def test_fat_tail_reports_minimal_rate(self):
        with pytest.raises(TailTooFat) as err:
            LiftedPotts(3, 1.0, 0.01)
        assert err.value.min_tail_beta == pytest.approx(0.89, abs=0.01)


class TestClockReduction:
    def test_sos_period_two_hyperbolic_values(self):
        for beta in (0.8, 1.5, 2.0):
            row = wrapped_row(SOS(beta), 2)
            assert row[0] == pytest.approx(1.0 / math.tanh(beta), abs=1e-13)
            assert row[1] == pytest.approx(1.0 / math.sinh(beta), abs=1e-13)

    def test_sos_period_three_values(self):
        for beta in (0.9, 1.7):
            row = wrapped_row(SOS(beta), 3)
            assert row[0] == pytest.approx(
                1.0 + 2.0 / (math.exp(3.0 * beta) - 1.0), abs=1e-13)
            assert row[1] == pytest.approx(
                math.cosh(beta / 2.0) / math.sinh(3.0 * beta / 2.0), abs=1e-13)

    def test_period_one_is_total_mass(self):
        # the sum of exp(-beta |m|) over all integers is coth(beta / 2)
        row = wrapped_row(SOS(1.2), 1)
        assert row.tolist() == [pytest.approx(1.0 / math.tanh(0.6), abs=1e-13)]

    def test_free_dimension(self):
        for q in (2, 3, 4, 7, 8):
            assert bf.free_dimension(wrapped_row(SOS(1.0), q)) == q // 2

    def test_reflection_symmetric_extension(self):
        row = wrapped_row(SOS(1.3), 5)
        for m in range(1, 5):
            assert row[m] == pytest.approx(row[5 - m], abs=1e-15)

    def test_residual_equals_clock_model_residual(self, sos2, upper_law):
        # the periodic equation for the operator is the clock equation for its
        # wrapped row; recompute the residual from the row alone and compare
        row = wrapped_row(sos2, 2)
        for law in (upper_law, bf.shifted(upper_law, 1),
                    PeriodicBoundaryLaw.from_values([1.0, 2.5])):
            a = np.array(law.a)
            F = np.array([sum(row[(k - m) % 2] * a[m] for m in range(2)) for k in range(2)]) ** 2
            clock_res = np.abs(np.log(a) - np.log(F / F[0])).max()  # in log a
            assert residual(law, sos2, 2) == pytest.approx(clock_res, abs=1e-14)


class TestBoundaryLawTransport:
    @pytest.mark.parametrize("q", [4, 5, 6, 7, 8])
    def test_potts_laws_solve_lifted_equation(self, q):
        bt = 3.0
        op = LiftedPotts(q, bt)
        laws = bf.potts_boundary_laws(q, bt, 2)
        assert len(laws) >= 2, "expected a symmetry-broken branch at this coupling"
        for law in laws:
            assert residual(law, op, 2) < 1e-10

    def test_transport_also_holds_for_positive_lift(self):
        bt = 3.0
        op = LiftedPotts(5, bt, 12.0)
        for law in bf.potts_boundary_laws(5, bt, 2):
            assert residual(law, op, 2) < 1e-10
