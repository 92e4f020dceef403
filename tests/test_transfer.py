import math

import numpy as np
import pytest

import brute_force as bf
from ggmtree import (
    SOS,
    TailTooFat,
    clock_reduction,
    eval_q,
    lift_potts,
    potts_boundary_laws,
    residual,
    total_mass,
    wrapped_sum,
)
from ggmtree.transfer import potts_row


class TestLiftPotts:
    def test_five_state_row(self):
        op = lift_potts(5, 1.0)
        denom = math.e + 4.0
        assert wrapped_sum(op, 5, 0) == pytest.approx(math.e / denom, abs=1e-15)
        for m in range(1, 5):
            assert wrapped_sum(op, 5, m) == pytest.approx(1.0 / denom, abs=1e-15)

    def test_two_state_reduces_to_ising_row(self):
        bt = 1.4
        op = lift_potts(2, bt)
        spec = clock_reduction(op, 2)
        want = potts_row(2, bt)
        assert np.allclose(bf.full_row(spec), want, atol=1e-15)
        # three-point support with the shared residue halved
        assert eval_q(op, 1) == pytest.approx(0.5 / (math.exp(bt) + 1.0), abs=1e-16)
        assert eval_q(op, 2) == 0.0

    def test_infinite_temperature_is_uniform(self):
        for q in (3, 4, 5):
            op = lift_potts(q, 0.0)
            for m in range(q):
                assert wrapped_sum(op, q, m) == pytest.approx(1.0 / q, abs=1e-15)

    @pytest.mark.parametrize("q", range(2, 9))
    @pytest.mark.parametrize("bt", [0.5, 1.0, 2.0])
    def test_round_trip_is_exact(self, q, bt):
        spec = clock_reduction(lift_potts(q, bt), q)
        assert np.abs(bf.full_row(spec) - potts_row(q, bt)).max() == 0.0


class TestLiftPottsPositive:
    def test_exact_wrap_and_positivity(self):
        op = lift_potts(3, 1.0, 10.0)
        assert all(eval_q(op, m) > 0.0 for m in range(40))
        got = np.array([wrapped_sum(op, 3, m) for m in range(3)])
        assert np.abs(got - potts_row(3, 1.0)).max() < 1e-12

    def test_even_period_shared_residue(self):
        op = lift_potts(4, 1.0, 8.0)
        got = np.array([wrapped_sum(op, 4, m) for m in range(4)])
        assert np.abs(got - potts_row(4, 1.0)).max() < 1e-12
        assert eval_q(op, 2) == eval_q(op, -2)

    def test_sharp_tail_limit_recovers_truncation(self):
        soft = lift_potts(5, 1.5, 70.0)
        hard = lift_potts(5, 1.5)
        for m in range(3):
            assert eval_q(soft, m) == pytest.approx(eval_q(hard, m), abs=1e-15)

    def test_fat_tail_reports_minimal_rate(self):
        with pytest.raises(TailTooFat) as err:
            lift_potts(3, 1.0, 0.01)
        assert err.value.min_tail_beta == pytest.approx(0.89, abs=0.01)


class TestClockReduction:
    def test_sos_period_two_hyperbolic_values(self):
        for beta in (0.8, 1.5, 2.0):
            spec = clock_reduction(SOS(beta), 2)
            assert spec.values[0] == pytest.approx(1.0 / math.tanh(beta), abs=1e-13)
            assert spec.values[1] == pytest.approx(1.0 / math.sinh(beta), abs=1e-13)

    def test_sos_period_three_values(self):
        for beta in (0.9, 1.7):
            spec = clock_reduction(SOS(beta), 3)
            assert spec.values[0] == pytest.approx(
                1.0 + 2.0 / (math.exp(3.0 * beta) - 1.0), abs=1e-13)
            assert spec.values[1] == pytest.approx(
                math.cosh(beta / 2.0) / math.sinh(3.0 * beta / 2.0), abs=1e-13)

    def test_period_one_is_total_mass(self):
        op = SOS(1.2)
        spec = clock_reduction(op, 1)
        assert spec.values == (pytest.approx(total_mass(op), abs=1e-13),)

    def test_free_dimension(self):
        for q in (2, 3, 4, 7, 8):
            assert bf.free_dimension(clock_reduction(SOS(1.0), q)) == q // 2

    def test_reflection_symmetric_extension(self):
        spec = clock_reduction(SOS(1.3), 5)
        row = bf.full_row(spec)
        for m in range(1, 5):
            assert row[m] == pytest.approx(row[5 - m], abs=1e-15)

    def test_residual_equals_clock_model_residual(self, sos2, upper_law):
        # the periodic equation for the operator is the clock equation for its
        # wrapped row; recompute the residual from the row alone and compare
        row = bf.full_row(clock_reduction(sos2, 2))
        for law in (upper_law, bf.shifted(upper_law, 1),
                    __import__("ggmtree").PeriodicBoundaryLaw.from_values([1.0, 2.5])):
            a = np.array(law.a)
            F = np.array([sum(row[(k - m) % 2] * a[m] for m in range(2)) for k in range(2)]) ** 2
            clock_res = np.abs(a - F / F[0]).max()
            assert residual(law, sos2, 2) == pytest.approx(clock_res, abs=1e-14)


class TestBoundaryLawTransport:
    @pytest.mark.parametrize("q", [4, 5, 6, 7, 8])
    def test_potts_laws_solve_lifted_equation(self, q):
        bt = 3.0
        op = lift_potts(q, bt)
        laws = potts_boundary_laws(q, bt, 2)
        assert len(laws) >= 2, "expected a symmetry-broken branch at this coupling"
        for law in laws:
            assert residual(law, op, 2) < 1e-10

    def test_transport_also_holds_for_positive_lift(self):
        bt = 3.0
        op = lift_potts(5, bt, 12.0)
        for law in potts_boundary_laws(5, bt, 2):
            assert residual(law, op, 2) < 1e-10
