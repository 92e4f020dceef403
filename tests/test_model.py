import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggmtree import (
    SOS,
    DiscreteGaussian,
    IncrementWindow,
    LiftedPotts,
    NonSummable,
    PeriodicBoundaryLaw,
    Table,
    TailTooFat,
    cayley_ball,
    eval_q,
    model_from_json,
    model_to_json,
    path_volume,
    total_mass,
    wrapped_row,
    wrapped_sum,
)
from ggmtree.model import (
    ORIENTATIONS,
    FiniteTreeVolume,
    _certified_wrapped_sum,
    interaction_matrix,
    tail_mass,
    vertex_heights,
)
from ggmtree.transfer import potts_row

import brute_force as bf


def brute_wrapped(op, q, m, span=400):
    return sum(eval_q(op, q * j + m) for j in range(-span, span + 1))


OPERATORS = [
    SOS(0.7),
    SOS(2.0),
    DiscreteGaussian(0.4),
    Table.from_map({0: 1.0, 1: 0.5, 2: 0.1}, tail=0.3),
    Table.from_map({0: 1.0, 1: 0.25}),
    LiftedPotts(4, 1.3),
    LiftedPotts(5, 0.8),
    LiftedPotts(3, 1.0, 6.0),
]


def op_id(op):
    """``repr``, except that a lifted Potts operator is named as in the ids
    these cases have always had: untailed ones without the tail field, the
    tailed one as the strictly positive lift."""
    if not isinstance(op, LiftedPotts):
        return repr(op)
    if op.tail_beta is None:
        return f"LiftedPotts(q={op.q}, beta_tilde={op.beta_tilde})"
    return f"LiftedPottsPositive(q={op.q}, beta_tilde={op.beta_tilde}, tail_beta={op.tail_beta})"


class TestEvalQ:
    def test_sos_origin(self):
        assert eval_q(SOS(1.0), 0) == 1.0

    def test_sos_negative_argument(self):
        assert eval_q(SOS(1.0), -3) == pytest.approx(0.049787068367863944, abs=1e-15)

    def test_lifted_potts_vanishes_beyond_half_period(self):
        assert eval_q(LiftedPotts(5, 1.0), 3) == 0.0
        assert eval_q(LiftedPotts(5, 1.0), 2) > 0.0

    @pytest.mark.parametrize("op", OPERATORS, ids=op_id)
    def test_symmetry_exact(self, op):
        for m in range(51):
            assert eval_q(op, m) == eval_q(op, -m)

    def test_table_tail_continuation(self):
        op = Table.from_map({0: 1.0, 1: 0.5}, tail=0.25)
        assert eval_q(op, 3) == pytest.approx(0.5 * 0.25**2, abs=1e-18)

    def test_table_without_tail_is_zero_beyond_edge(self):
        assert eval_q(Table.from_map({0: 1.0, 1: 0.25}), 2) == 0.0

    def test_table_rejects_asymmetric_map(self):
        with pytest.raises(ValueError):
            Table.from_map({-1: 0.3, 0: 1.0, 1: 0.4})


class TestWrappedSum:
    def test_sos_even_class_matches_brute_force(self):
        got = wrapped_sum(SOS(1.0), 2, 0)
        assert got == pytest.approx(brute_wrapped(SOS(1.0), 2, 0), abs=1e-13)
        assert got == pytest.approx(1.3130352854993312, abs=1e-12)

    def test_sos_odd_class_matches_brute_force(self):
        got = wrapped_sum(SOS(1.0), 2, 1)
        assert got == pytest.approx(brute_wrapped(SOS(1.0), 2, 1), abs=1e-13)
        assert got == pytest.approx(0.8509181282393216, abs=1e-12)

    def test_lifted_potts_off_diagonal_value(self):
        for bt in (0.5, 1.0, 2.0):
            assert wrapped_sum(LiftedPotts(4, bt), 4, 1) == pytest.approx(
                1.0 / (math.exp(bt) + 3.0), abs=1e-15)

    @pytest.mark.parametrize("op", OPERATORS, ids=op_id)
    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_row_mass_identity(self, op, q):
        # wrapping splits the total mass across residues
        row = wrapped_row(op, q)
        assert row.sum() == pytest.approx(total_mass(op), abs=2e-14)

    @pytest.mark.parametrize("op", OPERATORS, ids=op_id)
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_numeric_and_auto_paths_agree(self, op, q):
        for m in range(q):
            auto = wrapped_sum(op, q, m)
            numeric = _certified_wrapped_sum(op, q, m)
            assert auto == pytest.approx(numeric, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(0.3, 3.0), q=st.integers(1, 6), m=st.integers(-12, 12))
    def test_sos_closed_form_matches_brute_force(self, beta, q, m):
        got = wrapped_sum(SOS(beta), q, m)
        assert got == pytest.approx(brute_wrapped(SOS(beta), q, m, span=600), rel=1e-10)

    def test_lifted_potts_wrapped_ratio_is_exact(self):
        for q in (2, 3, 4, 6, 7):
            bt = 1.7
            row = wrapped_row(LiftedPotts(q, bt), q)
            for m in range(1, q):
                assert row[0] / row[m] == pytest.approx(math.exp(bt), abs=1e-13)

    def test_reflection_symmetry_of_wrapped_values(self):
        row = wrapped_row(SOS(1.1), 5)
        for m in range(1, 5):
            assert row[m] == pytest.approx(row[5 - m], abs=1e-15)


class TestLiftedPottsPositive:
    def test_strictly_positive_and_exact_wrap(self):
        op = LiftedPotts(3, 1.0, 10.0)
        assert all(eval_q(op, k) > 0 for k in range(30))
        row = wrapped_row(op, 3)
        want = np.array([math.exp(1.0), 1.0, 1.0]) / (math.exp(1.0) + 2.0)
        assert np.abs(row - want).max() < 1e-12

    def test_fat_tail_rejected_with_minimal_rate(self):
        with pytest.raises(TailTooFat) as err:
            LiftedPotts(3, 1.0, 0.01)
        assert err.value.min_tail_beta is not None
        bad = err.value.min_tail_beta - 2e-6
        good = err.value.min_tail_beta + 2e-6
        with pytest.raises(TailTooFat):
            LiftedPotts(3, 1.0, bad)
        LiftedPotts(3, 1.0, good)

    def test_stiff_tail_recovers_truncated_lift(self):
        for q in (3, 4):
            sharp = LiftedPotts(q, 1.2, 60.0)
            trunc = LiftedPotts(q, 1.2)
            for m in range(q // 2 + 1):
                assert eval_q(sharp, m) == pytest.approx(eval_q(trunc, m), abs=1e-15)


BETA_TILDES = (0.0, 0.3, 1.0, 2.0, 5.0, 30.0, 200.0)


@pytest.mark.parametrize("q", range(2, 13))
class TestUntailedLiftIsTheTruncatedKind:
    """A lift without a tail is the zero-tail case of the one lifted kind;
    it equals the truncated kind's formulas (``brute_force``) bit for bit."""

    def test_weights_and_tails(self, q):
        for bt in BETA_TILDES:
            op = LiftedPotts(q, bt)
            for m in range(-2 * q, 2 * q + 1):
                assert eval_q(op, m) == bf.truncated_potts_eval_q(q, bt, m)
            for start in range(1, q + 2):
                assert tail_mass(op, start) == bf.truncated_potts_tail_mass(q, bt, start)

    def test_wrapped_sums(self, q):
        for bt in BETA_TILDES:
            op = LiftedPotts(q, bt)
            for period in (1, 2, 3, q, q + 1, 2 * q):
                for m in range(-period, period):
                    assert wrapped_sum(op, period, m) == bf.truncated_potts_wrapped_sum(
                        q, bt, period, m)
                assert np.array_equal(interaction_matrix(op, period),
                                      bf.truncated_potts_interaction_matrix(q, bt, period))
            assert total_mass(op) == bf.truncated_potts_wrapped_sum(q, bt, 1, 0)

    def test_potts_row(self, q):
        for bt in BETA_TILDES:
            assert np.array_equal(potts_row(q, bt), bf.potts_row(q, bt))

    def test_windows(self, q):
        law = PeriodicBoundaryLaw.trivial(q)
        for bt in BETA_TILDES:
            op = LiftedPotts(q, bt)
            assert IncrementWindow.for_model(op, law).cutoff == bf.truncated_potts_window_cutoff(q)
            for cutoff in range(q // 2, q + 1):
                assert IncrementWindow.manual(op, cutoff, law).tail_mass_bound == 1e-300

    def test_json_has_no_tail_field(self, q):
        assert model_to_json(LiftedPotts(q, 1.0), q, 2)["potential"] == {
            "kind": "lifted_potts", "q": q, "beta_tilde": 1.0}


class TestBoundaryLawType:
    def test_requires_leading_one(self):
        with pytest.raises(ValueError):
            PeriodicBoundaryLaw(2, (2.0, 1.0))

    def test_requires_positive_entries(self):
        with pytest.raises(ValueError):
            PeriodicBoundaryLaw.from_values([1.0, -0.5])

    def test_shift_renormalizes(self):
        law = PeriodicBoundaryLaw.from_values([1.0, 4.0, 0.25])
        shifted = law.shifted(1)
        assert shifted.a == (1.0, 0.0625, 0.25)
        assert law.is_shift_of(shifted)

    def test_shift_detection_rejects_unrelated_laws(self):
        l1 = PeriodicBoundaryLaw.from_values([1.0, 4.0])
        l2 = PeriodicBoundaryLaw.from_values([1.0, 3.0])
        assert not l1.is_shift_of(l2)


class TestIncrementWindow:
    def test_certified_tail_bound_holds(self, sos2, upper_law):
        window = IncrementWindow.for_model(sos2, upper_law)
        a = upper_law.as_array()
        norms = interaction_matrix(sos2, 2) @ a
        weighted = tail_mass(sos2, window.cutoff + 1) * a.max() / norms.min()
        assert weighted <= window.tail_mass_bound

    def test_smaller_bound_needs_larger_cutoff(self, sos2, upper_law):
        loose = IncrementWindow.for_model(sos2, upper_law, bound=1e-6)
        tight = IncrementWindow.for_model(sos2, upper_law, bound=1e-14)
        assert tight.cutoff > loose.cutoff

    def test_lifted_potts_window_is_support(self):
        window = IncrementWindow.for_model(LiftedPotts(7, 1.0), PeriodicBoundaryLaw.trivial(7))
        assert window.cutoff == 3

    def test_unreachable_bound_raises(self):
        with pytest.raises(NonSummable):
            IncrementWindow.for_model(SOS(0.001), PeriodicBoundaryLaw.trivial(1),
                                      bound=1e-12, max_cutoff=10)


# index order is not BFS order: vertex 3, a child of the root, comes after
# vertex 2, a grandchild
SHUFFLED = FiniteTreeVolume(2, [None, 0, 1, 0, 2, 3, 1, 3, 0], ())


class TestVolumes:
    @pytest.mark.parametrize("volume", [cayley_ball(2, 3), cayley_ball(3, 2), path_volume(6),
                                        SHUFFLED], ids=["ball-2-3", "ball-3-2", "path-6",
                                                        "shuffled"])
    def test_orientation_is_the_scalar_bfs(self, volume):
        rng = np.random.default_rng(0)
        zeta = rng.integers(-5, 6, size=volume.n_edges)
        for w in range(volume.n_vertices):
            levels = volume.orientation_from(w)
            steps = [(x, y) for src, dst in levels for x, y in zip(src.tolist(), dst.tolist())]
            want = bf.scalar_orientation(volume, w)
            assert steps == [(src, dst) for _, src, dst, _ in want]
            assert [max(x, y) - 1 for x, y in steps] == [e for e, *_ in want]
            assert [1 if y > x else -1 for x, y in steps] == [sign for *_, sign in want]
            for k, (src, _) in enumerate(levels):
                assert {volume.distance(w, x) for x in src.tolist()} == {k}
            assert np.array_equal(vertex_heights(volume, w, 3, zeta),
                                  bf.scalar_heights(volume, w, 3, zeta))

    def test_orientation_cache_is_bounded(self):
        volume = cayley_ball(2, 4)
        for w in range(volume.n_vertices):
            volume.orientation_from(w)
        assert len(volume._orientations) == ORIENTATIONS

    def test_binary_depth2_ball_shape(self, ball2):
        assert ball2.n_vertices == 10
        assert ball2.n_edges == 9
        assert ball2.full
        assert sorted(ball2.boundary) == [4, 5, 6, 7, 8, 9]

    def test_distances(self, ball2):
        assert ball2.distance(4, 5) == 2
        assert ball2.distance(4, 6) == 4
        assert ball2.distance(0, 9) == 2
        assert ball2.distance(3, 3) == 0

    def test_distance_is_the_path_length(self):
        ball = cayley_ball(2, 3)
        for x in range(ball.n_vertices):
            for y in range(ball.n_vertices):
                path = ball.path(x, y)
                assert ball.distance(x, y) == len(path)
                nodes = [x] + [b for _, b in path]
                assert nodes[-1] == y and len(set(nodes)) == len(nodes)
                assert all(a == b0 for (_, a), (b0, _) in zip(path, path[1:]))
                assert all(b in ball.neighbors(a) for a, b in path)

    def test_path_volume_is_not_full(self):
        assert not path_volume(3).full

    def test_orientation_reaches_every_edge(self, ball2):
        for pin in range(ball2.n_vertices):
            src, dst = (np.concatenate(side) for side in zip(*ball2.orientation_from(pin)))
            assert len(src) == ball2.n_edges
            assert sorted(np.maximum(src, dst) - 1) == list(range(ball2.n_edges))

    def test_depth_12_ball_children_match_parents(self):
        vol = cayley_ball(2, 12)
        assert vol.n_vertices == 12286
        assert len(vol.boundary) == 6144
        assert vol.full
        assert sum(map(len, vol.children)) == vol.n_vertices - 1
        for v, kids in enumerate(vol.children):
            assert list(kids) == sorted(kids)
            assert all(vol.parents[c] == v for c in kids)

    def test_boundary_must_be_leaves(self):
        with pytest.raises(ValueError):
            cayley_ball(2, 2).__class__(2, [None, 0, 0, 0], boundary=[0])

    def test_configuration_orientation_lookup(self, ball2):
        zeta = bf.GradientConfiguration.from_map(ball2, {(0, 1): 3, (4, 1): 2})
        assert zeta.increment(0, 1) == 3
        assert zeta.increment(1, 0) == -3
        assert zeta.increment(1, 4) == -2


class TestJson:
    @pytest.mark.parametrize("op", OPERATORS, ids=op_id)
    def test_round_trip(self, op):
        doc = model_to_json(op, 3, 2)
        text = json.dumps(doc)
        op2, q, d = model_from_json(json.loads(text))
        assert (q, d) == (3, 2)
        for m in range(-10, 11):
            assert eval_q(op2, m) == eval_q(op, m)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"potential": {"kind": "sos", "beta": 1.0}, "q": 2})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"potential": {"kind": "xy"}, "q": 2, "d": 2})
