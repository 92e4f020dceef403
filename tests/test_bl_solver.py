import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggmtree import (
    SOS,
    PeriodicBoundaryLaw,
    UnsupportedDegree,
    UnsupportedPeriod,
    closed_form_q2_sos,
    critical_beta,
    find_branches,
    residual,
    wrapped_row,
)
from ggmtree.bl_solver import (
    BRANCH_LOWER,
    BRANCH_TRIVIAL,
    BRANCH_UPPER,
    DAMPING,
    MAX_ITER,
    _damped,
    _fixed_point_map,
    _label,
)
from ggmtree.model import interaction_matrix

import brute_force as bf
from brute_force import effective_beta, is_normalizable, ising_type_solve, shifted


def damped_solve(op, q, d, init, damping=DAMPING, max_iter=MAX_ITER, tol=1e-12):
    """``_damped`` on the one-row batch ``init``, by default with the settings
    of ``find_branches``: the row it leaves, its update count, and whether
    it diverged or ran out of budget."""
    rows = np.array([init], dtype=float)
    iters, diverged, running = _damped(interaction_matrix(op, q), d, rows, damping,
                                       max_iter, tol)
    return rows[0], int(iters[0]), bool(diverged[0]), bool(running[0])


class TestResidual:
    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_trivial_law_always_solves(self, q):
        assert residual(PeriodicBoundaryLaw.trivial(q), SOS(1.3), 2) < 1e-14
        assert residual(PeriodicBoundaryLaw.trivial(q), SOS(1.3), 3) < 1e-14

    def test_closed_form_substitutes_to_zero(self):
        for law in closed_form_q2_sos(2.0):
            assert residual(law, SOS(2.0), 2) < 1e-10

    def test_subcritical_guess_fails_loudly(self):
        # cosh(1) < 3, so (1, 4) is far from any solution
        law = PeriodicBoundaryLaw.from_values([1.0, 4.0])
        assert residual(law, SOS(1.0), 2) > 0.1


class TestClosedForm:
    def test_beta_two_roots(self):
        laws = closed_form_q2_sos(2.0)
        assert len(laws) == 3
        u2 = math.sqrt(laws[1].a[1])
        u3 = math.sqrt(laws[2].a[1])
        assert u2 == pytest.approx(2.33369, abs=1e-5)
        assert u3 == pytest.approx(0.42851, abs=1e-5)
        assert u2 * u3 == pytest.approx(1.0, abs=1e-12)

    def test_threshold_merges_double_root(self):
        assert len(closed_form_q2_sos(math.acosh(3.0))) == 1

    def test_subcritical_only_trivial(self):
        assert len(closed_form_q2_sos(1.0)) == 1

    def test_other_degrees_unsupported(self):
        with pytest.raises(UnsupportedDegree):
            closed_form_q2_sos(2.0, d=3)


class TestFixedPoint:
    def test_converges_to_upper_branch(self):
        row, _, diverged, running = damped_solve(SOS(2.0), 2, 2, [1.0, 9.0], tol=1e-12)
        want = closed_form_q2_sos(2.0)[1].a[1]
        assert not diverged and not running
        assert _label(row) == BRANCH_UPPER
        assert residual(PeriodicBoundaryLaw.from_values(row), SOS(2.0), 2) < 1e-10
        assert row[1] == pytest.approx(want, abs=1e-8)
        assert row[1] == pytest.approx(5.44611, abs=1e-5)

    def test_subcritical_flows_to_trivial(self):
        for init in ([1.0, 9.0], [1.0, 0.02], [1.0, 1.7]):
            row, _, _, _ = damped_solve(SOS(1.0), 2, 2, init, tol=1e-11)
            assert _label(row) == BRANCH_TRIVIAL

    def test_trivial_init_returns_immediately(self):
        row, iters, _, _ = damped_solve(SOS(2.0), 2, 2, [1.0, 1.0])
        assert iters == 0
        assert residual(PeriodicBoundaryLaw.from_values(row), SOS(2.0), 2) == 0.0

    def test_residual_recomputes_to_report_value(self):
        for rep in find_branches(SOS(2.0), 2, 2, tol=1e-11):
            assert residual(rep.solution, SOS(2.0), 2) == pytest.approx(rep.residual,
                                                                        abs=1e-13)

    def test_runaway_iterate_raises_diverged(self):
        # high degree amplifies the class imbalance past the guard rails
        row, _, diverged, running = damped_solve(SOS(5.0), 2, 7, [1.0, 1e-6], max_iter=2000)
        assert diverged and not running
        assert not 1e-12 < row[1] < 1e12

    def test_budget_exhaustion_carries_best_iterate(self):
        row, _, diverged, running = damped_solve(SOS(2.0), 2, 2, [1.0, 9.0],
                                                 max_iter=3, tol=1e-14)
        assert running and not diverged
        assert residual(PeriodicBoundaryLaw.from_values(row), SOS(2.0), 2) < 1.0

    def test_budget_exhaustion_reports_last_iterate(self):
        C = interaction_matrix(SOS(2.0), 2)
        a = np.array([1.0, 9.0])
        for _ in range(4):  # max_iter = 3 allows four damped updates
            F = (C @ a) ** 2
            a = 0.3 * a + 0.7 * F / F[0]
            a /= a[0]
        row, _, _, running = damped_solve(SOS(2.0), 2, 2, [1.0, 9.0], max_iter=3, tol=1e-14)
        assert running
        assert row[1] == pytest.approx(a[1], rel=1e-12)
        # the residual a report would carry is the one its law recomputes
        assert (_fixed_point_map(C, 2, row[None])[2][0]
                == residual(PeriodicBoundaryLaw.from_values(row), SOS(2.0), 2))

    @pytest.mark.parametrize("solve", [
        lambda: damped_solve(SOS(2.0), 2, 2, [1.0, 9.0], damping=1.5),
        lambda: damped_solve(SOS(2.0), 2, 2, [1.0, 9.0], max_iter=-1),
    ], ids=["solve-damping-1.5", "solve-max-iter-neg"])
    def test_bad_iteration_settings_raise(self, solve):
        with pytest.raises(ValueError):
            solve()

    def test_agreement_with_closed_form_across_betas(self):
        for beta in np.linspace(1.8, 3.0, 20):
            want = closed_form_q2_sos(float(beta))[1].a[1]
            row, _, _, running = damped_solve(SOS(float(beta)), 2, 2, [1.0, want * 1.3],
                                              tol=1e-13, max_iter=20000)
            assert not running
            assert row[1] == pytest.approx(want, abs=1e-8)

    def test_root_pairing(self):
        for beta in (1.9, 2.2, 2.8):
            laws = closed_form_q2_sos(beta)
            assert laws[1].a[1] * laws[2].a[1] == pytest.approx(1.0, abs=1e-10)


def _assert_orbits_closed(beta, q, d=2):
    """Every cyclic shift a(k + s) and reflection a(s - k) of a reported law
    matches a reported law within 1e-6 in max |log| difference."""
    logs = np.log([rep.solution.a for rep in find_branches(SOS(beta), q, d)])
    k = np.arange(q)
    for law in logs:
        for perm in [(k + s) % q for s in range(q)] + [(s - k) % q for s in range(q)]:
            image = law[perm] - law[perm[0]]
            assert np.min(np.max(np.abs(logs - image), axis=1)) <= 1e-6, (beta, q)


class TestBranchSweep:
    def test_subcritical_finds_only_trivial(self):
        reports = find_branches(SOS(math.acosh(3.0) - 0.06), 2, 2)
        assert [r.branch_label for r in reports] == [BRANCH_TRIVIAL]

    def test_supercritical_finds_three_branches(self):
        reports = find_branches(SOS(math.acosh(3.0) + 0.06), 2, 2)
        labels = sorted(r.branch_label for r in reports)
        assert labels == [BRANCH_LOWER, BRANCH_TRIVIAL, BRANCH_UPPER]

    def test_q1_has_single_trivial_row(self):
        reports = find_branches(SOS(2.5), 1, 2)
        assert len(reports) == 1
        assert reports[0].branch_label == BRANCH_TRIVIAL

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("eps", [1e-4, 2e-3])
    def test_near_critical_finds_all_three_laws(self, d, eps):
        op = SOS(critical_beta(2, d) + eps)
        roots = ising_type_solve(*wrapped_row(op, 2), d)
        reports = find_branches(op, 2, d)
        assert len(roots) == len(reports) == 3
        for rep in reports:
            assert min(abs(rep.solution.a[1] - r) for r in roots) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_critical_point_gives_one_row(self, d):
        # the flat residual well around the trivial law folds onto one branch
        assert len(find_branches(SOS(critical_beta(2, d)), 2, d)) == 1

    def test_q2_sweep_matches_closed_form(self):
        # the q=2, d=2 grids next to beta_c that the benchmark sweeps
        for shift in (0.1, 0.5, 0.9):
            for i in range(17):
                beta = 1.74 + (shift + i) * 0.003
                want = sorted(law.a[1] for law in closed_form_q2_sos(beta))
                got = [rep.solution.a[1] for rep in find_branches(SOS(beta), 2, 2)]
                assert len(got) == len(want), beta
                assert got == pytest.approx(want, rel=0.0, abs=1e-12), beta

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_bench_sweeps_print_laws_within_tol(self, shift):
        # what the benchmark checks of every solve-bl row: the printed law
        # itself solves the equation to --tol, on the grids the CLI builds
        for q, d, lo, step in [(2, 2, 1.74, 0.003), (2, 3, 0.8, 0.06), (3, 2, 1.5, 0.12)]:
            for i in range(17):
                op = SOS(lo + shift * step + i * step)
                for rep in find_branches(op, q, d, tol=1e-10):
                    assert residual(rep.solution, op, d) <= 1e-10, (q, d, op.beta)

    @pytest.mark.parametrize("beta, q", [(3.0, 3), (2.0, 4), (2.5, 5)])
    def test_symmetry_orbits_are_closed(self, beta, q):
        _assert_orbits_closed(beta, q)

    @pytest.mark.parametrize("shift", [0.1, 0.5, 0.9])
    def test_q3_sweep_orbits_are_closed(self, shift):
        for i in range(17):
            _assert_orbits_closed(1.5 + (shift + i) * 0.12, 3)

    def test_orbit_member_missed_by_damped_iteration(self):
        laws = [rep.solution.a for rep in find_branches(SOS(3.0), 3, 2)]
        assert any(a[1] == pytest.approx(81.2, abs=0.1) == a[2] for a in laws)

    def test_q4_finds_lifted_period_two_laws(self):
        # among them (1, 5.446, 1, 5.446) and (1, 0.184, 1, 0.184)
        laws = np.array([rep.solution.a for rep in find_branches(SOS(2.0), 4, 2)])
        for law in closed_form_q2_sos(2.0):
            tiled = np.tile(law.as_array(), 2)
            assert np.abs(laws - tiled).max(axis=1).min() <= 1e-10, law.a

    def test_q6_contains_tiled_divisor_laws(self):
        laws = np.array([rep.solution.a for rep in find_branches(SOS(2.0), 6, 2)])
        for p in (2, 3):
            for rep in find_branches(SOS(2.0), p, 2):
                tiled = np.tile(rep.solution.as_array(), 6 // p)
                assert np.abs(laws - tiled).max(axis=1).min() <= 1e-10, (p, rep.solution.a)

    @settings(max_examples=12, deadline=None)
    @given(beta=st.floats(1.85, 3.0), shift=st.integers(0, 4))
    def test_shift_orbit_closure(self, beta, shift):
        # every cyclic shift of a solution solves the same equation
        law = closed_form_q2_sos(beta)[1]
        assert residual(shifted(law, shift), SOS(beta), 2) < 1e-9


class TestEffectiveBeta:
    def test_period_two_is_half_log_cosh(self):
        for beta in (0.7, 1.5, 2.0):
            assert effective_beta(SOS(beta), 2) == pytest.approx(
                0.5 * math.log(math.cosh(beta)), abs=1e-12)
        assert effective_beta(SOS(2.0), 2) == pytest.approx(
            0.5 * math.log(math.cosh(2.0)), abs=1e-12)

    def test_period_three_is_log_two_cosh_minus_one(self):
        for beta in (0.7, 1.5, 2.0):
            assert effective_beta(SOS(beta), 3) == pytest.approx(
                math.log(2.0 * math.cosh(beta) - 1.0), abs=1e-12)

    def test_period_four_paired_is_half_of_period_three(self):
        for beta in (0.7, 1.5, 2.0):
            assert effective_beta(SOS(beta), 4) == pytest.approx(
                0.5 * math.log(2.0 * math.cosh(beta) - 1.0), abs=1e-12)

    def test_paired_weights_match_wrapped_row(self):
        # the pair-class reduction uses row[0]+row[1] against row[1]+row[2]
        row = wrapped_row(SOS(1.3), 4)
        want = 0.5 * math.log((row[0] + row[1]) / (row[1] + row[2]))
        assert effective_beta(SOS(1.3), 4) == pytest.approx(want, abs=1e-15)

    def test_period_five_has_no_reduction(self):
        with pytest.raises(UnsupportedPeriod):
            effective_beta(SOS(1.0), 5)


class TestCriticalBeta:
    def test_known_binary_tree_values(self):
        assert critical_beta(2, 2) == pytest.approx(math.acosh(3.0), abs=1e-10)
        assert critical_beta(3, 2) == pytest.approx(math.acosh(1.0 + math.sqrt(2.0)), abs=1e-10)
        assert critical_beta(4, 2) == pytest.approx(math.acosh(2.0), abs=1e-10)

    def test_degree_families(self):
        for d in (2, 3, 4):
            assert critical_beta(2, d) == pytest.approx(
                math.acosh((d + 1.0) / (d - 1.0)), abs=1e-10)
            assert critical_beta(4, d) == pytest.approx(
                math.acosh(d / (d - 1.0)), abs=1e-10)

    @pytest.mark.parametrize("q, d", [(2, 2), (2, 3), (2, 4), (2, 7), (2, 20),
                                      (3, 2), (4, 2), (4, 3), (4, 5), (4, 20)])
    def test_effective_temperature_hits_threshold(self, q, d):
        target = math.log(1.0 + 2.0 * math.sqrt(2.0)) if q == 3 else math.atanh(1.0 / d)
        got = effective_beta(SOS(critical_beta(q, d)), q)
        assert got == pytest.approx(target, rel=0.0, abs=1e-14)

    def test_equal_closed_forms_are_equal_floats(self):
        # both thresholds are cosh(beta) = 2
        assert critical_beta(2, 3) == critical_beta(4, 2) == math.acosh(2.0)

    def test_unsupported_cases(self):
        with pytest.raises(UnsupportedPeriod):
            critical_beta(5, 2)
        with pytest.raises(UnsupportedDegree):
            critical_beta(3, 3)


class TestIsingTypeSolve:
    def test_symmetric_weights_only_trivial(self):
        for d in (2, 3):
            assert ising_type_solve(0.8, 0.8, d) == [1.0]

    def test_matches_period_two_closed_form(self):
        # ratio cosh(2) reproduces the beta = 2 branch values
        roots = ising_type_solve(math.cosh(2.0), 1.0, 2)
        assert len(roots) == 3
        want = closed_form_q2_sos(2.0)
        assert roots[0] == pytest.approx(want[2].a[1], abs=1e-9)
        assert roots[2] == pytest.approx(want[1].a[1], abs=1e-9)
        assert roots[0] * roots[2] == pytest.approx(1.0, abs=1e-10)

    def test_bifurcation_at_ising_threshold(self):
        # nontrivial roots appear once the weight ratio passes
        # exp(2 acoth(d)) = (d + 1) / (d - 1), which is 3 for d = 2
        ratio = math.exp(2.0 * math.atanh(0.5))
        assert ratio == pytest.approx(3.0, abs=1e-12)
        assert len(ising_type_solve(ratio * 1.02, 1.0, 2)) == 3
        assert len(ising_type_solve(ratio * 0.98, 1.0, 2)) == 1


ISING_CASES = [(ratio, d) for ratio in (1.5, 2.9, 3.1, 5.0, 20.0, 1e3, 1e6)
               for d in (2, 3, 4, 7)]
POTTS_CASES = [(q, bt, d) for q in (3, 4, 5, 8) for bt in (0.5, 1.5, 2.5, 4.0, 6.0)
               for d in (2, 3, 4)]


def _ising_f(Qpp, Qpm, d):
    return lambda a: ((Qpm + a * Qpp) / (Qpp + a * Qpm)) ** d - a


def _potts_f(q, bt, d):
    eb = float(np.exp(bt))
    return lambda a: ((q - 1.0 + eb * a) / (eb + q - 2.0 + a)) ** d - a


def _solved_roots():
    """(f, roots) of the two scalar solvers on every case."""
    out = [(_ising_f(ratio, 1.0, d), ising_type_solve(ratio, 1.0, d))
           for ratio, d in ISING_CASES]
    out += [(_potts_f(q, bt, d), [law.a[-1] for law in bf.potts_boundary_laws(q, bt, d)[1:]])
            for q, bt, d in POTTS_CASES]
    return out


class TestGridRoots:
    def test_roots_bracketed_to_one_ulp(self):
        for f, roots in _solved_roots():
            for r in roots:
                vals = [f(x) for x in (math.nextafter(r, 0.0), r, math.nextafter(r, math.inf))]
                assert min(vals) <= 0.0 <= max(vals), r

    def test_matches_brentq_scan(self, monkeypatch):
        # the scan the library used while it depended on scipy
        brentq = pytest.importorskip("scipy.optimize").brentq

        def brentq_roots(f, grid):
            vals = [f(x) for x in grid]
            roots = []
            for lo, hi, flo, fhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
                if flo == 0.0:
                    roots.append(float(lo))
                elif flo * fhi < 0.0:
                    roots.append(float(brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)))
            return roots

        new = [roots for _, roots in _solved_roots()]
        monkeypatch.setattr(bf, "grid_roots", brentq_roots)
        old = [roots for _, roots in _solved_roots()]
        for got, want in zip(new, old):
            assert len(got) == len(want)
            # both stop inside the rounding band around a root, which widens
            # near double roots; brentq's absolute xtol = 1e-15 bounds small roots
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_import_leaves_scipy_unloaded(fresh_python):
    out = fresh_python(["-c", "import sys, ggmtree; print('scipy' in sys.modules)"])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# whether the environment is unchanged by the import, the process's threads
# (Linux only), and the three variables after it
IMPORT_REPORT = (
    "import json, os, sys\n"
    "before = dict(os.environ)\n"
    "import ggmtree\n"
    "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
    f"print(json.dumps([dict(os.environ) == before, tasks,"
    f" [os.environ.get(v) for v in {BLAS_THREADS!r}]]))\n")


def _openblas_on_linux() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return sys.platform == "linux" and "openblas" in str(blas.get("name", "")).lower()


def test_import_starts_no_blas_thread(fresh_python):
    out = fresh_python(["-c", IMPORT_REPORT], env=dict.fromkeys(BLAS_THREADS))
    assert out.returncode == 0, out.stderr
    unchanged, tasks, values = json.loads(out.stdout)
    assert unchanged
    assert values == [None, None, None]
    if not _openblas_on_linux():
        pytest.skip("thread count is checked for OpenBLAS on Linux")
    assert tasks == 1


@pytest.mark.parametrize("variable", BLAS_THREADS)
def test_callers_blas_threads_win(fresh_python, variable):
    env = dict.fromkeys(BLAS_THREADS) | {variable: "2"}
    out = fresh_python(["-c", IMPORT_REPORT], env=env)
    assert out.returncode == 0, out.stderr
    unchanged, tasks, values = json.loads(out.stdout)
    assert unchanged
    assert values == [env[v] for v in BLAS_THREADS]
    if _openblas_on_linux() and len(os.sched_getaffinity(0)) >= 2:
        assert tasks == 2


class TestNormalizability:
    def test_periodic_laws_never_normalizable(self, sos2, upper_law):
        assert is_normalizable(upper_law, sos2, 2) is False
        assert is_normalizable(PeriodicBoundaryLaw.trivial(3), sos2, 2) is False
