"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""
import json
import math
import time

import numpy as np
import pytest

from ggmtree import (
    SOS,
    IncrementWindow,
    LiftedPotts,
    PeriodicBoundaryLaw,
    build_layer_kernel,
    cayley_ball,
    closed_form_q2_sos,
    check_consistency,
    check_homogeneity,
    check_reversibility,
    check_restricted_dlr,
    correlation_and_bound,
    find_branches,
    fuzzy_transform,
    max_dual_gap_ggm,
    max_dual_gap_pinned,
    residual,
    single_bond_marginal,
    wrapped_row,
)
from ggmtree.chains import second_eigenvalue_modulus
from ggmtree.cli import main
from ggmtree.diagnostics import (
    CounterexampleChain,
    conditional_ratio_closed,
    conditional_ratio_enumerated,
)
import brute_force as bf


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def model_bits():
    op = SOS(2.0)
    law = closed_form_q2_sos(2.0)[1]
    kernel = build_layer_kernel(op, law)
    chain = fuzzy_transform(kernel)
    return op, law, kernel, chain


def test_criterion_1_critical_temperatures(tmp_path):
    t0 = time.perf_counter()
    cases = [
        (2, 2, math.acosh(3.0)),
        (3, 2, math.acosh(1.0 + math.sqrt(2.0))),
        (4, 2, math.acosh(2.0)),
    ]
    for d in (2, 3, 4):
        cases.append((2, d, math.acosh((d + 1.0) / (d - 1.0))))
        cases.append((4, d, math.acosh(d / (d - 1.0))))
    out = tmp_path / "critical.json"
    worst = 0.0
    for q, d, want in cases:
        code = main(["critical-beta", "--q", str(q), "--d", str(d),
                     "--out", str(out)])
        assert code == 0
        got = json.loads(out.read_text())["critical_beta"]
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    report("criterion 1 critical temperatures", worst < 1e-5 and elapsed < 1.0,
           f"max error {worst:.2e} over {len(cases)} cases in {elapsed:.2f}s")


def test_criterion_2_bifurcation_detection():
    sweeps = [(2, d, math.acosh((d + 1.0) / (d - 1.0))) for d in (2, 3, 4)]
    sweeps += [(4, d, math.acosh(d / (d - 1.0))) for d in (2, 3, 4)]
    sweeps.append((3, 2, math.acosh(1.0 + math.sqrt(2.0))))
    for q, d, beta_c in sweeps:
        t0 = time.perf_counter()
        grid = beta_c + np.arange(-0.03, 0.0301, 0.005)
        detected = None
        counts = {}
        for beta in grid:
            n = len(find_branches(SOS(float(beta)), q, d, tol=1e-10))
            counts[float(beta)] = n
            if n > 1 and detected is None:
                detected = float(beta)
        elapsed = time.perf_counter() - t0
        below = counts[float(grid[0])]
        above = counts[float(grid[-1])]
        ok = (
            detected is not None
            and abs(detected - beta_c) <= 0.01
            and below == 1
            and above >= 3
            and (q != 2 or above == 3)
            and elapsed < 30.0
        )
        report(f"criterion 2 bifurcation q={q} d={d}", ok,
               f"onset at {detected:.4f} vs {beta_c:.4f}, "
               f"{below} -> {above} branches, {elapsed:.1f}s")


def test_criterion_3_dual_representations(model_bits):
    op, law, _, _ = model_bits
    t0 = time.perf_counter()
    window = IncrementWindow.manual(op, 3, law)
    kernel = build_layer_kernel(op, law, window)
    chain = fuzzy_transform(kernel)
    volume = cayley_ball(2, 2)
    n_configs = (2 * 3 + 1) ** volume.n_edges
    gap_pinned = max_dual_gap_pinned(kernel, volume)  # one bound for every pin class
    gap_ggm = max_dual_gap_ggm(kernel, chain, volume)
    elapsed = time.perf_counter() - t0
    ok = gap_pinned < 1e-9 and gap_ggm < 1e-10 and elapsed < 60.0
    report("criterion 3 dual representations", ok,
           f"pinned gap {gap_pinned:.2e}, mixture gap {gap_ggm:.2e} "
           f"over {n_configs} configurations in {elapsed:.1f}s")


def test_criterion_4_consistency_and_conditional(model_bits):
    op, law, _, _ = model_bits
    window = IncrementWindow.manual(op, 3, law)
    kernel = build_layer_kernel(op, law, window)
    volume = cayley_ball(2, 2)
    cons = max(check_consistency(kernel, volume, 0), check_consistency(kernel, volume, 1))
    dlr = check_restricted_dlr(kernel, volume, 0)
    bad_law = PeriodicBoundaryLaw.from_values([1.0, law.a[1] * 1.1])
    bad_kernel = build_layer_kernel(op, bad_law,
                                    IncrementWindow.manual(op, 3, bad_law))
    bad_cons = check_consistency(bad_kernel, volume, 0)
    bad_dlr = check_restricted_dlr(bad_kernel, volume, 0)
    ok = cons < 1e-9 and dlr < 1e-9 and bad_cons > 1e-3 and bad_dlr > 1e-3
    report("criterion 4 consistency and conditional structure", ok,
           f"solved {cons:.2e}/{dlr:.2e}, perturbed {bad_cons:.2e}/{bad_dlr:.2e}")


def test_criterion_5_homogeneity_and_reversibility(model_bits):
    _, _, kernel, chain = model_bits
    volume = cayley_ball(2, 2)
    # the pins 0, 1 and 1's first child 4 are the depths 0, 1 and 2 of one ray
    homog = check_homogeneity(kernel, chain, volume, [0, 1, 2])
    rev = check_reversibility(kernel, chain)
    ok = homog < 1e-9 and rev < 1e-9
    report("criterion 5 homogeneity and reversibility", ok,
           f"homogeneity {homog:.2e}, reversibility {rev:.2e}")


# cells and offsets expected fewer times than this are pooled into one tail
# bin, as the bench's frequency check pools them, so that each compared count
# is near normal
MIN_EXPECTED = 10


def pooled_sigma(counts: np.ndarray, probs: np.ndarray, n: int) -> float:
    """Largest deviation, in standard errors, of the counts from n probs,
    the cells expected fewer than MIN_EXPECTED times pooled into one bin."""
    rare = n * probs < MIN_EXPECTED
    bins = [(float(p), float(c)) for p, c in zip(probs[~rare], counts[~rare])]
    bins.append((float(probs[rare].sum()), float(counts[rare].sum())))
    return max(abs(c / n - p) / math.sqrt(max(p * (1.0 - p), 1e-300) / n) for p, c in bins)


def test_criterion_6_monte_carlo(model_bits):
    op, law, kernel, chain = model_bits
    t0 = time.perf_counter()
    n = 10**6
    volume = cayley_ball(2, 2)
    batch = bf.library_batch(kernel, chain, volume, n, seed=2024)
    # edge 0 runs from the centre to vertex 1, and the edge into vertex 1's
    # first child, the first vertex of level 2, goes on from there
    second = volume.starts[2] - 1
    offs = kernel.offsets
    single = single_bond_marginal(op, law, kernel.window)
    dev_single = pooled_sigma(np.array([np.count_nonzero(batch[:, 0] == z) for z in offs]),
                              single, n)
    joint = bf.two_bond_marginal(op, kernel, chain)
    K = len(offs)
    counts = np.zeros((K, K))
    # the batch is one byte per increment: index with intp, so nothing wraps
    np.add.at(counts, (np.add(batch[:, 0], kernel.window.cutoff, dtype=np.intp),
                       np.add(batch[:, second], kernel.window.cutoff, dtype=np.intp)), 1.0)
    dev_two = pooled_sigma(counts.ravel(), joint.ravel(), n)
    elapsed = time.perf_counter() - t0
    ok = dev_single < 4.0 and dev_two < 4.0 and elapsed < 30.0
    report("criterion 6 Monte Carlo agreement", ok,
           f"single-bond {dev_single:.2f} sigma, two-bond {dev_two:.2f} sigma, "
           f"{n} samples in {elapsed:.1f}s")


def test_criterion_7_correlation_decay(model_bits):
    _, _, kernel, chain = model_bits
    covs = []
    bounds = []
    # a flat bond pinned at either end has the increment-0 column
    flat = kernel.probs[:, kernel.window.cutoff].copy()
    for n in range(1, 11):
        cov, bound = correlation_and_bound(chain, flat, flat, n)
        covs.append(abs(cov))
        bounds.append(bound)
    covs = np.array(covs)
    bounds = np.array(bounds)
    delta = second_eigenvalue_modulus(chain.matrix)
    slope = float(np.polyfit(np.arange(1, 11), np.log(covs), 1)[0])
    slope_err = abs(slope - math.log(delta)) / abs(math.log(delta))
    ok = bool(np.all(covs <= bounds)) and slope_err <= 0.10
    report("criterion 7 correlation decay", ok,
           f"cov within bound for n=1..10, slope {slope:.5f} vs "
           f"log delta {math.log(delta):.5f} (rel err {slope_err:.2e})")


def test_criterion_8_counterexample():
    ce = CounterexampleChain(0.1, 0.05)
    worst_rel = 0.0
    for k in range(1, 13):
        closed = conditional_ratio_closed(ce, k, k)
        enum = conditional_ratio_enumerated(ce, k, k)
        worst_rel = max(worst_rel, abs(closed - enum) / closed)
    # the predicted growth factor carries the drift power C**(2*12) against
    # C**(2*1) in its numerator; compare prediction and enumeration exactly
    predicted = conditional_ratio_closed(ce, 12, 12) / conditional_ratio_closed(ce, 1, 1)
    observed = conditional_ratio_enumerated(ce, 12, 12) / conditional_ratio_enumerated(ce, 1, 1)
    factor_err = abs(observed - predicted) / predicted
    ok = worst_rel <= 1e-10 and factor_err <= 1e-8 and predicted > 1.0
    report("criterion 8 one-dimensional counterexample", ok,
           f"closed vs enumerated rel err {worst_rel:.2e}, growth factor "
           f"{observed:.6f} vs predicted {predicted:.6f} (rel err {factor_err:.2e})")


def test_criterion_9_potts_lift_round_trip():
    worst_row = 0.0
    for q in range(2, 9):
        for bt in (0.5, 1.0, 2.0):
            worst_row = max(worst_row, float(np.max(np.abs(
                wrapped_row(LiftedPotts(q, bt), q) - bf.potts_row(q, bt)))))
    worst_res = 0.0
    nontrivial = 0
    for q in (4, 5, 6, 7, 8):
        bt = 3.0
        op = LiftedPotts(q, bt)
        laws = bf.potts_boundary_laws(q, bt, 2)
        nontrivial += sum(1 for law in laws if max(abs(v - 1.0) for v in law.a) > 1e-6)
        for law in laws:
            worst_res = max(worst_res, residual(law, op, 2))
    ok = worst_row == 0.0 and worst_res < 1e-10 and nontrivial >= 5
    report("criterion 9 Potts lift round trip", ok,
           f"row error {worst_row:.1e}, transport residual {worst_res:.2e}, "
           f"{nontrivial} symmetry-broken laws across q=4..8")
