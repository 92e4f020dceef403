"""The verifier's class scans against the enumerating oracles in
``brute_force.py``, on depth-1 and depth-2 balls of the binary tree."""
import gc
import weakref

import pytest

import brute_force as bf
from ggmtree import (
    SOS,
    GGMSpec,
    GradientConfiguration,
    IncrementWindow,
    PeriodicBoundaryLaw,
    PinnedMeasureSpec,
    VolumeTooLarge,
    build_layer_kernel,
    cayley_ball,
    check_consistency,
    check_restricted_dlr,
    closed_form_q2_sos,
    find_branches,
    fuzzy_transform,
    max_dual_gap_ggm,
    max_dual_gap_pinned,
    pinned_prob_bl,
)

CUTOFF = 2  # keeps the oracles' enumerations small


def close(got, want):
    return got == pytest.approx(want, rel=1e-12, abs=1e-15)


def solved_law(q):
    if q == 1:
        return SOS(2.0), PeriodicBoundaryLaw.trivial(1)
    if q == 2:
        return SOS(2.0), closed_form_q2_sos(2.0)[1]
    op = SOS(3.0)
    return op, min(find_branches(op, 3, 2), key=lambda r: r.solution.a[1]).solution


@pytest.fixture(scope="module", params=[(1, 1.0), (2, 1.0), (2, 1.1), (3, 1.0), (3, 1.1)],
                ids=["q1", "q2", "q2-perturbed", "q3", "q3-perturbed"])
def model(request):
    q, factor = request.param
    op, law = solved_law(q)
    if factor != 1.0:
        a = list(law.a)
        a[1] *= factor
        law = PeriodicBoundaryLaw.from_values(a)
    kernel = build_layer_kernel(op, law, IncrementWindow.manual(op, CUTOFF, law))
    return kernel, fuzzy_transform(kernel)


@pytest.mark.parametrize("depth, pin", [(1, 0), (2, 1)], ids=["d1", "d2-pin1"])
def test_dual_gaps_match_residue_loops(model, depth, pin):
    kernel, chain = model
    volume = cayley_ball(2, depth)
    spec = PinnedMeasureSpec(kernel, volume, pin, kernel.q - 1)
    assert close(max_dual_gap_pinned(spec), bf.max_dual_gap_pinned(spec))
    ggm = GGMSpec(kernel, chain, volume)
    assert close(max_dual_gap_ggm(ggm), bf.max_dual_gap_ggm(ggm))


@pytest.mark.parametrize("depth, inner, pin, mixture", [
    (1, {0}, 0, False),
    (1, {0}, 0, True),
    (2, {0}, 0, False),
    (2, {0, 1}, 0, False),
    (2, {0, 1}, 1, False),
    (2, {0, 1}, 1, True),
], ids=["d1", "d1-mixture", "d2", "d2-inner01", "d2-inner01-pin1", "d2-inner01-pin1-mixture"])
def test_consistency_matches_enumeration(model, depth, inner, pin, mixture):
    kernel, chain = model
    spec = PinnedMeasureSpec(kernel, cayley_ball(2, depth), pin, kernel.q - 1)
    want = bf.check_consistency(spec, inner, mixture=mixture, chain=chain)
    assert close(check_consistency(spec, inner, mixture=mixture, chain=chain), want)


# ball of depth 2: edge k joins vertex k + 1 to its parent; 1 -> 4, 5 are
# edges 3, 4; 2 -> 6, 7 are edges 5, 6; 3 -> 8, 9 are edges 7, 8
@pytest.mark.parametrize("inner, pin, outside, reference, mixture", [
    ({1}, 0, None, None, False),
    ({1}, 0, None, {4: 1}, False),
    ({1}, 0, {1: 1, 5: -1}, None, True),
    ({0}, 1, {5: 2}, {2: -1}, False),
    ({1, 2}, 3, {8: 1}, {0: 1, 5: -2}, True),
], ids=["inner1", "inner1-reference", "inner1-outside-mixture", "inner0-pin1",
        "inner12-pin3-mixture"])
def test_restricted_dlr_matches_enumeration(model, inner, pin, outside, reference, mixture):
    kernel, chain = model
    spec = PinnedMeasureSpec(kernel, cayley_ball(2, 2), pin, kernel.q - 1)
    kwargs = dict(outside=outside, reference=reference, mixture=mixture, chain=chain)
    want = bf.check_restricted_dlr(spec, inner, **kwargs)
    assert close(check_restricted_dlr(spec, inner, **kwargs), want)


def test_budgets_bound_the_scanned_classes(kernel, chain, ball2):
    # q = 2: 2**3 inner residue classes around the root, 2**9 residue
    # vectors, and 2 * cutoff + 1 heights for vertex 1
    spec = PinnedMeasureSpec(kernel, ball2, 0, 0)
    ggm = GGMSpec(kernel, chain, ball2)
    heights = 2 * kernel.window.cutoff + 1
    scans = [
        (lambda b: check_consistency(spec, {0}, config_budget=b), 2**3),
        (lambda b: check_restricted_dlr(spec, {1}, config_budget=b), heights),
        (lambda b: max_dual_gap_pinned(spec, residue_budget=b), 2**9),
        (lambda b: max_dual_gap_ggm(ggm, residue_budget=b), 2**9),
    ]
    for scan, count in scans:
        scan(count)
        with pytest.raises(VolumeTooLarge):
            scan(count - 1)


def test_partition_keeps_no_kernel_alive(sos2, upper_law, ball1):
    kernel = build_layer_kernel(sos2, upper_law)
    spec = PinnedMeasureSpec(kernel, ball1, 0, 0)
    pinned_prob_bl(spec, GradientConfiguration.zeros(ball1))
    ref = weakref.ref(kernel)
    del kernel, spec
    gc.collect()
    assert ref() is None
