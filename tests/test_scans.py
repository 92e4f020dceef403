"""The verifier's certificates against the exact class scans, and the class
scans against the enumerating oracles, all in ``brute_force.py``, on
depth-1 to depth-3 balls of the binary tree.

The library pins a measure at the centre of the ball, and the oracles at
any vertex (``pin``). Each certificate reads no pin vertex: the dual bound
counts the interior vertices other than the pin, consistency reads the
weight hanging below each rim vertex of the inner volume, the same from
any pin inside it, and the conditional bound gives every inner vertex the d
neighbours away from a pin outside it. So a certificate also bounds the
scans pinned elsewhere, and the cases with a ``pin`` in their id check that.

The library takes the inner ball and the sub-ball below vertex 1 by their
radius, and the oracles any vertex set. ``bf.consistency_bound`` and
``bf.restricted_bound`` are the certificates summed vertex by vertex over
any set, checked against the scans, and equal the library's on balls, bit
for bit."""
import gc
import weakref

import pytest

import brute_force as bf
from brute_force import VolumeTooLarge
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
    find_branches,
    fuzzy_transform,
    max_dual_gap_ggm,
    max_dual_gap_pinned,
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
    return op, min(find_branches(op, q, 2), key=lambda r: r.solution.a[1]).solution


def build_model(q, factor, cutoff=CUTOFF):
    op, law = solved_law(q)
    if factor != 1.0:
        a = list(law.a)
        a[1] *= factor
        law = PeriodicBoundaryLaw.from_values(a)
    kernel = build_layer_kernel(op, law, IncrementWindow.manual(op, cutoff, law))
    return op, kernel, fuzzy_transform(kernel)


MODELS = {"q1": (1, 1.0), "q2": (2, 1.0), "q2-perturbed": (2, 1.1), "q3": (3, 1.0),
          "q3-perturbed": (3, 1.1)}
# the certificates are also checked at q = 4 and against a law perturbed by 1e-6
CERTIFIED = {**MODELS, "q2-perturbed-1e-6": (2, 1.0 + 1e-6), "q4": (4, 1.0),
             "q4-perturbed": (4, 1.1)}


@pytest.fixture(scope="module", params=list(MODELS.values()), ids=list(MODELS))
def model(request):
    return build_model(*request.param)


@pytest.fixture(scope="module", params=list(CERTIFIED.values()), ids=list(CERTIFIED))
def certified_model(request):
    return build_model(*request.param)


def bounded(exact, bound):
    """The exact largest difference and the exact largest |ratio - 1| both
    lie within the certified bound, which includes the rounding
    allowance. A probability is at most 1, so the difference is at most the
    ratio."""
    difference, ratio = exact
    return difference <= ratio <= bound


@pytest.mark.parametrize("depth, pin", [(1, 0), (2, 1)], ids=["d1", "d2-pin1"])
def test_dual_gaps_match_residue_loops(model, depth, pin):
    op, kernel, chain = model
    volume = cayley_ball(2, depth)
    pinned = op, kernel, volume, kernel.q - 1
    assert close(bf.scan_dual_gap_pinned(*pinned, pin=pin)[0],
                 bf.max_dual_gap_pinned(*pinned, pin=pin))
    assert close(bf.scan_dual_gap_ggm(op, kernel, chain, volume)[0],
                 bf.max_dual_gap_ggm(op, kernel, chain, volume))


def check_dual_gaps(op, kernel, chain, depth, pin):
    volume = cayley_ball(2, depth)
    assert bounded(bf.scan_dual_gap_pinned(op, kernel, volume, kernel.q - 1, pin=pin),
                   max_dual_gap_pinned(kernel, volume))
    if pin == 0:
        assert bounded(bf.scan_dual_gap_ggm(op, kernel, chain, volume),
                       max_dual_gap_ggm(kernel, chain, volume))


@pytest.mark.parametrize("depth, pin", [(1, 0), (2, 0), (2, 1)], ids=["d1", "d2", "d2-pin1"])
def test_dual_gap_certificates_bound_the_scans(certified_model, depth, pin):
    check_dual_gaps(*certified_model, depth, pin)


# the q**edges residue scan takes about a second for q = 2 at depth 3
@pytest.mark.parametrize("name", ["q2", "q2-perturbed", "q2-perturbed-1e-6"])
def test_dual_gap_certificates_bound_the_depth3_scans(name):
    check_dual_gaps(*build_model(*CERTIFIED[name]), 3, 0)


@pytest.mark.parametrize("depth, inner, pin, mixture", [
    (1, {0}, 0, False),
    (1, {0}, 0, True),
    (2, {0}, 0, False),
    (2, {0, 1}, 0, False),
    (2, {0, 1}, 1, False),
    (2, {0, 1}, 1, True),
], ids=["d1", "d1-mixture", "d2", "d2-inner01", "d2-inner01-pin1", "d2-inner01-pin1-mixture"])
def test_consistency_matches_enumeration(model, depth, inner, pin, mixture):
    op, kernel, chain = model
    pinned = op, kernel, cayley_ball(2, depth), kernel.q - 1
    want = bf.check_consistency(*pinned, inner, mixture=mixture, chain=chain, pin=pin)
    difference, ratio = bf.scan_consistency(*pinned, inner, mixture=mixture, chain=chain,
                                            pin=pin)
    assert close(difference, want) and ratio >= difference


# ball of depth 3: {0} and {0, 1, 2, 3} are the inner balls of radius 0 and
# 1, the second's rim, level 2, being interior
@pytest.mark.parametrize("depth, inner, radius, pin, mixture", [
    (1, {0}, 0, 0, False),
    (1, {0}, 0, 0, True),
    (2, {0}, 0, 0, False),
    (2, {0}, 0, 0, True),
    (2, {0, 1}, None, 0, False),
    (2, {0, 1}, None, 1, True),
    (3, {0, 1}, None, 1, False),
    (3, {0, 1, 4}, None, 4, True),
    (3, {0}, 0, 0, False),
    (3, {0}, 0, 0, True),
    (3, {0, 1, 2, 3}, 1, 0, False),
    (3, {0, 1, 2, 3}, 1, 0, True),
    (3, {0, 1, 2, 3}, 1, 2, False),
    (3, {0, 1, 2, 3}, 1, 3, True),
], ids=["d1", "d1-mixture", "d2", "d2-mixture", "d2-inner01", "d2-inner01-pin1-mixture",
        "d3-inner01-pin1", "d3-inner014-pin4-mixture", "d3", "d3-mixture", "d3-inner0123",
        "d3-inner0123-mixture", "d3-inner0123-pin2", "d3-inner0123-pin3-mixture"])
def test_consistency_certificate_bounds_the_scan(certified_model, depth, inner, radius, pin,
                                                 mixture):
    op, kernel, chain = certified_model
    volume = cayley_ball(2, depth)
    # the certificate summed over the rim of any connected inner set holding
    # the centre; the library's takes the inner balls
    bound = bf.consistency_bound(kernel, volume, inner)
    if radius is not None:
        assert inner == bf.descendants(volume, 0, radius)
        assert check_consistency(kernel, volume, radius) == bound
    # one bound for every pin class, so it bounds the mixture too
    assert bounded(bf.scan_consistency(op, kernel, volume, kernel.q - 1, inner,
                                       mixture=mixture, chain=chain, pin=pin), bound)


def test_consistency_scan_skips_classes_without_configurations():
    # q = 4 at cutoff 1 < q/2: the inner classes with an increment of
    # residue 2 hold no windowed configuration, and the others still differ
    op, kernel, _ = build_model(4, 1.1, cutoff=1)
    volume = cayley_ball(2, 2)
    exact = bf.scan_consistency(op, kernel, volume, kernel.q - 1, {0})
    assert exact[0] > 0.0 and bounded(exact, check_consistency(kernel, volume, 0))


def test_bounds_are_the_same_for_every_pin_class(certified_model):
    # normalization centres the pinned bounds, so none reads the class: the
    # one bound covers the exact scan pinned to each class
    op, kernel, _ = certified_model
    volume = cayley_ball(2, 2)
    gap = max_dual_gap_pinned(kernel, volume)
    restricted = check_restricted_dlr(kernel, volume, 0)
    for s in range(kernel.q):
        assert bounded(bf.scan_dual_gap_pinned(op, kernel, volume, s), gap)
        assert bf.scan_restricted_dlr(op, kernel, volume, s, {1}) <= restricted
        for radius in [0, 1]:
            assert bounded(bf.scan_consistency(op, kernel, volume, s,
                                               bf.descendants(volume, 0, radius)),
                           check_consistency(kernel, volume, radius))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_mixture_dual_bound_is_the_pinned_one_widened(certified_model, depth):
    # its width adds ptp(log c) to the pinned width
    _, kernel, chain = certified_model
    volume = cayley_ball(2, depth)
    assert max_dual_gap_ggm(kernel, chain, volume) >= max_dual_gap_pinned(kernel, volume)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_radii_lie_in_the_ball(kernel, depth):
    # the inner ball's rim, level radius + 1, lies in the ball, and the
    # sub-ball below vertex 1, levels 1 .. radius + 1, inside its interior
    volume = cayley_ball(2, depth)
    for radius in range(depth):
        check_consistency(kernel, volume, radius)
    for radius in range(depth - 1):
        check_restricted_dlr(kernel, volume, radius)
    for radius in (-1, depth):
        with pytest.raises(ValueError, match="inner radius"):
            check_consistency(kernel, volume, radius)
    for radius in (-1, depth - 1):
        with pytest.raises(ValueError, match="sub-ball radius"):
            check_restricted_dlr(kernel, volume, radius)


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
    op, kernel, chain = model
    pinned = op, kernel, cayley_ball(2, 2), kernel.q - 1
    kwargs = dict(outside=outside, reference=reference, mixture=mixture, chain=chain, pin=pin)
    want = bf.check_restricted_dlr(*pinned, inner, **kwargs)
    assert close(bf.scan_restricted_dlr(*pinned, inner, **kwargs), want)


# ball of depth 3: vertex 1 has children 4, 5 and grandchildren 10 .. 13;
# edge k joins vertex k + 1 to its parent. {1} and {1, 4, 5} are the
# sub-balls of radius 0 and 1 below vertex 1
@pytest.mark.parametrize("depth, inner, radius, pin, outside, reference, mixture", [
    (2, {1}, 0, 0, None, None, False),
    (2, {1}, 0, 0, None, {4: 1}, False),
    (2, {1}, 0, 0, {1: 1, 5: -1}, None, True),
    (2, {1, 2}, None, 3, {8: 1}, {0: 1, 5: -2}, True),
    (3, {1, 4}, None, 0, None, {9: 2, 10: -1}, False),
    (3, {1, 4, 5}, 1, 2, {1: 1}, {3: 1, 11: -2}, True),
    (3, {1}, 0, 2, {1: 1}, None, False),
    (3, {1, 4, 5}, 1, 0, None, None, False),
    (3, {1, 4, 5}, 1, 10, {8: 1}, {4: -1}, True),
], ids=["d2-inner1", "d2-inner1-reference", "d2-inner1-outside-mixture",
        "d2-inner12-pin3-mixture", "d3-inner14", "d3-inner145-pin2-mixture",
        "d3-inner1-pin2", "d3-inner145", "d3-inner145-pin10-mixture"])
def test_restricted_certificate_bounds_the_scan(certified_model, depth, inner, radius, pin,
                                                outside, reference, mixture):
    op, kernel, chain = certified_model
    volume = cayley_ball(2, depth)
    pinned = op, kernel, volume, kernel.q - 1
    kwargs = dict(outside=outside, reference=reference, mixture=mixture, chain=chain, pin=pin)
    # the bound holds for every outside assignment and boundary-height
    # class, which only the oracles take; the library's takes the sub-balls
    bound = bf.restricted_bound(kernel, volume, inner)
    if radius is not None:
        assert inner == bf.descendants(volume, 1, radius)
        assert check_restricted_dlr(kernel, volume, radius) == bound
    assert bf.scan_restricted_dlr(*pinned, inner, **kwargs) <= bound
    # the bound is rho - 1, rho bounding the range of p / b over the class
    # and reaching it for one inner vertex that takes every layer
    exact = bf.ratio_range(*pinned, inner, **kwargs) - 1.0
    assert exact <= bound
    if len(inner) == 1 and not mixture:
        assert exact == pytest.approx(bound, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("alpha_factor", [1.0, 1.0 + 1e-3], ids=["alpha", "alpha-perturbed"])
# the scan takes the pins as vertices of one ray, the library as their depths
@pytest.mark.parametrize("depth, pins, depths, cutoff", [(1, [0, 1], [0, 1], CUTOFF),
                                                         (2, [0, 1, 4], [0, 1, 2], 1)],
                         ids=["d1", "d2-cutoff1"])
def test_homogeneity_certificate_bounds_enumeration(certified_model, alpha_factor,
                                                    depth, pins, depths, cutoff):
    # every windowed configuration: 5**3 at depth 1, 3**9 at depth 2
    op, kernel, chain = certified_model
    if cutoff != CUTOFF:
        kernel = build_layer_kernel(op, kernel.law, IncrementWindow.manual(op, cutoff, kernel.law))
        chain = fuzzy_transform(kernel)
    alpha = chain.alpha.copy()
    alpha[0] *= alpha_factor
    parts = kernel, FuzzyChain(kernel.q, chain.matrix, alpha / alpha.sum()), cayley_ball(2, depth)
    assert bounded(bf.scan_homogeneity(*parts, pins, enumerate_budget=3**9),
                   check_homogeneity(*parts, depths))


def test_budgets_bound_the_scanned_classes(sos2, kernel, chain, ball2):
    # q = 2: 2**3 inner residue classes around the root, 2**9 residue
    # vectors, and 2 * cutoff + 1 heights for vertex 1
    pinned = sos2, kernel, ball2, 0
    heights = 2 * kernel.window.cutoff + 1
    scans = [
        (lambda b: bf.scan_consistency(*pinned, {0}, config_budget=b), 2**3),
        (lambda b: bf.scan_restricted_dlr(*pinned, {1}, config_budget=b), heights),
        (lambda b: bf.scan_dual_gap_pinned(*pinned, residue_budget=b), 2**9),
        (lambda b: bf.scan_dual_gap_ggm(sos2, kernel, chain, ball2, residue_budget=b), 2**9),
    ]
    for scan, count in scans:
        scan(count)
        with pytest.raises(VolumeTooLarge):
            scan(count - 1)


def test_partition_keeps_no_kernel_alive(sos2, upper_law, ball1):
    kernel = build_layer_kernel(sos2, upper_law)
    max_dual_gap_pinned(kernel, ball1)
    ref = weakref.ref(kernel)
    del kernel
    gc.collect()
    assert ref() is None
