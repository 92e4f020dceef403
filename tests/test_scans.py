"""The verifier's certificates against the exact class scans, and the class
scans against the enumerating oracles, all in ``brute_force.py``, on
depth-1 to depth-3 balls of the binary tree.

The library pins a measure at the centre of the ball, and the oracles at
any vertex (``pin``). Each certificate reads no pin vertex: the dual bound
counts the interior vertices other than the pin, consistency reads the
weight hanging below each rim vertex of the inner volume, the same from
any pin inside it, and the conditional bound gives every inner vertex the d
neighbours away from a pin outside it. So a certificate also bounds the
scans pinned elsewhere, and the cases with ``pin1`` to ``pin4`` check that."""
import gc
import weakref

import pytest

import brute_force as bf
from brute_force import VolumeTooLarge
from ggmtree import (
    SOS,
    FuzzyChain,
    GGMSpec,
    IncrementWindow,
    PeriodicBoundaryLaw,
    PinnedMeasureSpec,
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


def build_model(q, factor):
    op, law = solved_law(q)
    if factor != 1.0:
        a = list(law.a)
        a[1] *= factor
        law = PeriodicBoundaryLaw.from_values(a)
    kernel = build_layer_kernel(op, law, IncrementWindow.manual(op, CUTOFF, law))
    return kernel, fuzzy_transform(kernel)


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
    allowance."""
    difference, ratio = exact
    return difference <= bound and ratio <= bound


@pytest.mark.parametrize("depth, pin", [(1, 0), (2, 1)], ids=["d1", "d2-pin1"])
def test_dual_gaps_match_residue_loops(model, depth, pin):
    kernel, chain = model
    volume = cayley_ball(2, depth)
    spec = PinnedMeasureSpec(kernel, volume, kernel.q - 1)
    assert close(bf.scan_dual_gap_pinned(spec, pin=pin)[0],
                 bf.max_dual_gap_pinned(spec, pin=pin))
    ggm = GGMSpec(kernel, chain, volume)
    assert close(bf.scan_dual_gap_ggm(ggm)[0], bf.max_dual_gap_ggm(ggm))


def check_dual_gaps(kernel, chain, depth, pin):
    volume = cayley_ball(2, depth)
    spec = PinnedMeasureSpec(kernel, volume, kernel.q - 1)
    assert bounded(bf.scan_dual_gap_pinned(spec, pin=pin), max_dual_gap_pinned(spec))
    if pin == 0:
        ggm = GGMSpec(kernel, chain, volume)
        assert bounded(bf.scan_dual_gap_ggm(ggm), max_dual_gap_ggm(ggm))


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
    kernel, chain = model
    spec = PinnedMeasureSpec(kernel, cayley_ball(2, depth), kernel.q - 1)
    want = bf.check_consistency(spec, inner, mixture=mixture, chain=chain, pin=pin)
    assert close(bf.scan_consistency(spec, inner, mixture=mixture, chain=chain, pin=pin)[0],
                 want)


@pytest.mark.parametrize("depth, inner, pin, mixture", [
    (1, {0}, 0, False),
    (1, {0}, 0, True),
    (2, {0}, 0, False),
    (2, {0}, 0, True),
    (2, {0, 1}, 0, False),
    (2, {0, 1}, 1, True),
    (3, {0, 1}, 1, False),
    (3, {0, 1, 4}, 4, True),
], ids=["d1", "d1-mixture", "d2", "d2-mixture", "d2-inner01", "d2-inner01-pin1-mixture",
        "d3-inner01-pin1", "d3-inner014-pin4-mixture"])
def test_consistency_certificate_bounds_the_scan(certified_model, depth, inner, pin, mixture):
    kernel, chain = certified_model
    spec = PinnedMeasureSpec(kernel, cayley_ball(2, depth), kernel.q - 1)
    # one bound for every pin class, so it bounds the mixture too
    assert bounded(bf.scan_consistency(spec, inner, mixture=mixture, chain=chain, pin=pin),
                   check_consistency(spec, inner))


def test_bounds_are_the_same_for_every_pin_class(certified_model):
    # normalization centres the pinned bounds, so neither reads the class
    kernel, _ = certified_model
    volume = cayley_ball(2, 2)
    for inner in [{0}, {0, 1}]:
        specs = [PinnedMeasureSpec(kernel, volume, s) for s in range(kernel.q)]
        assert len({check_consistency(spec, inner) for spec in specs}) == 1
        assert len({max_dual_gap_pinned(spec) for spec in specs}) == 1


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_mixture_dual_bound_is_the_pinned_one_widened(certified_model, depth):
    # its width adds ptp(log c) to the pinned width
    kernel, chain = certified_model
    volume = cayley_ball(2, depth)
    assert (max_dual_gap_ggm(GGMSpec(kernel, chain, volume))
            >= max_dual_gap_pinned(PinnedMeasureSpec(kernel, volume, 0)))


def test_consistency_needs_a_connected_inner_volume(kernel):
    with pytest.raises(ValueError, match="connected"):
        check_consistency(PinnedMeasureSpec(kernel, cayley_ball(2, 3), 0), {0, 4})


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
    spec = PinnedMeasureSpec(kernel, cayley_ball(2, 2), kernel.q - 1)
    kwargs = dict(outside=outside, reference=reference, mixture=mixture, chain=chain, pin=pin)
    want = bf.check_restricted_dlr(spec, inner, **kwargs)
    assert close(bf.scan_restricted_dlr(spec, inner, **kwargs), want)


# ball of depth 3: vertex 1 has children 4, 5 and grandchildren 10 .. 13;
# edge k joins vertex k + 1 to its parent
@pytest.mark.parametrize("depth, inner, pin, outside, reference, mixture", [
    (2, {1}, 0, None, None, False),
    (2, {1}, 0, None, {4: 1}, False),
    (2, {1}, 0, {1: 1, 5: -1}, None, True),
    (2, {1, 2}, 3, {8: 1}, {0: 1, 5: -2}, True),
    (3, {1, 4}, 0, None, {9: 2, 10: -1}, False),
    (3, {1, 4, 5}, 2, {1: 1}, {3: 1, 11: -2}, True),
], ids=["d2-inner1", "d2-inner1-reference", "d2-inner1-outside-mixture",
        "d2-inner12-pin3-mixture", "d3-inner14", "d3-inner145-pin2-mixture"])
def test_restricted_certificate_bounds_the_scan(certified_model, depth, inner, pin, outside,
                                                reference, mixture):
    kernel, chain = certified_model
    volume = cayley_ball(2, depth)
    spec = PinnedMeasureSpec(kernel, volume, kernel.q - 1)
    kwargs = dict(outside=outside, reference=reference, mixture=mixture, chain=chain, pin=pin)
    # the bound holds for every outside assignment and boundary-height
    # class, which only the oracles take
    bound = check_restricted_dlr(spec, inner)
    assert bf.scan_restricted_dlr(spec, inner, **kwargs) <= bound
    # the bound is rho - 1, rho bounding the range of p / b over the class
    # and reaching it for one inner vertex that takes every layer
    exact = bf.ratio_range(spec, inner, **kwargs) - 1.0
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
    kernel, chain = certified_model
    if cutoff != CUTOFF:
        kernel = build_layer_kernel(kernel.op, kernel.law,
                                    IncrementWindow.manual(kernel.op, cutoff, kernel.law))
        chain = fuzzy_transform(kernel)
    alpha = chain.alpha.copy()
    alpha[0] *= alpha_factor
    spec = GGMSpec(kernel, FuzzyChain(kernel.q, chain.matrix, alpha / alpha.sum()),
                   cayley_ball(2, depth))
    assert bounded(bf.scan_homogeneity(spec, pins, enumerate_budget=3**9),
                   check_homogeneity(spec, depths))


def test_budgets_bound_the_scanned_classes(kernel, chain, ball2):
    # q = 2: 2**3 inner residue classes around the root, 2**9 residue
    # vectors, and 2 * cutoff + 1 heights for vertex 1
    spec = PinnedMeasureSpec(kernel, ball2, 0)
    ggm = GGMSpec(kernel, chain, ball2)
    heights = 2 * kernel.window.cutoff + 1
    scans = [
        (lambda b: bf.scan_consistency(spec, {0}, config_budget=b), 2**3),
        (lambda b: bf.scan_restricted_dlr(spec, {1}, config_budget=b), heights),
        (lambda b: bf.scan_dual_gap_pinned(spec, residue_budget=b), 2**9),
        (lambda b: bf.scan_dual_gap_ggm(ggm, residue_budget=b), 2**9),
    ]
    for scan, count in scans:
        scan(count)
        with pytest.raises(VolumeTooLarge):
            scan(count - 1)


def test_partition_keeps_no_kernel_alive(sos2, upper_law, ball1):
    kernel = build_layer_kernel(sos2, upper_law)
    spec = PinnedMeasureSpec(kernel, ball1, 0)
    max_dual_gap_pinned(spec)
    ref = weakref.ref(kernel)
    del kernel, spec
    gc.collect()
    assert ref() is None
