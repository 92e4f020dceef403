"""The verifier's certificates against the exact class scans, and the class
scans against the enumerating oracles, all in ``brute_force.py``, on
depth-1 to depth-3 balls of the binary tree."""
import gc
import weakref

import numpy as np
import pytest

import brute_force as bf
from ggmtree import measures
from ggmtree import (
    SOS,
    FuzzyChain,
    GGMSpec,
    IncrementWindow,
    PeriodicBoundaryLaw,
    PinnedMeasureSpec,
    VolumeTooLarge,
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
from ggmtree.model import vertex_heights

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


def bounded(exact, certificate):
    """The exact maximum lies within its certificate, which includes the
    rounding allowance, for the difference and for the ratio."""
    return exact <= certificate and exact.relative <= certificate.relative


@pytest.mark.parametrize("depth, pin", [(1, 0), (2, 1)], ids=["d1", "d2-pin1"])
def test_dual_gaps_match_residue_loops(model, depth, pin):
    kernel, chain = model
    volume = cayley_ball(2, depth)
    spec = PinnedMeasureSpec(kernel, volume, pin, kernel.q - 1)
    assert close(bf.scan_dual_gap_pinned(spec), bf.max_dual_gap_pinned(spec))
    ggm = GGMSpec(kernel, chain, volume)
    assert close(bf.scan_dual_gap_ggm(ggm), bf.max_dual_gap_ggm(ggm))


def check_dual_gaps(kernel, chain, depth, pin):
    volume = cayley_ball(2, depth)
    spec = PinnedMeasureSpec(kernel, volume, pin, kernel.q - 1)
    assert bounded(bf.scan_dual_gap_pinned(spec), max_dual_gap_pinned(spec))
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
    spec = PinnedMeasureSpec(kernel, cayley_ball(2, depth), pin, kernel.q - 1)
    want = bf.check_consistency(spec, inner, mixture=mixture, chain=chain)
    assert close(bf.scan_consistency(spec, inner, mixture=mixture, chain=chain), want)


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
    spec = PinnedMeasureSpec(kernel, cayley_ball(2, depth), pin, kernel.q - 1)
    kwargs = dict(mixture=mixture, chain=chain)
    assert bounded(bf.scan_consistency(spec, inner, **kwargs),
                   check_consistency(spec, inner, **kwargs))


def test_consistency_needs_a_connected_inner_volume(kernel):
    with pytest.raises(ValueError, match="connected"):
        check_consistency(PinnedMeasureSpec(kernel, cayley_ball(2, 3), 0, 0), {0, 4})


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
    assert close(bf.scan_restricted_dlr(spec, inner, **kwargs), want)


# ball of depth 3: vertex 1 has children 4, 5 and grandchildren 10 .. 13;
# edge k joins vertex k + 1 to its parent
@pytest.mark.parametrize("depth, inner, pin, outside, reference, mixture", [
    (2, {1}, 0, None, None, False),
    (2, {1}, 0, None, {4: 1}, False),
    (2, {1}, 0, {1: 1, 5: -1}, None, True),
    (2, {0}, 1, {5: 2}, {2: -1}, False),
    (2, {1, 2}, 3, {8: 1}, {0: 1, 5: -2}, True),
    (3, {1, 4}, 0, None, {9: 2, 10: -1}, False),
    (3, {1, 4, 5}, 2, {1: 1}, {3: 1, 11: -2}, True),
], ids=["d2-inner1", "d2-inner1-reference", "d2-inner1-outside-mixture", "d2-inner0-pin1",
        "d2-inner12-pin3-mixture", "d3-inner14", "d3-inner145-pin2-mixture"])
def test_restricted_certificate_bounds_the_scan(certified_model, depth, inner, pin, outside,
                                                reference, mixture):
    kernel, chain = certified_model
    volume = cayley_ball(2, depth)
    spec = PinnedMeasureSpec(kernel, volume, pin, kernel.q - 1)
    kwargs = dict(outside=outside, reference=reference, mixture=mixture, chain=chain)
    bound = check_restricted_dlr(spec, inner, outside=outside, reference=reference)
    assert bf.scan_restricted_dlr(spec, inner, **kwargs) <= bound
    # the bound is (b / sum b) (rho - 1): the first factor is the class's
    # exact maximum, and rho bounds the range of p / b over the class,
    # reaching it for one inner vertex that takes every layer
    base = np.zeros(volume.n_edges, dtype=np.int64)
    for e, z in {**(outside or {}), **(reference or {})}.items():
        base[e] = z
    share = measures._largest_share(kernel, volume, pin, inner,
                                    vertex_heights(volume, pin, 0, base))
    assert share == pytest.approx(bf.largest_share(spec, inner, outside, reference),
                                  rel=1e-12)
    exact = bf.ratio_range(spec, inner, **kwargs) - 1.0
    assert exact <= bound / share
    if len(inner) == 1 and not mixture:
        assert exact == pytest.approx(bound / share, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("alpha_factor", [1.0, 1.0 + 1e-3], ids=["alpha", "alpha-perturbed"])
@pytest.mark.parametrize("depth, pins, cutoff", [(1, [0, 1, 2], CUTOFF), (2, [0, 1, 4], 1)],
                         ids=["d1", "d2-cutoff1"])
def test_homogeneity_certificate_bounds_enumeration(certified_model, alpha_factor,
                                                    depth, pins, cutoff):
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
    exact = bf.scan_homogeneity(spec, pins, enumerate_budget=3**9)
    assert exact <= check_homogeneity(spec, pins)


def test_budgets_bound_the_scanned_classes(kernel, chain, ball2):
    # q = 2: 2**3 inner residue classes around the root, 2**9 residue
    # vectors, and 2 * cutoff + 1 heights for vertex 1
    spec = PinnedMeasureSpec(kernel, ball2, 0, 0)
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
    spec = PinnedMeasureSpec(kernel, ball1, 0, 0)
    max_dual_gap_pinned(spec)
    ref = weakref.ref(kernel)
    del kernel, spec
    gc.collect()
    assert ref() is None
