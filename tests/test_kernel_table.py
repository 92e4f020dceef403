"""The kernel table ``LayerKernel.probs`` and its consumers against the
formulas they replaced (``brute_force.py``), bit for bit, on the kernels the
CLI builds: the six models of the ``verify`` benchmark, SOS beta=2 with q=4,
a lifted Potts operator with a tail and a table model, each with the certified window and with ``--window 3``."""
import json

import numpy as np
import pytest

import brute_force as bf
from ggmtree import cli, measures
from ggmtree.chains import balance_defect
from ggmtree.model import cayley_ball

SOS2 = {"kind": "sos", "beta": 2.0}
MODELS = {
    "sos2-upper": (SOS2, 2, 2, ["--branch", "upper"]),
    "sos2-upper-perturbed": (SOS2, 2, 2, ["--branch", "upper", "--perturb", "0.1"]),
    "sos1": ({"kind": "sos", "beta": 1.0}, 2, 2, []),
    "sos3-q3": ({"kind": "sos", "beta": 3.0}, 3, 2, []),
    "potts-q3": ({"kind": "lifted_potts", "q": 3, "beta_tilde": 2.0}, 3, 2, []),
    "potts-q4-tailed": ({"kind": "lifted_potts", "q": 4, "beta_tilde": 1.0, "tail_beta": 8.0},
                        4, 2, []),
    "gauss1": ({"kind": "discrete_gaussian", "beta": 1.0}, 2, 2, []),
    "sos2-q4": (SOS2, 4, 2, []),
    "table-d3": ({"kind": "table", "weights": {"0": 1.0, "1": 0.4, "2": 0.05},
                  "tail": 0.2}, 2, 3, []),
}


@pytest.fixture(scope="module", params=[(name, window) for name in MODELS
                                        for window in (None, "3")],
                ids=lambda p: p[0] + ("" if p[1] is None else "-window3"))
def model(request, tmp_path_factory):
    name, window = request.param
    potential, q, d, extra = MODELS[name]
    path = tmp_path_factory.mktemp(name) / "model.json"
    path.write_text(json.dumps({"potential": potential, "q": q, "d": d}))
    argv = ["verify", "--model", str(path), *extra]
    if window is not None:
        argv += ["--window", window]
    args = cli.build_parser().parse_args(argv)
    _, _, _, kernel, chain, _ = cli._setup(args, "verify", "depth", "perturb", law_tol=1e-12)
    return kernel, chain


def test_table_is_the_written_out_kernel(model):
    kernel, _ = model
    want = np.array([[bf.kernel_prob(kernel, s, int(z)) for z in kernel.offsets]
                     for s in range(kernel.q)])
    assert np.array_equal(kernel.probs, want)
    assert all(kernel.prob(s, int(z)) == want[s, k] for s in range(kernel.q)
               for k, z in enumerate(kernel.offsets))
    assert np.array_equal(kernel.ends, (np.arange(kernel.q)[:, None] + kernel.offsets)
                          % kernel.q)


def test_balance_defect_reads_the_table(model):
    kernel, chain = model
    assert np.array_equal(balance_defect(kernel, chain), bf.balance_defect(kernel, chain))


def test_two_bond_marginal_reads_the_table(model):
    kernel, chain = model
    assert np.array_equal(measures.two_bond_marginal(kernel, chain),
                          bf.two_bond_marginal(kernel, chain))


def test_folds(model):
    kernel, _ = model
    assert np.array_equal(measures._fold(kernel, kernel.probs, np.add),
                          bf.windowed_matrix(kernel))
    assert np.array_equal(measures._largest_q(kernel), bf.largest_q(kernel))
    assert np.array_equal(measures._fold(kernel, kernel.probs, np.maximum),
                          bf.step_max(kernel))


def test_product_form_reads_the_table(model):
    kernel, _ = model
    volume = cayley_ball(2, 2)
    rng = np.random.default_rng(3)
    cutoff = kernel.window.cutoff
    Z = rng.integers(-cutoff, cutoff + 1, size=(64, volume.n_edges))
    for pin, s in ((0, 0), (4, kernel.q - 1)):
        assert np.array_equal(bf.pinned_probs(kernel, volume, pin, s, Z),
                              bf.product_probs(kernel, volume, pin, s, Z))
