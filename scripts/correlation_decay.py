#!/usr/bin/env python3
"""Exact covariance of two flat bonds at growing distance, its mixing bound,
and the geometric decay fitted to the layer chain's mixing profile.

Runs the CLI's ``correlation`` on the upper law of the solid-on-solid model
(q = 2, d = 2), so it writes the same CSV (a ``# {meta}`` line, then
``n,covariance,bound``) and exits with the CLI's codes. The decay C * delta**n
is fitted to the fuzzy chain that ``chain dump`` reports; it is a fit, not a
bound, and is printed, not tabulated.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from ggmtree import FuzzyChain, decay_envelope
from ggmtree.cli import _AT_LEAST_1, _POSITIVE, EXIT_OK, main as cli_main

# the script checks its own flags with the CLI's argument types, so an error
# names --beta or --n-max, not correlation's usage or the temporary model file


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=_POSITIVE, default=2.0)
    parser.add_argument("--n-max", type=_AT_LEAST_1, default=10)
    parser.add_argument("--out", default="correlation_decay.csv")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.json")
        with open(model, "w") as fh:
            json.dump({"potential": {"kind": "sos", "beta": args.beta}, "q": 2, "d": 2}, fh)
        law = ["--model", model, "--branch", "upper"]
        dump = os.path.join(tmp, "chain.json")
        code = cli_main(["chain", "dump", *law, "--out", dump])
        if code != EXIT_OK:
            return code
        with open(dump) as fh:
            payload = json.load(fh)
        code = cli_main(["correlation", *law, "--n-max", str(args.n_max), "--out", args.out])
    if code != EXIT_OK:
        return code
    chain = FuzzyChain(2, np.array(payload["fuzzy_matrix"]), np.array(payload["alpha"]))
    c, delta, _ = decay_envelope(chain, args.n_max)
    print(f"second eigenvalue modulus delta = {delta:.6f} "
          f"(decay rate log delta = {math.log(delta):.6f})")
    print(f"fitted decay C * delta**n with C = {c:.6f} (a fit, not a bound)")
    print(f"wrote {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
