#!/usr/bin/env python3
"""Exact covariance of two flat bonds at growing distance, its mixing bound,
and the geometric decay fitted to the layer chain's mixing profile. A flat
bond's pinned probabilities are the kernel's increment-0 column, so each row
is one power of the q x q chain and no tree volume is built.
"""
from __future__ import annotations

import argparse
import csv
import math

from ggmtree import (
    SOS,
    build_layer_kernel,
    closed_form_q2_sos,
    correlation_and_bound,
    decay_envelope,
    fuzzy_transform,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--out", default="correlation_decay.csv")
    args = parser.parse_args()

    laws = closed_form_q2_sos(args.beta)
    if len(laws) == 1:
        raise SystemExit(f"beta={args.beta} is below the onset; only the flat "
                         "law exists and all covariances vanish")
    op = SOS(args.beta)
    kernel = build_layer_kernel(op, laws[1])
    chain = fuzzy_transform(kernel)
    c, delta, env = decay_envelope(chain, args.n_max)
    # a contiguous copy: a strided column moves the last digits
    flat = kernel.probs[:, kernel.window.cutoff].copy()
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "covariance", "bound", "envelope"])
        for n in range(1, args.n_max + 1):
            cov, bound = correlation_and_bound(chain, flat, flat, n)
            writer.writerow([n, f"{cov:.12e}", f"{bound:.12e}",
                             f"{env[n - 1]:.12e}"])
    print(f"second eigenvalue modulus delta = {delta:.6f} "
          f"(decay rate log delta = {math.log(delta):.6f})")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
