#!/usr/bin/env python3
"""Conditional single-bond probabilities of the one-dimensional layer mixture
as the conditioning window grows.

The ratio flat-vs-step diverges with the window, which is exactly the failure
of the conditional structure a gradient measure would have to satisfy. The
table is the one ``ggmtree counterexample`` writes, and the script exits with
its code: 3 when a ratio leaves the range of a double.
"""
from __future__ import annotations

import argparse
import sys

from ggmtree.cli import EXIT_OK, main as cli_main
from ggmtree.diagnostics import CounterexampleChain


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps0", type=float, default=0.1)
    parser.add_argument("--eps1", type=float, default=0.05)
    parser.add_argument("--kmax", type=int, default=12)
    parser.add_argument("--out", default="counterexample_scan.csv")
    args = parser.parse_args()

    code = cli_main(["counterexample", "--eps0", repr(args.eps0), "--eps1", repr(args.eps1),
                     "--kmax", str(args.kmax), "--out", args.out])
    if code == EXIT_OK:
        ce = CounterexampleChain(args.eps0, args.eps1)
        print(f"drift constant C = {ce.growth_constant():.6f}; "
              f"the ratio grows without bound, so no conditional structure survives")
        print(f"wrote {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
