#!/usr/bin/env python3
"""Sweep the inverse temperature around the analytic onset of multiple
boundary laws and record every solved branch.

Runs the CLI's ``critical-beta`` for the onset and its ``solve-bl`` over the
beta grid on the solid-on-solid model, so it writes the same CSV (a
``# {meta}`` line, then one row per (beta, branch)) and exits with the CLI's
codes. Prints the first beta with more than one law next to the analytic
value.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from collections import Counter

from ggmtree.cli import _POSITIVE, EXIT_OK, MAX_BETAS, _checked, main as cli_main

# the script's own checks, so an error names the script's flag, not solve-bl's
_HALFWIDTH = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "finite and non-negative")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--halfwidth", type=_HALFWIDTH, default=0.15)
    parser.add_argument("--step", type=_POSITIVE, default=0.01)
    parser.add_argument("--out", default="bifurcation_sweep.csv")
    args = parser.parse_args()
    if not 2 * args.halfwidth / args.step < MAX_BETAS:
        parser.error(f"--halfwidth {args.halfwidth!r} at --step {args.step!r} gives more "
                     f"than {MAX_BETAS} beta points; raise --step or lower --halfwidth")

    with tempfile.TemporaryDirectory() as tmp:
        onset = os.path.join(tmp, "critical_beta.json")
        code = cli_main(["critical-beta", "--q", str(args.q), "--d", str(args.d),
                         "--out", onset])
        if code != EXIT_OK:
            return code
        with open(onset) as fh:
            beta_c = json.load(fh)["critical_beta"]
        model = os.path.join(tmp, "model.json")
        with open(model, "w") as fh:
            json.dump({"potential": {"kind": "sos", "beta": beta_c},
                       "q": args.q, "d": args.d}, fh)
        code = cli_main(["solve-bl", "--model", model,
                         "--beta-min", repr(beta_c - args.halfwidth),
                         "--beta-max", repr(beta_c + args.halfwidth),
                         "--beta-step", repr(args.step), "--out", args.out])
    if code != EXIT_OK:
        return code
    with open(args.out, newline="") as fh:
        next(fh)  # the "# {meta}" line
        laws = Counter(row["beta"] for row in csv.DictReader(fh))
    detected = next((beta for beta, count in laws.items() if count > 1), None)
    print(f"analytic onset  beta_c = {beta_c:.6f}")
    if detected is None:
        print("no multi-branch point inside the sweep window")
    else:
        print(f"detected onset  beta   = {float(detected):.6f}")
    print(f"wrote {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
