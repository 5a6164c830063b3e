#!/usr/bin/env python3
"""Kernel-throughput regression gate (bench/micro_kernel).

Compares a fresh micro_kernel --stats-json output against the
committed baseline in ci/baselines/BENCH_micro_kernel.json. The
measurements are wall-clock rates (events/sec, packets/sec, and the
functional-warming ops/sec of sampled runs, synchronous and
pipelined) where HIGHER is better,
so the gate fails when a rate drops more than the tolerance below
baseline; rates above baseline never fail (the
baseline is refreshed when an optimization lands, see EXPERIMENTS.md).

  check_micro.py <baseline.json> <current.json> [--tolerance T]

Exit status: 0 within tolerance, 1 regression or bad input.
"""

import argparse
import json
import sys

# Gated rates: a drop in any of these means a kernel hot path, or the
# fast-forward path sampled runs spend most of their time in, got
# slower. pool.speedup is a ratio of two measured rates and is noisier
# than either, so it is reported but never gated.
GATED = [
    ("events", "heap"),
    ("events", "mixed"),
    ("packets", "heap"),
    ("packets", "pooled"),
    ("warming", "drain"),
    ("warming", "fastForward"),
    ("warming", "pipelined"),
]


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot load {path}: {err}")


def rate(doc, path, section, key):
    try:
        return doc[section][key]["ratePerSec"]
    except (TypeError, KeyError):
        sys.exit(f"error: {path}: no {section}.{key}.ratePerSec")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative rate tolerance "
                             "(default 0.05 = -5%%)")
    args = parser.parse_args()

    base = load(args.baseline)
    new = load(args.current)

    print(f"micro gate: tolerance -{args.tolerance:.1%} on "
          f"{len(GATED)} rates")
    regressions = []
    for section, key in GATED:
        b = rate(base, args.baseline, section, key)
        n = rate(new, args.current, section, key)
        if b == 0:
            continue
        rel = n / b - 1.0
        line = (f"  {section}.{key}: {b:,} -> {n:,} ops/s "
                f"({rel:+.2%})")
        print(line)
        if rel < -args.tolerance:
            regressions.append(line)
    speedup_base = base.get("pool", {}).get("speedup")
    speedup_new = new.get("pool", {}).get("speedup")
    if speedup_base is not None and speedup_new is not None:
        print(f"  pool.speedup (advisory): {speedup_base:.2f}x -> "
              f"{speedup_new:.2f}x")

    if regressions:
        print(f"\nFAIL: {len(regressions)} rate(s) regressed beyond "
              "tolerance:")
        print("\n".join(regressions))
        sys.exit(1)
    print("micro gate: OK")


if __name__ == "__main__":
    main()
