#!/usr/bin/env python3
"""Simulator benchmark: build the driver, run one workload, judge every cell.

Run from the root of a checkout:

    python3 perfbench/run.py --workload conv-timed --seed 1 --seconds 30 \
        --trace 0

The first run configures and builds perfbench/ (the simulator sources and
the driver) into .bench_build/; later runs only rebuild what changed.
With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Everything else, provenance included, is also kept in
.bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("conv-timed", "mda-timed", "paper-sampled", "sweep-checked")
FIELDS = ("cycles", "ops", "l1HitRate", "llcAccesses", "memBytes")
# A workload's driver process must end well inside the 180 s budget.
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def provenance():
    """What a result needs to be compared with another: the source it
    ran, the host's size and its load when the run started."""
    commit = None  # a plain checkout: the source digest identifies it
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt", ".json")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def build():
    """Configure once, then let the build tool decide what is stale."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                fail(f"configure failed, see {log_path}")
        cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode:
            fail(f"build failed, see {log_path}")
    return os.path.join(BUILD, "perfbench_driver")


def judge(executions, pins, seed):
    """Every cell execution fails or passes on its own: a checker
    mismatch, a result that differs from its pin (default seed, or a
    kernel that ignores the seed), or one that differs from the same
    cell's first run in this process."""
    failures = []
    first = {}
    for e in executions:
        why = []
        if e["checkFailures"]:
            why.append(f"{e['checkFailures']} checker mismatches")
        if seed == pins["seed"] or e["seed_free"]:
            pin = pins["cells"].get(e["pin_key"])
            if pin is None:
                why.append("no pinned result")
            else:
                diff = [f for f in FIELDS if pin[f] != e[f]]
                if diff:
                    why.append("differs from its pin in " + ", ".join(diff))
        ref = first.setdefault(e["key"], e)
        diff = [f for f in FIELDS if ref[f] != e[f]]
        if diff:
            why.append("differs from its first run in " + ", ".join(diff))
        if why:
            failures.append({"key": e["key"], "round": e["round"],
                             "why": why})
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--only-cells", type=int, default=0,
                    help="run only the workload's first N cells")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt memory under the first cell, with the "
                         "checker on, to show a mismatch fails it")
    args = ap.parse_args()

    for needed in ("src/harness/runner.hh", "bench/bench_common.hh"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout")
    prov = provenance()
    driver = build()

    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    report_path = os.path.join(out, f"{args.workload}-report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    if args.only_cells:
        cmd += ["--only-cells", str(args.only_cells)]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    if code == 2 and not os.path.exists(report_path):
        fail("the driver refused to run (see above)")
    if code != 0 or not os.path.exists(report_path):
        # A panic or fatal error ends the process mid-cell: that cell
        # failed, and no metric of this run can be trusted.
        print(f"perfbench: driver ended with {code}; the running cell "
              "failed")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(1)

    with open(report_path) as f:
        report = json.load(f)
    executions = report.pop("executions")
    with open(PINS) as f:
        pins = json.load(f)
    failures = judge(executions, pins, args.seed)
    attempted = len(executions)

    print(f"workload {args.workload}: {report['cells']} cells, "
          f"jobs {report['jobs']}, seed {args.seed}, "
          f"total simulated ops {report['total_ops']}"
          + (f", {report['rounds']} rounds" if "rounds" in report else ""))
    for fl in failures:
        print(f"FAILED {fl['key']} (round {fl['round']}): "
              + "; ".join(fl["why"]))
    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in report["metrics"]}
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_share':<{width}}  {len(failures) / attempted:.6g} ratio"
          f" ({len(failures)} of {attempted} cell runs failed)")
    if args.trace:
        print(f"spans: {report['span_file']}")
        for name, t in report["span_summary"].items():
            print(f"  {name:<24} total {t['total_ms']:10.1f} ms"
                  f"  self {t['self_ms']:10.1f} ms")
    build_info = report["build"]
    print(f"build: {build_info['type']} ({build_info['flags'].strip()}), "
          f"{build_info['compiler']}; nproc {prov['nproc']}, load "
          f"{prov['loadavg_at_start'][0]:.2f} at start, commit "
          f"{prov['git_commit'] or 'n/a'}, "
          f"source {prov['source_sha256'][:12]}")

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(
            results_dir,
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as f:
        json.dump(dict(result, provenance=prov, report=report,
                       executions=executions, failures=failures), f,
                  indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
