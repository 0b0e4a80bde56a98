#!/usr/bin/env python3
"""The repo benchmark: overlay workloads on the P2 runtime, end to end and per layer.

    python3 perfbench/run.py --workload chord-lossy --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds `p2bench` (perfbench/cc/) and the
runtime from source into `$CARGO_TARGET_DIR` (default `.bench_build`), runs
the workload, checks that the overlay's answers are correct, prints every
metric with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from an
untraced run. `--trace 1` runs the same seed untraced and then traced (timing
decorators at every layer seam), checks that both runs executed the same
events with the same answers, and reports the per-layer metrics.
`--workload all` runs the three workloads in turn, each printing its own
result line, and exits with the worst status.

Exit status: 0 with a result line; 1 when a correctness check fails; 2 when
the benchmark cannot be built or run. Checks:
  - a chord ring below 0.95 consistency before the window;
  - a pathvector fleet not converged after set-up or not healed at window end;
  - any datagram a node could not decode (p2.bad_packets != 0);
  - chord-lossy-4shard not reproducing chord-lossy's events and every
    virtual-time result exactly (trace 0);
  - a traced run not reproducing its untraced twin exactly (trace 1).
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("chord-lossy", "chord-lossy-4shard", "pathvector-heal")
# chord-lossy-4shard must match this workload's results exactly.
SHARD_REFERENCE = {"chord-lossy-4shard": "chord-lossy"}
BUILD_TYPE = "Release"
# Fleets built (and timed) per untraced run; setup_s is their median.
SETUPS = 3
# Results that depend only on virtual time: equal for equal inputs, at any
# shard count, with tracing on or off.
VIRTUAL_KEYS = ("window_virtual_s", "events", "delivered", "ok_frac", "answer_s",
                "maint_Bps_per_node", "heal_s", "attempted", "failed", "converged",
                "healed", "ring_consistency")
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures and builds p2bench (incrementally); returns the binary's path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(2, f"no runtime sources next to the benchmark (looked in {ROOT})")
    out = build_dir() / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    # Keep the compiler's temporary files inside the build tree too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = build_dir() / "build.log"
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                  f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                 ["cmake", "--build", str(out), "--target", "p2bench",
                  "-j", str(os.cpu_count() or 1)]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                fail(2, "build failed:\n" + "\n".join(tail))
    return out / "p2bench"


def run_p2bench(binary, workload, seed, seconds, traced=False, setups=1, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if traced else "0", "--setups", str(setups)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, f"{' '.join(cmd)} timed out")
    if proc.returncode != 0:
        fail(2, f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end(rec):
    """The end-to-end metrics of one untraced run record."""
    steps = rec["step_wall_s"]
    answers = rec["answer_s"]
    return {
        "setup_s": statistics.median(rec["setup_s"]),
        "virt_per_wall": rec["window_virtual_s"] / sum(steps),
        "step_ms_p50": 1000 * quantile(steps, 0.5),
        "step_ms_p90": 1000 * quantile(steps, 0.9),
        "peak_rss_mb": rec["peak_rss_mb"],
        "ok_frac": rec["ok_frac"],
        "answer_p50_s": quantile(answers, 0.5),
        "answer_p99_s": quantile(answers, 0.99),
        "maint_Bps_per_node": rec["maint_Bps_per_node"],
        "heal_s": rec["heal_s"],
    }


def unit_of(name):
    """Unit of a printed metric that BENCHMARK.json does not list."""
    for suffix, unit in (("_ns", "ns"), ("_s", "s"), ("_share", "ratio"), ("_pct", "%"),
                         ("_p50", "ns"), ("_sum", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def check_run(rec, problems):
    name = rec["workload"]
    if not rec["converged"]:
        if name.startswith("chord"):
            problems.append(f"{name}: ring consistency {rec['ring_consistency']:.3f} "
                            "< 0.95 before the window")
        else:
            problems.append(f"{name}: routing tables not full after set-up")
        return
    if name.startswith("pathvector") and (not rec["healed"] or rec["failed"] != 0):
        problems.append(f"{name}: not healed by window end "
                        f"({rec['failed']}/{rec['attempted']} routes wrong)")
    if rec["bad_packets"] != 0:
        problems.append(f"{name}: {rec['bad_packets']} undecodable datagrams")
    if len(rec["step_wall_s"]) < 100:
        problems.append(f"{name}: window has {len(rec['step_wall_s'])} < 100 steps")
    if name.startswith("chord") and rec["attempted"] < 1000:
        problems.append(f"{name}: {rec['attempted']} < 1000 lookups in the window")
    if not rec["answer_s"]:
        problems.append(f"{name}: no correct answers in the window")


def check_same(a, b, what, problems):
    for key in VIRTUAL_KEYS:
        if a[key] != b[key]:
            shown = (len(a[key]), len(b[key])) if isinstance(a[key], list) else (a[key], b[key])
            problems.append(f"{what}: {key} differs ({shown[0]} vs {shown[1]})")


def source_digest():
    """Commit id when run from a git checkout, else a digest of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for sub in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / sub
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else [base]
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail(2, "--seconds must be at least 1")
    if args.workload == "all":
        # Every workload in turn, each with its own result line; the exit
        # status is the worst of theirs.
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                                 str(args.trace)]).returncode for w in WORKLOADS]
        sys.exit(max(codes))
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(2, f"cannot read {SPEC}: {e}")

    binary = build()
    problems = []
    metrics = {}
    records = {}
    if args.trace == 0:
        main_rec = run_p2bench(binary, args.workload, args.seed, args.seconds,
                               setups=SETUPS)
        records["untraced"] = main_rec
        check_run(main_rec, problems)
        ref_name = SHARD_REFERENCE.get(args.workload)
        if ref_name is not None and not problems:
            ref = run_p2bench(binary, ref_name, args.seed, args.seconds)
            records["shard_reference"] = ref
            check_run(ref, problems)
            check_same(ref, main_rec, f"{args.workload} vs {ref_name}", problems)
        if not problems:
            metrics = end_to_end(main_rec)
        wanted = spec["end_to_end"]
    else:
        plain = run_p2bench(binary, args.workload, args.seed, args.seconds)
        records["untraced"] = plain
        check_run(plain, problems)
        if not problems:
            spans = build_dir() / "spans" / f"{args.workload}-seed{args.seed}.tsv"
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced = run_p2bench(binary, args.workload, args.seed, args.seconds,
                                 traced=True, spans=spans)
            records["traced"] = traced
            check_run(traced, problems)
            check_same(plain, traced, f"{args.workload} traced vs untraced", problems)
        if not problems:
            metrics = dict(traced["layers"])
            workers = traced["workers"]
            wall = sum(traced["step_wall_s"])
            plain_vpw = plain["window_virtual_s"] / sum(plain["step_wall_s"])
            traced_vpw = traced["window_virtual_s"] / wall
            # End-to-end rate from the untraced twin; spans slow the traced one.
            metrics["sim.events_per_sec"] = plain["events"] / sum(plain["step_wall_s"])
            metrics["trace.overhead_pct"] = 100 * (plain_vpw / traced_vpw - 1)
            for layer in ("sim", "sim.send", "net", "p2"):
                metrics[f"{layer}.self_s"] = metrics[f"{layer}.self_share"] * wall * workers
            # The layers' self times partition the window's thread time.
            if abs(metrics["trace.layer_sum"] - 1) > 0.05:
                problems.append(f"layer self times cover {metrics['trace.layer_sum']:.3f} "
                                "of the window, not 1 +- 0.05")
        wanted = spec["per_layer"]
    if problems:
        fail(1, "correctness check failed:\n  " + "\n  ".join(problems))

    head = records.get("traced", records["untraced"])
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nodes": head["nodes"], "workers": head["workers"],
               "shards": head["shards"], "host_cores": head["host_cores"],
               "build_type": BUILD_TYPE, "commit": source_digest()}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("# context " + json.dumps(context))
    for name in sorted(metrics):
        print(f"{name:28s} {metrics[name]:>18.6f} {units.get(name) or unit_of(name)}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(2, "metrics listed in BENCHMARK.json but not measured: " + ", ".join(missing))
    result = {
        "correct": True,
        "attempted": head["attempted"],
        "failed": head["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    out = build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"context": context, "metrics": metrics, "runs": records}, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
