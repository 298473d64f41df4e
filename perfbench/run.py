#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run builds the hbft library,
hbft_cli and the perfbench binary (Release) in .bench_build/perfbench. Each
run then repeats passes of the workload for about S seconds, each in a
fresh process pinned to the host's CPUs in turn, and reports medians and
interquartile means; host times are scaled by the speed at which the
benchmark's own reference kernel ran in the same pass. With --trace 1 it
alternates untraced and traced passes: the traced ones record spans and
give the per-layer metrics; the difference is the tracing overhead. Deterministic
values (simulated-time metrics and work counters) must repeat exactly in
every pass of one seed, traced or not.

The human-readable report goes first; the last line of standard output is
the JSON object {"correct", "attempted", "failed", "metrics"}. The full
result, with the host and build description and every pass, is written to
.bench_build/perfbench/results/. README.md beside this file documents the
workloads, the metrics and the known failures.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
PERFBENCH = os.path.join(BUILD_DIR, "perfbench")
HBFT_CLI = os.path.join(BUILD_DIR, "hbft", "hbft_cli")

WORKLOADS = ("cpu-pair", "failover-drills", "fleet-storm", "serve-echo")
PASS_TIMEOUT_S = 150
MIN_PASSES = 3  # Untraced passes in a --trace 0 run; 2 + 2 in a --trace 1 run.
RECONCILE_TOLERANCE = 0.02  # Per-layer self times vs the traced pass's wall time.
SLO_MS = 50.0  # serve-echo request latency limit (the fleet's default SLO).


# The contract's end-to-end metrics: defined on every workload (see README.md).
END_TO_END = (("setup_s", "s"), ("wall_norm_s", "s"), ("cpu_norm_s", "s"), ("peak_rss_mb", "MB"))

# The host speed the *_norm_s metrics are scaled to: a host on which the
# benchmark's reference kernel (perfbench.cpp, ReferenceMs) takes this long.
# It is about the kernel's typical time on the host the benchmark was tuned
# on, so normalised and raw seconds read alike there.
REFERENCE_MS = 11.0

PER_LAYER = (
    ("machine.instret", "count"),
    ("machine.idle_skipped", "count"),
    ("machine.ns_per_instr", "ns"),
    ("machine.tcache_hit_ratio", "ratio"),
    ("hypervisor.epochs", "count"),
    ("hypervisor.traps_reflected", "count"),
    ("hypervisor.privileged_simulated", "count"),
    ("hypervisor.interrupts_delivered", "count"),
    ("hypervisor.residual_ns_per_epoch", "ns"),
    ("core.messages_sent", "count"),
    ("core.acks", "count"),
    ("core.env_values", "count"),
    ("core.io_issued", "count"),
    ("core.uncertain_synthesised", "count"),
    ("core.promotions", "count"),
    ("net.wire_bytes", "bytes"),
    ("net.delivered_bytes", "bytes"),
    ("net.goodput_ratio", "ratio"),
    ("net.retransmits", "count"),
    ("net.rx_discards", "count"),
    ("resync.count", "count"),
    ("resync.bytes", "bytes"),
    ("resync.page_chunks", "count"),
    ("resync.zero_run_chunks", "count"),
    ("resync.delta_pages", "count"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("sim.build_world_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.collect_ms", "ms"),
    ("sim.bare_twin_ms", "ms"),
    ("sim.env_check_ms", "ms"),
    ("fleet.failovers", "count"),
    ("fleet.repairs", "count"),
    ("fleet.requests_served", "count"),
    ("fleet.rss_per_replica_mb", "MB"),
    ("fleet.chain_build_ms", "ms"),
    ("fleet.run_ms", "ms"),
    ("proc.sys_frac", "ratio"),
    ("serve.epochs", "count"),
    ("serve.messages_sent", "count"),
    ("serve.responses", "count"),
    ("serve.cpu_ms_per_sim_s", "ms/s"),
    ("loadgen.lag_max_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.machine_ms", "ms"),
    ("self.snapshot_ms", "ms"),
    ("self.fleet_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.reconcile_err", "ratio"),
)

# Workload-specific end-to-end metrics, printed in the report with the
# contract metrics: (name, unit, "sim" or "host").
REPORT = {
    "all": (
        ("setup_raw_s", "s", "host"),
        ("wall_s", "s", "host"),
        ("cpu_s", "s", "host"),
        ("reference_ms", "ms", "host"),
        ("failed_frac", "ratio", "host"),
    ),
    "cpu-pair": (("guest_mips", "Minstr/s", "host"), ("np", "ratio", "sim")),
    "failover-drills": (
        ("drills_per_s", "1/s", "host"),
        ("drill_p50_ms", "ms", "host"),
        ("drill_tail_ms", "ms", "host"),
    ),
    "fleet-storm": (("availability", "ratio", "sim"), ("slo_attainment", "ratio", "sim")),
    "serve-echo": (
        ("slo_attainment", "ratio", "host"),
        ("req_p50_ms", "ms", "host"),
        ("req_tail_ms", "ms", "host"),
        ("server_cpu_ms_per_req", "ms", "host"),
    ),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    env.pop("HBFT_INTERP", None)  # The default engine is the one measured.
    return env


def build():
    """Configures (once) and builds perfbench and hbft_cli; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target", "perfbench", "hbft_cli"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              env=clean_env())
        if proc.returncode != 0:
            log(proc.stdout.decode(errors="replace")[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def source_identity():
    """Git commit when available (a plain checkout has none) and a digest of
    the sources the benchmark builds."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return {"git_commit": commit or "unknown (not a git checkout)",
            "source_sha256": digest.hexdigest()}


def pass_cpus(workload, index):
    """The CPUs pass `index` is pinned to. The CPUs of a shared host differ
    in speed from moment to moment, by a quarter on the host the benchmark
    was tuned on; turning through them pass by pass puts every CPU into
    every run equally, instead of wherever the scheduler happens to put a
    pass. fleet-storm runs two worker threads and serve-echo a server and
    a client, so they get two CPUs."""
    allowed = sorted(os.sched_getaffinity(0))
    width = min(len(allowed), 2 if workload in ("fleet-storm", "serve-echo") else 1)
    return {allowed[(index + k) % len(allowed)] for k in range(width)}


def run_pass(workload, seed, traced, index, extra=(), slot=None):
    """Runs pass `index` pinned to the CPUs of `slot` (default: the index)."""
    cmd = [PERFBENCH, workload, "--seed=%d" % seed, "--cli=" + HBFT_CLI] + list(extra)
    cpus = pass_cpus(workload, index if slot is None else slot)
    if traced:
        cmd += ["--trace", "--spans=" + os.path.join(
            RESULTS_DIR, "%s-seed%d-spans-%d.json" % (workload, seed, index))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=clean_env(), timeout=PASS_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    if proc.returncode != 0:
        raise RuntimeError("pass failed (exit %d): %s" % (
            proc.returncode, proc.stderr.decode(errors="replace")[-2000:]))
    return json.loads(proc.stdout)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(samples, p):
    """Nearest-rank percentile."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def tail(samples):
    """(value, percentile, n): the highest of p50/p90/p95/p99/p99.9 with at
    least ten samples beyond it."""
    best = 50.0
    for p in (90.0, 95.0, 99.0, 99.9):
        if len(samples) * (1.0 - p / 100.0) >= 10.0:
            best = p
    return percentile(samples, best), best, len(samples)


def interquartile_mean(values):
    """Mean of the middle half of the values (all of them when fewer than 4)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def pass_speed(p):
    """How much slower than the reference host the pass's CPU ran: the
    median of its reference kernel samples over REFERENCE_MS."""
    return statistics.median(p["reference_ms"]) / REFERENCE_MS


def typical(passes, field, normalise):
    """Milliseconds of wall (field 0) or CPU (field 1) time: each timed
    unit's interquartile mean over the passes, averaged over the units. A
    unit is the cpu-pair run, one passing drill, the fleet run or the serve
    session; every pass repeats it with the same inputs, so its repetitions
    differ only by host noise (see README.md). With `normalise`, each
    repetition is first divided by its pass's speed."""
    units = list(zip(*[[(u[field] / pass_speed(p) if normalise else u[field]) for u in p["units"]]
                       for p in passes]))
    if not units:
        return 0.0
    return statistics.mean(interquartile_mean(u) for u in units)


def operations(passes):
    """(attempted, failed, failure ids) of one run. Every pass of a seed
    repeats the same operations, so a run attempts each once; it failed if
    it failed in any pass. Counted this way, the figures depend on the seed
    only, not on how many passes fitted in the run."""
    failed = sorted({f["id"] for p in passes for f in p["failures"]})
    return passes[0]["attempted"], len(failed), failed


def check_repeats(passes):
    """Deterministic values must repeat exactly across the passes of a seed.
    Returns a list of problems."""
    problems = []
    by_kind = {}
    for p in passes:
        values = dict(p["det"])
        values.update(("counter:" + k, v) for k, v in p["counters"].items())
        values["timed units"] = len(p["units"])
        values["attempted"] = p["attempted"]
        ref = by_kind.setdefault(p["traced"], values)
        if set(ref) != set(values):
            problems.append("deterministic keys differ between passes")
        for key in set(ref) & set(values):
            if ref[key] != values[key]:
                problems.append("%s differs between passes: %r vs %r" % (key, ref[key], values[key]))
    if len(by_kind) == 2:
        plain, traced = by_kind[False], by_kind[True]
        for key in set(plain) & set(traced):
            if plain[key] != traced[key]:
                problems.append("%s differs between traced and untraced passes" % key)
    return problems


def aggregate(workload, passes):
    """Returns (end_to_end, report, per_layer, problems)."""
    plain = [p for p in passes if not p["traced"]] or passes
    traced = [p for p in passes if p["traced"]]
    problems = check_repeats(passes)
    for p in passes:
        problems.extend(p["errors"])
        if not p["host"]["optimized"]:
            problems.append("host timings from a non-optimised build")

    wall_s = typical(plain, 0, False) / 1e3
    cpu_s = typical(plain, 1, False) / 1e3
    # serve-echo's session times are not scaled: the session's length is set
    # by the request schedule, and its CPU time is the server's, which the
    # kernel's speed did not track (see README.md). Set-up is scaled on
    # every workload.
    scaled = workload != "serve-echo"
    e2e = {
        "setup_s": median([p["e2e"]["setup_s"] / pass_speed(p) for p in plain]),
        "wall_norm_s": typical(plain, 0, scaled) / 1e3,
        "cpu_norm_s": typical(plain, 1, scaled) / 1e3,
        "peak_rss_mb": median([p["e2e"]["peak_rss_mb"] for p in plain]),
    }

    report = {}
    report["setup_raw_s"] = (median([p["e2e"]["setup_s"] for p in plain]),
                             "median of %d passes, not normalised" % len(plain))
    report["wall_s"] = (wall_s, "interquartile mean of %d passes, not normalised" % len(plain))
    report["cpu_s"] = (cpu_s, "interquartile mean of %d passes, not normalised" % len(plain))
    report["reference_ms"] = (median([statistics.median(p["reference_ms"]) for p in plain]),
                              "median over passes of each pass's median; scaled to %g ms"
                              % REFERENCE_MS)
    attempted, failed, _ = operations(passes)
    report["failed_frac"] = (failed / attempted if attempted else 1.0,
                             "%d of %d operations" % (failed, attempted))
    if workload == "cpu-pair":
        report["guest_mips"] = (plain[0]["counters"]["sim.primary_instret"] / wall_s / 1e6,
                                "primary's instructions / wall_s")
        report["np"] = (plain[0]["det"].get("np", float("nan")), "")
    elif workload == "failover-drills":
        report["drills_per_s"] = (median([p["report"]["drills_per_s"] for p in plain]), "")
        samples = [ms for p in plain for ms in p["drill_ms"]]
        value, pct, n = tail(samples)
        report["drill_p50_ms"] = (percentile(samples, 50.0), "N=%d" % n)
        report["drill_tail_ms"] = (value, "p%g of N=%d" % (pct, n))
    elif workload == "fleet-storm":
        report["availability"] = (plain[0]["det"]["availability"], "")
        report["slo_attainment"] = (plain[0]["det"]["slo_attainment"], "limit %g ms" % SLO_MS)
    elif workload == "serve-echo":
        samples = [ms for p in plain for ms in p["req_ms"]]
        within = sum(1 for ms in samples if ms <= SLO_MS)
        requests = sum(p["attempted"] for p in plain)  # Failed requests count as misses.
        report["slo_attainment"] = (within / requests if requests else 0.0,
                                    "limit %g ms, N=%d" % (SLO_MS, requests))
        value, pct, n = tail(samples)
        report["req_p50_ms"] = (percentile(samples, 50.0), "N=%d" % n)
        report["req_tail_ms"] = (value, "p%g of N=%d" % (pct, n))
        report["server_cpu_ms_per_req"] = (
            median([p["report"]["server_cpu_ms_per_req"] for p in plain]), "")

    per_layer = {}
    if traced:
        counters = traced[0]["counters"]
        layer = {}
        for key in set(k for p in traced for k in p["layer"]):
            layer[key] = median([p["layer"].get(key, 0.0) for p in traced])
        for name, _ in PER_LAYER:
            if name in counters:
                per_layer[name] = counters[name]
            elif name in layer:
                per_layer[name] = layer[name]
        lookups = counters.get("tcache.lookups", 0.0)
        per_layer["machine.tcache_hit_ratio"] = (
            counters.get("tcache.hits", 0.0) / lookups if lookups else 0.0)
        wire = per_layer.get("net.wire_bytes", 0.0)
        per_layer["net.goodput_ratio"] = (
            per_layer.get("net.delivered_bytes", 0.0) / wire if wire else 0.0)
        epochs = counters.get("hypervisor.epochs", 0.0)
        if epochs and "sim.run_ms" in layer and "machine.ns_per_instr" in layer:
            interpreted = counters["machine.instret"] - counters["machine.idle_skipped"]
            machine_ms = interpreted * layer["machine.ns_per_instr"] / 1e6
            per_layer["hypervisor.residual_ns_per_epoch"] = (
                (layer["sim.run_ms"] - machine_ms) * 1e6 / epochs)
        for key in set(k for p in traced for k in p["self_ms"]):
            per_layer["self.%s_ms" % key] = median([p["self_ms"].get(key, 0.0) for p in traced])
        per_layer["trace.overhead_ms"] = (
            typical(traced, 0, False) - wall_s * 1e3)
        errors = [abs(sum(p["self_ms"].values()) - p["pass_ms"]) / p["pass_ms"] for p in traced]
        per_layer["trace.reconcile_err"] = max(errors)
        if max(errors) > RECONCILE_TOLERANCE:
            problems.append("per-layer self times miss the pass wall time by %.1f%% (> %g%%)"
                            % (100 * max(errors), 100 * RECONCILE_TOLERANCE))
        unknown = set(per_layer) - {name for name, _ in PER_LAYER}
        if unknown:
            problems.append("unlisted per-layer metrics: %s" % sorted(unknown))
        for name, _ in PER_LAYER:
            per_layer.setdefault(name, 0.0)  # Not observable on this workload.
    return e2e, report, per_layer, problems


def measure(workload, seed, seconds, trace):
    """Repeats passes for about `seconds`: the next pass starts only if it is
    expected to end within half a pass of the interval, so runs end close
    to it on average rather than always past it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    start = time.monotonic()
    passes = []
    durations = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        # Traced and untraced passes alternate; each pair shares its CPUs.
        slot = len(passes) // 2 if trace else len(passes)
        passes.append(run_pass(workload, seed, traced, len(passes), slot=slot))
        durations.append(time.monotonic() - t0)
        n_plain = sum(1 for p in passes if not p["traced"])
        n_traced = len(passes) - n_plain
        enough = (n_plain >= 2 and n_traced >= 2) if trace else n_plain >= MIN_PASSES
        elapsed = time.monotonic() - start
        if enough and elapsed + median(durations) / 2 >= seconds:
            break
        if elapsed >= seconds + 60:  # Keep the run well inside its time limit.
            break
    return passes


def print_report(workload, seed, identity, host, e2e, report, per_layer, passes, problems):
    units = dict(END_TO_END)
    kinds = {name: (unit, kind) for name, unit, kind in REPORT["all"] + REPORT[workload]}
    n_plain = sum(1 for p in passes if not p["traced"]) or len(passes)
    print("== perfbench %s seed=%d ==" % (workload, seed))
    print("host: %d cpus (sched_getaffinity), each pass pinned to %d in turn, %s, %s build, "
          "engine=%s" % (host["cpus"], host["pass_cpus"], host["compiler"], host["build_type"],
                         host["engine"]))
    print("source: %s, sha256 %s" % (identity["git_commit"], identity["source_sha256"][:16]))
    print("passes: %d untraced, %d traced" % (n_plain, len(passes) - n_plain))
    for name, value in e2e.items():
        how = ("interquartile mean of %d passes" if name.endswith("_norm_s")
               else "median of %d passes") % n_plain
        if name == "setup_s" or (name.endswith("_norm_s") and workload != "serve-echo"):
            how += ", at the reference speed"
        print("  %-22s %14.6g %-9s host, %s" % (name, value, units[name], how))
    for name, (value, note) in report.items():
        unit, kind = kinds.get(name, ("ratio", "host"))
        print("  %-22s %14.6g %-9s %s%s" % (name, value, unit, kind, (", " + note) if note else ""))
    if per_layer:
        layer_units = dict(PER_LAYER)
        print("-- per layer (traced passes) --")
        for name, _ in PER_LAYER:
            print("  %-34s %14.6g %s" % (name, per_layer[name], layer_units[name]))
    failures = {}
    for p in passes:
        for f in p["failures"]:
            failures.setdefault(f["id"], f)
    if failures:
        print("-- failed operations --")
        for f in failures.values():
            print("  %s: %s" % (f["id"], f["reason"]))
            if f.get("repro"):
                print("    repro: %s" % f["repro"])
    for problem in problems:
        print("CHECK FAILED: %s" % problem)


def selftest():
    """Tiny sizes: every metric prints with its unit, corrupted expectations
    become failed operations, traced and untraced passes agree."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        print("%s  %s" % ("ok  " if cond else "FAIL", what))
        ok = ok and cond

    for workload in WORKLOADS:
        passes = [run_pass(workload, 7, traced, i, ["--tiny"])
                  for i, traced in enumerate((False, True))]
        e2e, report, per_layer, problems = aggregate(workload, passes)
        expect(not problems, "%s: traced and untraced deterministic values agree %s"
               % (workload, problems or ""))
        expect(set(e2e) == {n for n, _ in END_TO_END} and all(v > 0 for v in e2e.values()),
               "%s: every end-to-end metric prints, non-zero" % workload)
        expect(set(per_layer) == {n for n, _ in PER_LAYER},
               "%s: every per-layer metric prints" % workload)
        expect({n for n, _, _ in REPORT["all"] + REPORT[workload]} <= set(report),
               "%s: every workload metric prints" % workload)
    for workload, corrupt in (("cpu-pair", "checksum"), ("failover-drills", "checksum"),
                              ("serve-echo", "drop-response")):
        p = run_pass(workload, 7, False, 0, ["--tiny", "--corrupt=" + corrupt])
        expect(p["failed"] >= 1, "%s: corrupted %s is a failed operation (%d/%d)"
               % (workload, corrupt, p["failed"], p["attempted"]))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return selftest()

    identity = source_identity()
    try:
        passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log("perfbench: %s" % err)
        return 1
    host = dict(passes[0]["host"])
    host["cpus"] = len(os.sched_getaffinity(0))  # A pass sees only the CPUs it is pinned to.
    host["pass_cpus"] = len(pass_cpus(args.workload, 0))
    if not host["optimized"]:
        log("perfbench: refusing to report host timings from a non-optimised build")
        return 1
    e2e, report, per_layer, problems = aggregate(args.workload, passes)
    print_report(args.workload, args.seed, identity, host, e2e, report, per_layer, passes,
                 problems)

    attempted, failed, _ = operations(passes)
    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "host": host,
                   "source": identity, "end_to_end": e2e,
                   "report": {k: v[0] for k, v in report.items()}, "per_layer": per_layer,
                   "problems": problems, "passes": passes, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
