#!/usr/bin/env python3
"""FOAM benchmark: one workload, one run, every metric by name and unit.

    python3 foambench/run.py --workload serial_paper --seed 0 --seconds 55 --trace 0

Builds the driver (foambench/CMakeLists.txt, which compiles ../src) into
.bench_build/foambench on first use, clears the environment variables that
change how the program runs, brackets the run with a host-noise witness, runs
the workload through the driver, checks its outputs and prints one line per
metric followed, on the last line, by a JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1 reports
the per-layer metrics of a separate traced run. attempted counts coupling
exchanges; every exchange of a run that threw or failed a check is failed.
See foambench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "foambench")
DRIVER = os.path.join(BUILD, "foambench_driver")

# Workload name -> rank threads it runs.
THREADS = {"serial_paper": 1, "fullcore_1p1_overlap_ckpt": 2}
EXCHANGES_PER_DAY = 4

# Variables the program's option defaults read. Any of them left set would
# change the run under test (a stray FOAM_FAULT kills it, FOAM_PAR_VERIFY adds
# checking cost), so the benchmark always runs with them cleared.
PINNED_ENV = ("FOAM_SCHEDULER", "FOAM_PAR_TRANSPORT", "FOAM_PAR_VERIFY",
              "FOAM_PAR_VERIFY_TIMEOUT", "FOAM_FAULT", "FOAM_OBSERVE",
              "FOAM_OBSERVE_WATCHDOG", "FOAM_TELEMETRY")

# Plausible ocean-mean SST [C] (unweighted mean over wet cells, which the
# high-latitude rows of the Mercator grid pull well below the area mean).
SST_BAND = (0.0, 25.0)

END_TO_END_UNITS = {"speedup_x": "x", "setup_s": "s",
                    "cpu_s_per_sim_day": "s/day", "peak_rss_mb": "MB",
                    "resume_s": "s"}

CHILD_TIMEOUT_S = 170


def co2_factor(seed):
    """The workload input the seed sets: the CO2 scaling (exactly 1.0 at
    the default seed 0, otherwise in [1.0, 1.01]). The range is narrow
    because the physics' cost moves with the forcing; a wide range would
    mix input-dependent cost into the run-to-run spread."""
    if seed == 0:
        return 1.0
    x = (seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return 1.0 + (x % 1001) / 100000.0


def build():
    """Configure and build the driver (both no-ops when up to date); build
    output goes to stderr."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                   stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "foambench_driver"],
                   stdout=sys.stderr, check=True)


def driver(*args):
    """Run the driver; its last stdout line is a JSON object."""
    out = subprocess.run([DRIVER, *map(str, args)], stdout=subprocess.PIPE,
                         text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_workload(*args):
    """The driver's result for one workload run. A driver that crashes,
    hangs or prints no result counts as a run that threw (the driver itself
    reports a run whose program call threw, with "errored" set)."""
    try:
        return driver(*args)
    except (subprocess.SubprocessError, ValueError, IndexError) as e:
        return {"errored": True, "error": f"driver failed: {e}"}


def cpu_ticks():
    """(stolen, used) jiffies summed over CPUs from /proc/stat, where used is
    user + nice + system + steal; zeros where /proc/stat is absent."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    v += [0] * (8 - len(v))
    return v[7], v[0] + v[1] + v[2] + v[7]


def reference_digest(workload, days):
    """Final-SST digest of a `days`-day run at the default seed (None when
    there is no reference, which fails the check)."""
    with open(os.path.join(HERE, "reference_sst.json")) as f:
        return json.load(f).get(workload, {}).get(str(int(days)))


def check_sst(finite, mean, digest, days, seed, workload, problems, label):
    """Output checks on one final SST, appending what fails to problems."""
    if not finite:
        problems.append(f"{label}: non-finite SST")
    if not SST_BAND[0] <= mean <= SST_BAND[1]:
        problems.append(f"{label}: ocean-mean SST {mean:.3f} C outside "
                        f"{SST_BAND}")
    if seed == 0 and digest != reference_digest(workload, days):
        problems.append(f"{label}: SST digest {digest} != reference "
                        f"{reference_digest(workload, days)}")


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(r, seed, workload, problems):
    days = int(r["days_per_rep"])
    for i, (mean, digest) in enumerate(zip(r["ocean_mean_sst"],
                                           r["sst_digests"])):
        check_sst(r["sst_finite"], mean, digest, days, seed, workload,
                  problems, f"rep {i}")
    if len(set(r["sst_digests"])) > 1:
        problems.append("repetitions disagree bitwise: "
                        + ", ".join(r["sst_digests"]))
    if r["resume_measured"]:
        # Every resume re-simulates day days+1 from the repetition's last
        # checkpoint: all must agree bitwise, and at the default seed match
        # the reference digest of an uninterrupted (days+1)-day run.
        resumed = r["resume_digests"]
        if len(set(resumed)) > 1:
            problems.append("resumes disagree bitwise: " + ", ".join(resumed))
        if seed == 0 and resumed and resumed[0] != reference_digest(
                workload, days + 1):
            problems.append(f"resumed SST digest {resumed[0]} != the "
                            "uninterrupted run's reference "
                            f"{reference_digest(workload, days + 1)}")
    resume_samples = (f"resume_s={['%.3f' % v for v in r['resume_s']]}"
                      if r["resume_measured"] else "resume_s derived")
    print(f"reps={len(r['wall_s'])} x {days} day(s), "
          f"wall_s={['%.3f' % w for w in r['wall_s']]}, {resume_samples}, "
          f"setup_s={['%.4f' % s for s in r['setup_s']]}", file=sys.stderr)
    for k in END_TO_END_UNITS:
        if not r[k]:
            problems.append(f"no samples of {k}")
    return {k: (median(r[k]), unit) for k, unit in END_TO_END_UNITS.items()}


def per_layer(r, seed, workload, problems, units):
    check_sst(r["sst_finite"], r["ocean_mean_sst"], r["sst_digest"],
              r["days"], seed, workload, problems, "traced run")
    if not r["resume_bitwise"]:
        problems.append("traced resume differs from the traced run")
    return {k: (v, units[k]) for k, v in r["per_layer"].items()}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    spec = benchmark_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=THREADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for name in PINNED_ENV:
        os.environ.pop(name, None)
    build()

    co2 = co2_factor(args.seed)
    workdir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    before = driver("witness")
    ticks0 = cpu_ticks()
    try:
        if args.trace:
            r = run_workload("trace", args.workload, repr(co2), workdir)
        else:
            r = run_workload("run", args.workload, repr(co2), args.seconds,
                             workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ticks1 = cpu_ticks()
    after = driver("witness")
    # Share of the CPU time the guest used during the run that a hypervisor
    # took back (steal): high values mean the host, not the program, was slow.
    used = ticks1[1] - ticks0[1]
    steal_frac = (ticks1[0] - ticks0[0]) / used if used > 0 else 0.0

    problems = []
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if r.get("errored"):
        # A throw fails the whole run; its metrics are reported as 0.
        problems.append("run threw: " + r["error"])
        names = units if args.trace else END_TO_END_UNITS
        metrics = {k: (0.0, u) for k, u in names.items()
                   if not k.startswith("host.")}
    elif args.trace:
        metrics = per_layer(r, args.seed, args.workload, problems, units)
    else:
        metrics = end_to_end(r, args.seed, args.workload, problems)
    if args.trace:
        metrics["host.ref_loop_s"] = (
            max(before["ref_loop_s"], after["ref_loop_s"]), "s")
        metrics["host.stream_s"] = (
            max(before["stream_s"], after["stream_s"]), "s")
        metrics["host.steal_frac"] = (steal_frac, "1")
        metrics["host.nproc"] = (float(os.cpu_count() or 0), "count")
        metrics["host.threads"] = (float(THREADS[args.workload]), "count")
        missing = set(units) - set(metrics)
        if missing:
            problems.append("per-layer metrics missing: "
                            + ", ".join(sorted(missing)))
    # A throw or a failed check fails every exchange of the run.
    attempted = max(int(r.get("attempted", 0)), EXCHANGES_PER_DAY)
    failed = attempted if problems else 0

    print(f"workload {args.workload}  seed {args.seed}  co2_factor {co2!r}  "
          f"trace {args.trace}  scheduler {r.get('scheduler', 'n/a')}  "
          f"transport {r.get('transport', 'n/a')}  "
          f"threads {THREADS[args.workload]}  "
          f"nproc {os.cpu_count()}")
    print(f"host.ref_loop_s before {before['ref_loop_s']:.4f} after "
          f"{after['ref_loop_s']:.4f}  host.stream_s before "
          f"{before['stream_s']:.4f} after {after['stream_s']:.4f}  "
          f"host.steal_frac {steal_frac:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6g} {unit}")
    print(f"{'failed_frac':28s} {failed / attempted:16.6g} 1  "
          f"({failed} of {attempted} exchanges)")
    for p in problems:
        print("CHECK FAILED: " + p)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
