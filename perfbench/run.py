#!/usr/bin/env python3
"""Host-clock benchmark of the CHARMM cluster simulator.

Builds perfbench (the simulator's libraries plus the worker in
perfbench.cpp) into .bench_build/perfbench, runs one workload, checks its
outputs and prints its metrics; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload factorial|spatial128|des_fabric|all
                             [--seed N] [--seconds N] [--trace 0|1] [--smoke]

--trace 0 (default) reports the end-to-end metrics, --trace 1 the
per-layer ones. --workload all runs the three workloads in turn and prints
one table. See perfbench/README.md for what each workload and metric is.
"""

import difflib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = BUILD_DIR / "work"
RECORD_DIR = BUILD_DIR / "records"
BINARY = BUILD_DIR / "perfbench"

WORKLOADS = ("factorial", "spatial128", "des_fabric")
SYSTEM_WORKLOADS = ("factorial", "spatial128")
DEFAULT_SEED = 2002  # build_myoglobin_like's own default
DEFAULT_SECONDS = 10
# Fresh-process set-ups per run; setup_s is their median. des_fabric's
# set-up takes milliseconds, so it takes more samples.
SETUP_REPEATS = {"factorial": 3, "spatial128": 3, "des_fabric": 21}
MIN_REPS = {"factorial": 1, "spatial128": 1, "des_fabric": 2}
CHILD_TIMEOUT_S = 170
# Stop adding repetitions once this much wall clock has gone, so that one
# invocation stays well inside three minutes on a slow machine.
RUN_BUDGET_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("md_steps_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sysbuild.build_s", "s"),
    ("charmm.relax_s", "s"),
    ("core.sweep_s", "s"),
    ("core.cell_s.p50", "s"),
    ("core.cell_s.max", "s"),
    ("core.sweep_speedup", "x"),
    ("core.run_experiment_s", "s"),
    ("middleware.cmpi_over_mpi", "x"),
    ("sim.events", "count"),
    ("sim.context_switches", "count"),
    ("sim.ns_per_event", "ns"),
    ("mpi.allreduce_us", "us"),
    ("mpi.sendrecv_us", "us"),
    ("net.fabric_cost_ratio", "x"),
    ("net.messages", "count"),
    ("net.bytes", "B"),
    ("md.nbl_build_miss_s", "s"),
    ("md.nbl_build_hit_s", "s"),
    ("md.bonded_miss_s", "s"),
    ("md.bonded_hit_s", "s"),
    ("md.pair_s", "s"),
    ("md.pairs", "count"),
    ("md.pair_ns", "ns"),
    ("pme.recip_s", "s"),
    ("pme.stencil_points", "count"),
    ("fft.fft3d_s", "s"),
    ("fft.gflops_computed", "GFLOP/s"),
    ("bench.trace_overhead", "x"),
)


class UsageError(Exception):
    pass


class BenchError(Exception):
    pass


# --- flags -------------------------------------------------------------------

UNSIGNED = re.compile(r"[0-9]+")


def parse_unsigned(flag, text, bits=64, minimum=0):
    if not UNSIGNED.fullmatch(text):
        raise UsageError(f"{flag}: '{text}' is not an unsigned integer")
    value = int(text)
    if value >= 1 << bits or value < minimum:
        raise UsageError(f"{flag}: {text} is out of range")
    return value


def parse_args(argv):
    """Strict flag parser: no abbreviations, no defaults for typos."""
    opts = {"workload": None, "seed": DEFAULT_SEED,
            "seconds": DEFAULT_SECONDS, "trace": 0, "smoke": False}
    seen = set()
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--smoke":
            name, value = "smoke", None
        elif arg.startswith("--") and "=" in arg:
            name, value = arg[2:].split("=", 1)
        elif arg in ("--workload", "--seed", "--seconds", "--trace"):
            if i + 1 >= len(argv):
                raise UsageError(f"{arg} needs a value")
            name, value = arg[2:], argv[i + 1]
            i += 1
        else:
            raise UsageError(f"unknown argument '{arg}'")
        if name not in opts:
            raise UsageError(f"unknown flag '--{name}'")
        if name in seen:
            raise UsageError(f"--{name} given twice")
        seen.add(name)
        if name == "smoke":
            if value is not None:
                raise UsageError("--smoke takes no value")
            opts["smoke"] = True
        elif name == "workload":
            if value not in WORKLOADS + ("all",):
                close = difflib.get_close_matches(value, WORKLOADS + ("all",),
                                                  n=1)
                hint = f"; did you mean '{close[0]}'?" if close else ""
                raise UsageError(f"unknown workload '{value}'{hint} "
                                 f"(choose from {', '.join(WORKLOADS)}, all)")
            opts["workload"] = value
        elif name == "seed":
            opts["seed"] = parse_unsigned("--seed", value)
        elif name == "seconds":
            opts["seconds"] = parse_unsigned("--seconds", value, bits=16,
                                             minimum=1)
        elif name == "trace":
            if value not in ("0", "1"):
                raise UsageError(f"--trace: '{value}' is not 0 or 1")
            opts["trace"] = int(value)
        i += 1
    if opts["workload"] is None:
        raise UsageError("--workload is required")
    return opts


def refuse_overrides(environ):
    """The benchmark measures the program's defaults, nothing else."""
    bad = sorted(k for k in environ if k.startswith("REPRO_"))
    if bad:
        raise UsageError("refusing to run with " + ", ".join(bad) +
                         " set: the benchmark measures the defaults")


# --- build and provenance ------------------------------------------------------

def run_quiet(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    log.write_text("")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if run_quiet(cmd, log) != 0:
            tail = log.read_text().splitlines()[-15:]
            raise BenchError("build failed:\n" + "\n".join(tail))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "none (no git)"


def provenance(opts, workload):
    info = worker("info")
    if not info.get("optimized"):
        raise BenchError("perfbench was built without optimisation")
    return {
        "workload": workload, "seed": opts["seed"], "trace": opts["trace"],
        "smoke": opts["smoke"], "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "compiler": info["compiler"],
        "build_type": info["build_type"], "git_describe": git_describe(),
        "kernel": info["kernel"], "engine": info["engine"],
    }


# --- worker processes ------------------------------------------------------------

def worker(mode, *args):
    cmd = [str(BINARY), mode, *args]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if out.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {out.returncode}: "
                         f"{out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def workload_args(opts, workload, system):
    args = ["--workload", workload, "--seed", str(opts["seed"])]
    if system is not None:
        args += ["--system", str(system)]
    if opts["smoke"]:
        args.append("--smoke")
    return args


def setups(opts, workload, count):
    """`count` set-ups, each in a fresh process; returns records + system."""
    system = None
    if workload in SYSTEM_WORKLOADS:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        system = WORK_DIR / f"{workload}-{opts['seed']}.rsys"
    records = []
    for _ in range(count):
        args = workload_args(opts, workload, None)
        if system is not None:
            args += ["--out", str(system)]
        records.append(worker("setup", *args))
    return records, system


class Tally:
    """Cells and checks attempted/failed over every record of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add_record(self, rec):
        self.attempted += rec.get("cells_attempted", 0)
        self.failed += rec.get("cells_failed", 0)
        self.attempted += rec["checks_attempted"]
        self.failed += rec["checks_failed"]
        self.failures += [f["what"] for f in rec["check_failures"]]

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def check_repeats(reps, tally):
    """Event, switch and traffic counts are exact: every rep repeats them."""
    for key in ("events", "context_switches", "messages", "bytes",
                "rank_steps"):
        values = {r[key] for r in reps}
        tally.expect(len(values) == 1,
                     f"{key} differs between repetitions: {sorted(values)}")


def timed_reps(opts, workload, system, started, tally):
    """Fresh-process repetitions of the timed phase until their phases add
    up to --seconds (smoke mode: exactly two)."""
    minimum = 2 if opts["smoke"] else MIN_REPS[workload]
    seconds = 0 if opts["smoke"] else opts["seconds"]
    reps = []
    measured = 0.0
    while len(reps) < minimum or (measured < seconds and
                                  time.monotonic() - started < RUN_BUDGET_S):
        rec = worker("run", *workload_args(opts, workload, system))
        tally.add_record(rec)
        reps.append(rec)
        measured += rec["phase_s"]
    if len(reps) > 1:
        check_repeats(reps, tally)
    return reps


# --- metrics ---------------------------------------------------------------------

def end_to_end(opts, workload, tally):
    started = time.monotonic()
    setup_recs, system = setups(opts, workload,
                                1 if opts["smoke"] else
                                SETUP_REPEATS[workload])
    reps = timed_reps(opts, workload, system, started, tally)
    setup_s = statistics.median(r["setup_s"] for r in setup_recs)
    phase_s = statistics.median(r["phase_s"] for r in reps)
    metrics = {
        "setup_s": setup_s,
        "md_steps_per_s": statistics.median(ratio(r["rank_steps"], r["phase_s"])
                                            for r in reps),
        "events_per_s": statistics.median(ratio(r["events"], r["phase_s"])
                                          for r in reps),
        "total_s": setup_s + phase_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return metrics, {"setups": setup_recs, "reps": reps}


def ratio(num, den):
    """num / den; 0 when a failed cell left nothing to divide by."""
    return num / den if den else 0.0


def span_total(rec, name):
    return sum(s["t1"] - s["t0"] for s in rec["spans"] if s["name"] == name)


def per_layer(opts, workload, tally):
    setup_recs, system = setups(opts, workload, 1)
    args = workload_args(opts, workload, system)
    untraced = worker("run", *args)
    traced = worker("run", *args, "--trace")
    tally.add_record(untraced)
    tally.add_record(traced)
    check_repeats([untraced, traced], tally)
    probe = worker("probe", *args)

    m = {name: 0.0 for name, _ in PER_LAYER}
    m["sysbuild.build_s"] = setup_recs[0]["build_s"]
    m["charmm.relax_s"] = setup_recs[0]["relax_s"]
    m["sim.events"] = traced["events"]
    m["sim.context_switches"] = traced["context_switches"]
    m["sim.ns_per_event"] = 1e9 * ratio(traced["phase_s"], traced["events"])
    m["net.messages"] = traced["messages"]
    m["net.bytes"] = traced["bytes"]
    m["bench.trace_overhead"] = ratio(traced["phase_s"], untraced["phase_s"])

    if workload == "factorial":
        cells = probe["cells"]
        cell_s = [c["cell_s"] for c in cells]
        m["core.sweep_s"] = span_total(traced, "core.sweep")
        m["core.cell_s.p50"] = statistics.median(cell_s)
        m["core.cell_s.max"] = max(cell_s)
        m["core.sweep_speedup"] = ratio(sum(cell_s), m["core.sweep_s"])
        # The first cell at each p pays the cold memo caches; compare the
        # warm cells only.
        p8 = [c for c in cells if c["nprocs"] == 8][1:]
        mean = lambda mw: statistics.mean(c["cell_s"] for c in p8
                                          if c["middleware"] == mw)
        m["middleware.cmpi_over_mpi"] = ratio(mean("CMPI"), mean("MPI"))
    elif workload == "spatial128":
        m["core.run_experiment_s"] = span_total(traced, "core.run_experiment")
    if workload in SYSTEM_WORKLOADS:
        k = probe["kernels"]
        m["md.nbl_build_miss_s"] = k["nbl_build_miss_s"]
        m["md.nbl_build_hit_s"] = k["nbl_build_hit_s"]
        m["md.bonded_miss_s"] = k["bonded_miss_s"]
        m["md.bonded_hit_s"] = k["bonded_hit_s"]
        m["md.pair_s"] = k["pair_s"]
        m["md.pairs"] = k["pairs"]
        m["md.pair_ns"] = 1e9 * ratio(k["pair_s"], k["pairs"])
        m["pme.recip_s"] = k["recip_s"]
        m["pme.stencil_points"] = k["stencil_points"]
        m["fft.fft3d_s"] = k["fft3d_s"]
        m["fft.gflops_computed"] = ratio(k["fft3d_flops_computed"], k["fft3d_s"]) / 1e9
    else:
        f = probe["fabric"]
        tally.add_record(f)
        m["mpi.allreduce_us"] = 1e6 * ratio(f["allreduce_only_s"], f["rank_calls"])
        m["mpi.sendrecv_us"] = 1e6 * ratio(f["ring_only_s"], f["rank_calls"])
        m["net.fabric_cost_ratio"] = ratio(f["fattree_s"], f["single_switch_s"])
    return m, {"setups": setup_recs, "untraced": untraced, "traced": traced,
               "probe": probe}


def measure(opts, workload):
    tally = Tally()
    prov = provenance(opts, workload)
    if opts["trace"]:
        values, raw = per_layer(opts, workload, tally)
        names = PER_LAYER
    else:
        values, raw = end_to_end(opts, workload, tally)
        names = END_TO_END
    metrics = {n: {"value": values[n], "unit": u} for n, u in names}
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "metrics": metrics,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures, "raw": raw}
    path = RECORD_DIR / (f"{workload}-seed{opts['seed']}-trace{opts['trace']}"
                         f"{'-smoke' if opts['smoke'] else ''}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return prov, metrics, tally


def report(workload, prov, metrics, tally):
    print(f"# {workload}: seed {prov['seed']}, {prov['kernel']} kernel, "
          f"{prov['engine']} engine, {prov['compiler']} {prov['build_type']}, "
          f"{prov['nproc']} x {prov['cpu_model']}, {prov['git_describe']}")
    for name, m in metrics.items():
        print(f"  {name:26s} {m['value']:>16.6g} {m['unit']}")
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'fail_ratio':26s} {fail_ratio:>16.6g} ratio "
          f"({tally.failed} of {tally.attempted} cells and checks failed)")
    for what in tally.failures[:20]:
        print(f"  FAILED: {what}")


def main(argv):
    try:
        opts = parse_args(argv)
        refuse_overrides(os.environ)
        build()
        workloads = WORKLOADS if opts["workload"] == "all" else (
            opts["workload"],)
        results = [(w, *measure(opts, w)) for w in workloads]
    except UsageError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 3
    attempted = failed = 0
    merged = {}
    for workload, prov, metrics, tally in results:
        report(workload, prov, metrics, tally)
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(results) == 1 else workload + "."
        merged.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
