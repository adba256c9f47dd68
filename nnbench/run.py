"""Runs one workload of the benchmark and prints its metrics.

    python3 nnbench/run.py --workload seq-lendb [--seed N] [--seconds S] [--trace 0|1]
    python3 nnbench/run.py --workload all       # every workload, untraced and traced

Builds the program from source on first use (see build.py), then runs the
harness in one JVM. Prints every metric by name with its unit, the host and
drift record, failed/attempted per engine, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import build  # noqa: E402

WORKLOADS = ["seq-lendb", "batch-sift"]
JVM_TIMEOUT_S = 170
HEAP = "3g"
# Spark needs these module openings on Java 17 (spark-submit adds them itself).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def run_jvm(classes, workload, seed, seconds, trace):
    cores = len(os.sched_getaffinity(0))
    work = os.path.join(build.OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "result.json")
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={work}",
            f"-Dspark.local.dir={work}",
            f"-Dspark.sql.warehouse.dir={os.path.join(work, 'warehouse')}",
            f"-Dlog4j2.configurationFile={os.path.join(build.BENCH_DIR, 'log4j2.properties')}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
           + ["-cp", os.pathsep.join([classes, build.spark_classpath()]), "nnbench.Main",
              "--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
              "--cores", str(cores), "--out", out]
           + (["--seed", str(seed)] if seed is not None else []))
    env = dict(os.environ, SPARK_LOCAL_DIRS=work)
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: harness exceeded {JVM_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:  # timed out or interrupted: never leave the JVM behind
            proc.kill()
            proc.wait()
    try:
        if code != 0:
            raise RuntimeError(f"{workload}: harness exited with {code}")
        with open(out) as fh:
            full = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = declared_metrics(trace)
    if declared is not None and list(full["result"]["metrics"]) != declared:
        raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json: "
                           f"{sorted(set(full['result']['metrics']) ^ set(declared))}")
    # Keep the last full record (info and spans) of each workload and mode.
    # Defining the benchmark claims no performance change.
    full["claim"] = None
    with open(os.path.join(build.OUT_DIR, f"last-{workload}-trace{trace}.json"), "w") as fh:
        json.dump(full, fh)
    return full


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, in order, if present."""
    path = os.path.join(build.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(full):
    info, result = full["info"], full["result"]
    host = info["host"]
    print(f"# workload {info['workload']}  trace={int(info['trace'])}  seed={info['dataset']['seed']}  "
          f"dataset={info['dataset']['name']} {info['dataset']['count']}x{info['dataset']['len']}  "
          f"k={info['k']} block={info['block']}")
    print(f"# host nproc={host['nproc']} {host['jdk']} spark={host['spark']} master={host['master']} "
          f"partitions={host['partitions']}{' (ABOVE nproc)' if host['partitions_above_nproc'] else ''} "
          f"heap={host['heap_max_mb']}MB gc={host['gc']}")
    w, m, s, d = info["warmup"], info["measured"], info["setup"], info["drift"]
    print(f"# warmup {w['concurrent_s']}s x{w['threads']} threads + {w['solo_s']}s solo, {w['calls']} calls; "
          f"measured {m['seconds']:.1f}s {m['rounds']} rounds, gc {m['gc_ms']:.0f} ms")
    print(f"# setup session {s['session_s']:.2f}s + data {s['data_gen_s']:.2f}s + median of rounds "
          f"{', '.join(f'{x:.2f}' for x in s['round_s'])} s; first set-up {s['first_setup_s']:.2f}s")
    print(f"# drift calib {d['calib_start_ms']:.2f} -> {d['calib_end_ms']:.2f} ms ({d['calib_drift_pct']:+.1f}%)")
    def f(x):  # a median over no samples is written as null
        return "-" if x is None else f"{x:.2f}"
    for key, e in info["engines"].items():
        print(f"# engine {key:6s} failed {e['failed']}/{e['attempted']}  calls {e['calls']}  "
              f"p50 {f(e['p50_ms'])} ms  {e['tail']} {f(e['tail_ms'])} ms  "
              f"halves {f(e['p50_first_half_ms'])}/{f(e['p50_second_half_ms'])} ms  "
              f"fifths {' '.join(f(x) for x in e['p50_fifths_ms'])} ms  qps {f(e['qps'])}")
    for why in info["exactness_failures"]:
        print(f"# exactness FAILED {why}")
    for name, v in result["metrics"].items():
        print(f"{name:28s} {v['value']:.6g} {v['unit']}")
    print(f"# exactness: {'OK' if result['correct'] else 'FAILED'} "
          f"({result['failed']} failed of {result['attempted']} attempted)")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=None, help="default: the dataset's catalog seed")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        classes = build.build()
        if args.workload != "all":
            full = run_jvm(classes, args.workload, args.seed, args.seconds, args.trace)
            report(full)
            print(json.dumps(full["result"]))
            return
        results = {}
        for wl in WORKLOADS:
            for trace in (0, 1):
                full = run_jvm(classes, wl, args.seed, args.seconds, trace)
                report(full)
                results[f"{wl}/trace{trace}"] = full["result"]
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{run}/{n}": v for run, r in results.items() for n, v in r["metrics"].items()},
        }))
    except (build.BuildError, RuntimeError, OSError) as e:
        sys.exit(f"nnbench: {e}")


if __name__ == "__main__":
    main()
