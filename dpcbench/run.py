#!/usr/bin/env python3
"""Run one workload of the DPC benchmark.

    python3 dpcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call compiles the repository's main
sources together with the benchmark (sbt, in dpcbench/); later calls reuse
the classes until a source file changes. Each run is one JVM with a pinned
heap and a local[nproc] Spark session. Its standard output ends with one JSON
result line; the JVM's standard error goes to dpcbench/.work/logs/.
"""
import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
CLASSES = BENCH / "target" / "scala-2.13" / "classes"

HEAP = "4g"
JVM_FLAGS = [f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"dpcbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    files = sorted(PROGRAM_SOURCES.rglob("*.scala")) + sorted((BENCH / "src" / "main").rglob("*.scala"))
    files += [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    stamp = WORK / "build.stamp"
    digest = source_digest()
    if stamp.exists() and stamp.read_text() == digest and (CLASSES / "dpcbench" / "Main.class").exists():
        return
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "build.log", "w") as log:
        code = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "compile"],
                           BUILD_TIMEOUT_S, cwd=BENCH, stdout=log, stderr=subprocess.STDOUT,
                           stdin=subprocess.DEVNULL)
    if code != 0:
        fail(f"build failed (exit {code}); see {WORK / 'build.log'}")
    stamp.write_text(digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (PROGRAM_SOURCES / "repro").is_dir():
        fail(f"program sources not found under {PROGRAM_SOURCES}; run from a full checkout")
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home or not (pathlib.Path(spark_home) / "jars").is_dir():
        fail("SPARK_HOME must name a Spark distribution")
    build()

    tmp = WORK / "tmp"
    logs = WORK / "logs"
    tmp.mkdir(parents=True, exist_ok=True)
    logs.mkdir(parents=True, exist_ok=True)
    classpath = os.pathsep.join([str(CLASSES), str(pathlib.Path(spark_home) / "jars" / "*")])
    cmd = ["java", *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "dpcbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work", str(WORK)]
    log_path = logs / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    out_path = logs / f"{args.workload}-seed{args.seed}-trace{args.trace}.out"
    with open(log_path, "w") as err, open(out_path, "w") as out:
        code = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    lines = out_path.read_text().splitlines()
    if code != 0 or not lines:
        fail(f"benchmark exited with {code}; see {log_path}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last output line is not JSON; see {out_path}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line; see {out_path}")
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
