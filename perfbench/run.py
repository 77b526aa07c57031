#!/usr/bin/env python3
"""Run the CLIMBER benchmark from the root of a checkout.

    python3 perfbench/run.py --workload query --seed 1 --seconds 7 --trace 0

The first run builds the benchmark and the program from source with sbt
(offline) into perfbench/target; sbt runs again, incrementally, whenever a
source or build file has changed since. Every run then starts one plain
JVM. The JVM prints each metric with its unit on stderr and the JSON result
as the last line of stdout. This script checks that the metric names match
BENCHMARK.json and passes the JSON on.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
JVM_OPTIONS = os.path.join(TARGET, "jvm-options.txt")
SOURCES_HASH = os.path.join(TARGET, "sources.sha256")
# What the compiled classes are made from, relative to the checkout root.
SOURCES = [os.path.join("src", "main", "scala"), "jobs",
           os.path.join("perfbench", "src", "main"), os.path.join("perfbench", "build.sbt"),
           os.path.join("perfbench", "project", "build.properties")]
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout
    or interrupt, and wait until it has ended."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def sources_hash():
    """SHA-256 over the path and contents of every file in SOURCES."""
    h = hashlib.sha256()
    for src in SOURCES:
        top = os.path.join(ROOT, src)
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build():
    """Compile the program and the benchmark, unless the classes in
    perfbench/target were compiled from the sources as they are now."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("no program sources next to perfbench/ (run from a repository checkout)")
    digest = sources_hash()
    if all(os.path.exists(p) for p in (CLASSPATH, JVM_OPTIONS, SOURCES_HASH)):
        with open(SOURCES_HASH) as f:
            if f.read().strip() == digest:
                return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = env.get("SBT_OPTS", "").split()
    if "-Dsbt.offline=true" not in opts:
        opts.append("-Dsbt.offline=true")
    # Resolve only from the repositories the local sbt setup names (the
    # coursier cache is keyed by repository), as the repository's own
    # build does.
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    if os.path.exists(repos) and not any("sbt.repository.config" in o for o in opts):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "-Dsbt.server.autostart=false", "compile", "writeClasspath"]
    if os.path.exists(SOURCES_HASH):
        os.remove(SOURCES_HASH)
    code, _ = run_child(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env,
                        stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (sbt exit {code})")
    with open(SOURCES_HASH, "w") as f:
        f.write(digest + "\n")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    # On SIGTERM unwind through run_child, which kills the child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    build()

    tmp = os.path.join(SCRATCH, "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(CLASSPATH) as f:
        cp = f.read().strip()
    with open(JVM_OPTIONS) as f:
        jvm = f.read().split()
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    # Pin the Spark config to jobs/JobSession's defaults.
    for k in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"):
        env.pop(k, None)
    cmd = ["java", "-Xms3g", "-Xmx3g", f"-Djava.io.tmpdir={tmp}", *jvm, "-cp", cp,
           "climberbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    code, out = run_child(cmd, RUN_TIMEOUT_S, cwd=SCRATCH, env=env,
                          stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail(f"benchmark printed no result (exit {code})")
    result = json.loads(lines[-1])
    want = declared_metrics(a.trace == 1)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        fail(f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
