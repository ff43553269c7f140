#!/usr/bin/env python3
"""Build and run the maximum-fair-clique benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run compiles the repository's main sources together with the
benchmark driver (sbt, build file in this directory) and records the
classpath; later runs reuse the build while the sources are unchanged.
The driver itself runs in one JVM on Spark local mode. Every file the
build and the run write stays inside this directory (see .gitignore).

The last line of standard output is the driver's JSON result; the script
exits non-zero without printing a result if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "sources.sha256")
RUN_DIR = os.path.join(TARGET, "run")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
DRIVER_HEAP = "3g"

# JDK module opens that Spark's launcher normally adds.
SPARK_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=1):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads from the checkout, in a stable order."""
    roots = [os.path.join(HERE, "src"), os.path.join(ROOT, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def sources_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_child(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout and
    wait for it, so no process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout:.0f} s: {cmd[0]}", 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail("no src/main/scala in this checkout; nothing to benchmark", 2)
    digest = sources_digest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH", 2)
    # Always a full compile: incremental state from other sources can go stale.
    for stale in ("scala-2.13", "streams"):
        shutil.rmtree(os.path.join(TARGET, stale), ignore_errors=True)
    os.makedirs(TARGET, exist_ok=True)
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}",
           "compile", "writeClasspath"]
    code, _ = run_child(cmd, BUILD_TIMEOUT_S, cwd=HERE, stdout=sys.stderr,
                        stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (sbt exit {code})")
    with open(STAMP, "w") as fh:
        fh.write(digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    started = time.monotonic()
    build()
    with open(CLASSPATH) as fh:
        classpath = fh.read().strip()

    tmp = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else "java"
    # A fixed heap: no resizing while the loop runs.
    cmd = [java, f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
           "-Dspark.driver.host=127.0.0.1"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in SPARK_OPENS]
    cmd += ["-cp", classpath, "perfbench.Main", "--workload", args.workload,
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(tmp, "spark-local"))

    # The first run of a checkout also builds; it gets the build's allowance.
    budget = RUN_TIMEOUT_S + max(0.0, time.monotonic() - started - 5)
    try:
        code, out = run_child(cmd, budget, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if code != 0 or not lines:
        fail(f"benchmark driver exited with {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
