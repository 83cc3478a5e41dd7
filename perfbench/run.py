#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload similarity --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run builds the program with
its own sbt build and the benchmark on top of it (offline); later runs reuse
the build while the sources are unchanged. Everything the benchmark builds
or writes goes under `.bench_build/` and the builds' `target/` directories.
The last line of standard output is the run's JSON result.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(ROOT, "src", "main", "scala")
BUILD_INPUTS = [PROGRAM, os.path.join(ROOT, "jobs"), os.path.join(ROOT, "build.sbt"),
                os.path.join(ROOT, "project", "build.properties"), os.path.join(HERE, "src"),
                os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]

# The JPMS opens Spark needs on JVM 17, as in the program's own build.
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
         "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
         "java.base/sun.util.calendar"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def digest():
    h = hashlib.sha256()
    for top in BUILD_INPUTS:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the last build used the same sources."""
    if not os.path.isdir(PROGRAM):
        fail(f"no program sources at {os.path.relpath(PROGRAM, ROOT)}; run from the root of a checkout")
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    stamp = os.path.join(OUT, "build.stamp")
    cp_file = os.path.join(HERE, "target", "classpath.txt")
    want = digest()
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as f:
            if f.read() == want:
                with open(cp_file) as g:
                    return g.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "writeClasspath"]
    r = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       stdin=subprocess.DEVNULL, timeout=840)
    if r.returncode != 0 or not os.path.exists(cp_file):
        fail(f"build failed (sbt exit {r.returncode})")
    os.makedirs(OUT, exist_ok=True)
    with open(stamp, "w") as f:
        f.write(want)
    with open(cp_file) as g:
        return g.read().strip()


def java():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    return "java"


def main():
    args = sys.argv[1:]
    cp = build()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java(), "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC",
           *[f"--add-opens={p}=ALL-UNNAMED" for p in OPENS],
           f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.sparkLocalDir={os.path.join(OUT, 'spark-local')}",
           f"-Dperfbench.traceDir={os.path.join(OUT, 'trace')}",
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           "-cp", cp, "repro.perfbench.Main", *args]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, timeout=170)
    except subprocess.TimeoutExpired:
        fail("run exceeded 170 s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
