#!/usr/bin/env python3
"""Run one vosbench workload and print its result as the last line.

    python3 vosbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 vosbench/run.py --selftest

Builds the program and the harness from source with sbt the first time
(and again whenever a source file changes), then runs the workload in a
fresh JVM whose heap and collector are fixed here, so neither sbt's
start-up nor its JVM settings reach any metric. Workloads: see README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
BUILD_INFO = os.path.join(BENCH, "target", "vosbench-classpath.json")

# The JVM every run gets: a fixed, pre-sized heap and the parallel
# collector, whatever the machine's defaults.
JVM_HEAP = "4g"
JVM_OPTS = [
    f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
    "-Dspark.ui.enabled=false",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# On a shared host the CPUs of one machine can run the same code at very
# different speeds (one busy with a neighbour's work, another idle), and a
# single busy thread tends to stay on one CPU for a whole run. So a run's
# speed would depend on where its thread landed. Every KICK_PERIOD_S the
# JVM's threads are barred, briefly and in turn, from one CPU; a thread on
# it moves, so over a run each thread's time spreads across all CPUs.
KICK_PERIOD_S = 0.25
KICK_HOLD_S = 0.01


def log(msg):
    print(f"[vosbench] {msg}", file=sys.stderr, flush=True)


def source_files():
    """Every file the build reads: the program's and the harness's."""
    files = []
    for top in ("build.sbt", "project", "src/main", "vosbench/build.sbt",
                "vosbench/project", "vosbench/src"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for d, dirs, names in os.walk(path):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def classpath():
    """The runtime classpath, building first if any source changed."""
    for need in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"vosbench: the program's sources are missing ({need} not found)")
    current = stamp()
    if os.path.exists(BUILD_INFO):
        with open(BUILD_INFO) as fh:
            info = json.load(fh)
        if info.get("stamp") == current:
            return info["classpath"]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Dsbt.server.autostart=false", "-Xmx2g"]
        repos = os.path.join(os.path.expanduser("~"), ".sbt", "repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    log("building with sbt")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("vosbench: build failed")
    cp = lines[-1].strip()
    os.makedirs(os.path.dirname(BUILD_INFO), exist_ok=True)
    with open(BUILD_INFO, "w") as fh:
        json.dump({"stamp": current, "classpath": cp}, fh)
    return cp


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else None
    return exe if exe and os.path.exists(exe) else "java"


def set_affinity(pid, cpus):
    """Set the CPU affinity of every thread of process `pid`."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:
            pass  # the thread has ended


def spread_over_cpus(pid, stop):
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while len(cpus) > 1 and not stop.wait(KICK_PERIOD_S):
        set_affinity(pid, set(cpus) - {cpus[turn % len(cpus)]})
        turn += 1
        stop.wait(KICK_HOLD_S)
        set_affinity(pid, set(cpus))


def run_jvm(cp, main_args):
    """Run vosbench.Main; return (exit code, stdout lines)."""
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java()] + JVM_OPTS + [f"-Djava.io.tmpdir={tmp}", "-cp", cp, "vosbench.Main",
                                 "--tmp", tmp, "--out", OUT] + main_args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    stop = threading.Event()
    kicker = threading.Thread(target=spread_over_cpus, args=(proc.pid, stop), daemon=True)
    kicker.start()
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        stop.set()
        kicker.join()
        shutil.rmtree(tmp, ignore_errors=True)
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    cp = classpath()
    if a.selftest:
        code, lines = run_jvm(cp, ["--selftest", "1"])
        print("\n".join(lines))
        sys.exit(code)
    code, lines = run_jvm(cp, ["--workload", a.workload, "--seed", str(a.seed),
                               "--seconds", str(a.seconds), "--trace", str(a.trace)])
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if code != 0 or not lines:
        sys.exit(f"vosbench: run failed with exit code {code}")
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
