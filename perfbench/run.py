"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the program from source (see
build.py), then runs `repro.perfbench.Main` in one JVM. The last line of
stdout is the result object; lines before it starting with `#` are the
report. Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments or
no sources to build, 3 the run timed out, 4 the run produced no result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

# Per-run wall-time limit once the build is done: three times `--seconds`
# (a traced run times twice as many passes) plus this margin for the JVM start,
# set-up, the fixed-size streaming query and the reference runs.
RUN_MARGIN_S = 135

JVM_OPTS = [
    "-Xms2g", "-Xmx2g", "-Xss8m", "-XX:-UsePerfData",
    f"-Dlog4j2.configurationFile={Path(__file__).resolve().parent / 'log4j2.properties'}",
    # Spark's own JDK 17 options, as its launcher sets them.
    "-Dio.netty.tryReflectionSetAccessible=true",
    "-Djdk.reflect.useDirectMethodHandle=false",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--holdout-seed", type=int,
                    help="seed kept out of tuning, for validating claims; only reported")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    try:
        classpath = build.build(root)
        javabin = build.java()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.holdout_seed is not None:
        print(f"# held-out seed for claim validation: {args.holdout_seed}")

    work = root / build.BUILD_DIR / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [javabin] + JVM_OPTS + [f"-Djava.io.tmpdir={work / 'tmp'}", "-cp", classpath,
                                  "repro.perfbench.Main", "--workload", args.workload,
                                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", args.trace, "--work-dir", str(work / "spark")]
    # On SIGTERM, unwind through the `finally` below so the JVM is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    timeout = 3 * args.seconds + RUN_MARGIN_S
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:g} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, TypeError):
        ok = False
    if proc.returncode == 2 or not ok:
        sys.stdout.write("\n".join(l for l in lines if l.startswith("#")) + "\n")
        print(f"perfbench: no result (exit code {proc.returncode})", file=sys.stderr)
        return 2 if proc.returncode == 2 else 4
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
