"""Build file of the benchmark: compiles the repository's main sources and the
benchmark's own sources with the Scala compiler that ships with Spark.

The classes go to `.bench_build/perfbench/<hash>` under the checkout root,
where `<hash>` covers every compiled source, this file and the jar list, so an
unchanged tree is not rebuilt. Run it from the checkout root:

    python3 perfbench/build.py          # builds and prints the class path
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = ".bench_build"
REPO_SOURCES = Path("src/main/scala")
BENCH_SOURCES = Path("perfbench/src")


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jar directory of the Spark distribution: $SPARK_HOME/jars, or the
    one next to `spark-submit` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(os.path.realpath(submit)).parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return Path(home) / "jars"


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no java found: set JAVA_HOME")
    return found


def sources(root: Path) -> list:
    out = []
    for base in (REPO_SOURCES, BENCH_SOURCES):
        if not (root / base).is_dir():
            raise BuildError(f"missing source directory {base}: run from the repository root")
        out += sorted(p for p in (root / base).rglob("*.scala") if p.is_file())
    return out


def build(root: Path) -> str:
    """Compiles if needed; returns the class path for running the benchmark."""
    jars = spark_jars()
    srcs = sources(root)
    h = hashlib.sha256()
    h.update(Path(__file__).read_bytes())
    for jar in sorted(p.name for p in jars.glob("*.jar")):
        h.update(jar.encode())
    for src in srcs:
        h.update(str(src.relative_to(root)).encode())
        h.update(src.read_bytes())
    out = root / BUILD_DIR / "perfbench" / h.hexdigest()[:16]
    classpath = f"{out}{os.pathsep}{jars}/*"
    if (out / "BUILD_OK").exists():
        return classpath

    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [java(), "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(s) for s in srcs]
    print(f"# building {len(srcs)} sources into {out.relative_to(root)}", file=sys.stderr)
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    if res.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac failed with exit code {res.returncode}")
    (tmp / "BUILD_OK").write_text("ok\n")
    # Keep only this build.
    for old in out.parent.iterdir():
        if old != tmp:
            shutil.rmtree(old, ignore_errors=True)
    tmp.rename(out)
    return classpath


if __name__ == "__main__":
    try:
        print(build(Path.cwd()))
    except BuildError as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        sys.exit(2)
