"""Build step of the benchmark: compiles the repo's main sources together with
the harness under nnbench/src into one class directory, with the Scala
compiler that ships in the Spark distribution. A build is reused while no
source file, compiler or flag changes.

    python3 nnbench/build.py        # prints the class directory
"""
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build", "nnbench")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH_DIR, "src")]
SCALAC_FLAGS = ["-release", "17", "-nowarn"]


class BuildError(Exception):
    pass


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return home


def spark_classpath():
    return os.path.join(spark_home(), "jars", "*")


def sources():
    found = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError(f"source directory missing: {os.path.relpath(d, ROOT)}")
        for base, _, files in os.walk(d):
            found += [os.path.join(base, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def fingerprint(files):
    h = hashlib.sha256()
    for part in SCALAC_FLAGS + [spark_home()] + sorted(os.listdir(os.path.join(spark_home(), "jars"))):
        h.update(part.encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile if needed; return the class directory."""
    files = sources()
    stamp = fingerprint(files)
    classes = os.path.join(OUT_DIR, "classes")
    stamp_file = os.path.join(OUT_DIR, "classes.stamp")
    if os.path.isdir(classes) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                return classes
    fresh = classes + ".tmp"
    shutil.rmtree(fresh, ignore_errors=True)
    os.makedirs(fresh)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", spark_classpath(), "scala.tools.nsc.Main",
           "-d", fresh, "-classpath", spark_classpath()] + SCALAC_FLAGS + files
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BuildError("scalac failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.replace(fresh, classes)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
