#!/usr/bin/env python3
"""Build and run SimMR's end-to-end replay benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

The Go harness in this directory is built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build), with the Go build
cache kept there too, and then run with the same arguments. Its last
output line is the JSON result. Every file the benchmark writes stays
under the build directory.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(build):
    env = dict(os.environ)
    home = os.path.join(build, "home")
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
    )
    return env


def find_go():
    go = shutil.which("go")
    if go:
        return go
    goroot = os.environ.get("GOROOT", "")
    cand = os.path.join(goroot, "bin", "go")
    return cand if goroot and os.path.exists(cand) else None


def source_id():
    """The commit when ROOT is a git checkout, else a digest of the Go
    sources and module files, so runs of one tree share an id."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    skip = {os.path.basename(build_dir()), ".git"}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def flag(args, name, default):
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return default


def main(args):
    go = find_go()
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    build = build_dir()
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    r = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=go_env(build))
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    extra = ["--dir", os.path.join(build, "data"), "--commit", source_id()]
    if flag(args, "--trace", "0") == "1":
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.jsonl" % (flag(args, "--workload", "x"), flag(args, "--seed", "1"))
        extra += ["--spans", os.path.join(spans, name)]
    return subprocess.run([binary] + args + extra, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
