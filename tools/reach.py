#!/usr/bin/env python3
"""Reached and judged, or listed, or gone: the reach gate over ``src/``.

Runs every judging command CI runs, at its CI size, with a
``sys.settrace`` probe in each Python process (call events only: the
global trace function returns ``None``, so no line is traced), then
checks each function defined under ``src/`` against the literal
allow-list in ``tests/reach_allow.py``::

    python tools/reach.py

Exit 1, naming each function, when one is unreached and unlisted, when
a listed one is now reached, or when a listed one no longer exists.
``__repr__``/``__str__`` and abstract declarations (a body of only a
docstring, ``...`` or ``raise NotImplementedError``) are exempt by rule.

The probe is ``sys.settrace``, not ``sys.setprofile``: the ledger
harness and the profiled bench gates install their own profile hook,
which would displace it.  It reaches child processes through a
``sitecustomize`` module put first on ``PYTHONPATH``; ``PYTHONHASHSEED``
is pinned so the ledger does not re-exec itself past the probe's dump.
"""

import ast
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOW_LIST = ROOT / "tests" / "reach_allow.py"
KINDS = ("cli", "oracle", "paper-arm", "tested-only")
JOBS = 3

#: Each driver is a chain of commands run in order (a campaign, then
#: its replay); ``{tmp}`` is the run's scratch directory.
DRIVERS = {
    "bench estate": [["-m", "pytest", "benchmarks", "-q", "--benchmark-disable", "-p", "no:cacheprovider"]],
    "ledger smoke": [["-m", "benchmarks.ledger", "smoke"]],
    "chaos campaign": [
        ["-m", "repro.check", "run", "--axis", "chaos", "--quick", "--cc", "all", "--out", "{tmp}/chaos.json"],
        ["-m", "repro.check", "replay", "{tmp}/chaos.json", "--cell", "0"],
    ],
    "isolation campaign": [
        ["-m", "repro.check", "run", "--axis", "isolation", "--quick", "--out", "{tmp}/isolation.json"],
        ["-m", "repro.check", "replay", "{tmp}/isolation.json", "--cell", "6"],
    ],
    "failure campaign": [
        ["-m", "repro.check", "run", "--axis", "failure", "--quick", "--out", "{tmp}/failure.json"],
        ["-m", "repro.check", "replay", "{tmp}/failure.json", "--cell", "0"],
        ["-m", "repro.check", "replay", "{tmp}/failure.json", "--cell", "29"],
    ],
    "tour": [["-m", "repro"]],
    "netstat": [["-m", "repro.netstat", "--spans", "--profile", "--hist"]],
    "obstool": [["tools/obstool.py", "--outdir", "{tmp}", "--pcap", "{tmp}/trunk.pcap", "--json", "{tmp}/netstat.json"]],
    **{
        f"example {path.stem}": [[f"examples/{path.name}"]]
        for path in sorted((ROOT / "examples").glob("*.py"))
    },
}

#: Installed in every Python process of a driver; at exit it writes
#: each code object under ``src/`` that was called as ``file:line``.
PROBE = '''\
import atexit, os, sys, threading

_codes = set()


def _call(frame, event, arg):
    _codes.add(frame.f_code)


sys.settrace(_call)
threading.settrace(_call)


@atexit.register
def _dump():
    sys.settrace(None)
    src = os.environ["REACH_SRC"]
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "a") as handle:
        for code in list(_codes):
            if code.co_filename.startswith(src):
                rel = os.path.relpath(code.co_filename, src)
                handle.write(f"{rel}:{code.co_firstlineno}\\n")
'''


def _is_abstract(node) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    (only,) = body
    if isinstance(only, ast.Expr) and isinstance(only.value, ast.Constant) and only.value.value is Ellipsis:
        return True
    if isinstance(only, ast.Raise) and only.exc is not None:
        exc = only.exc.func if isinstance(only.exc, ast.Call) else only.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def census() -> dict:
    """Every function defined under ``src/``: ``{"rel/path.py:line":
    ("module:qualname", exempt)}``, keyed the way the probe keys a
    code object (a decorated function starts at its first decorator)."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        module = ".".join(rel.with_suffix("").parts).removesuffix(".__init__")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    exempt = child.name in ("__repr__", "__str__") or _is_abstract(child)
                    found[f"{rel}:{first}"] = (f"{module}:{prefix}{child.name}", exempt)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def load_allow_list() -> dict:
    namespace = {}
    exec(compile(ALLOW_LIST.read_text(), str(ALLOW_LIST), "exec"), namespace)
    return namespace["ALLOWED"]


def _run_driver(name, chain, env, tmp) -> tuple:
    started = time.perf_counter()
    for command in chain:
        argv = [sys.executable, *(arg.format(tmp=tmp) for arg in command)]
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode:
            tail = done.stdout.decode(errors="replace").strip().splitlines()[-3:]
            return name, time.perf_counter() - started, f"{done.returncode}: " + " | ".join(tail)
    return name, time.perf_counter() - started, None


def reached() -> set:
    """Run every driver under the probe; returns the reached keys.

    A failing driver is reported, not judged here: its CI step judges
    it, and under the probe a wall-clock budget (the ledger smoke's)
    can trip.  What it did not reach shows up as unreached."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        probe_dir = Path(tmp) / "probe"
        out = Path(tmp) / "out"
        probe_dir.mkdir()
        out.mkdir()
        (probe_dir / "sitecustomize.py").write_text(PROBE)
        path = [str(probe_dir), str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(p for p in path if p),
            PYTHONHASHSEED="0",
            REACH_OUT=str(out),
            REACH_SRC=str(SRC) + os.sep,
        )
        with ThreadPoolExecutor(JOBS) as pool:
            runs = [pool.submit(_run_driver, name, chain, env, tmp) for name, chain in DRIVERS.items()]
            for run in runs:
                name, seconds, problem = run.result()
                print(f"  {name:<32} {seconds:6.1f} s" + (f"  (exit {problem})" if problem else ""), flush=True)
        keys = set()
        for dump in out.iterdir():
            keys.update(dump.read_text().splitlines())
    return keys


def judge(functions: dict, keys: set, allowed: dict) -> list:
    """Every violation, one line each.  A function defined inside a
    listed one is covered by its entry."""
    unreached, defined = set(), set()
    for key, (name, exempt) in functions.items():
        defined.add(name)
        if key not in keys and not exempt:
            unreached.add(name)

    def listed(name):
        outer = name
        while outer not in allowed and ".<locals>." in outer:
            outer = outer.rsplit(".<locals>.", 1)[0]
        return outer in allowed

    problems = [f"unreached and unlisted: {name}" for name in sorted(unreached) if not listed(name)]
    problems += [f"listed but reached (drop its entry): {name}" for name in sorted(allowed)
                 if name in defined and name not in unreached]
    problems += [f"listed but not defined under src/: {name}" for name in sorted(set(allowed) - defined)]
    problems += [f"listed with unknown kind {kind!r}: {name}" for name, (kind, _) in sorted(allowed.items())
                 if kind not in KINDS]
    return problems


def main() -> int:
    started = time.perf_counter()
    functions = census()
    allowed = load_allow_list()
    keys = reached()
    problems = judge(functions, keys, allowed)
    hit = sum(key in keys for key in functions)
    exempt = sum(ex for _, ex in functions.values())
    print(
        f"reach: {len(functions)} functions, {hit} reached, {exempt} exempt, "
        f"{len(allowed)} listed; {len(problems)} problems in {time.perf_counter() - started:.0f} s"
    )
    for problem in problems:
        print(f"REACH: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
