#!/usr/bin/env python3
"""Time the milnor CLI at scale, one fresh process per run, and write the
figures as JSON.

Usage: python3 scripts/bench.py [--ops NAME[,NAME...]] [--out FILE] [--root DIR]
       python3 scripts/bench.py --against DIR [--ops NAME[,NAME...]] [--out FILE] [--root DIR]
       python3 scripts/bench.py --inputs DIR [--root DIR]

The inputs are built from fixed seeds by the checkout under test (``--root``,
by default the one holding this script) into a temporary directory; their
digests are recorded, so two files made from the same inputs say so.  The
build runs in a child (``--inputs DIR`` writes them and prints their facts
and ops as JSON), whose wall and CPU time the file records as
``inputs_build``: a forked child's peak RSS counts the anonymous pages of
the process that forked it, so the timing process holds no diagram and no
op's output, and the file records its own peak.  Each
op runs as ``python -m milnor.cli`` under a 2 GiB ``RLIMIT_AS`` set on the
child only, ``REPEATS`` times (``BIG_REPEATS`` for the n = 5 ops), one at a
time, in passes over all ops.  The first op, ``cli --help``, does no work:
it is the process floor, the start-up and exit that every op pays.  Per op
the file records the minimum user + system CPU and the minimum wall time,
the peak RSS over the runs (all three from ``wait4``), the exit code and
the SHA-256 of standard output; a run whose exit code or output differs
from the first run's stops the script with exit 1.  The tier-1 suite runs
once, uncapped, and its wall and CPU time are recorded with its summary
line.  Every child runs with
``PYTHONDONTWRITEBYTECODE=1``, so nothing is written under ``src/`` or
``perfbench/``.  A peak RSS moves with the directory the package is
imported from, so the file records the length of the package directory's
path: files made from paths of one length compare.  Without ``--out`` the
file is the first ``BENCH_<k>.json`` at the root of this script's checkout
that does not exist yet, so a re-run never overwrites an earlier one.

``--against DIR`` pairs the checkout under test, the change, with the one
in DIR, its parent.  Both ``src/`` trees are copied to ``change/src`` and
``parent/src`` under one temporary directory, so the two package paths have
one length, and the inputs are built by the change.  Each op runs from both
sides in as many rounds as it has repeats, the side that goes first
alternating from round to round.  Per op and side the file records the
minimum and median CPU and the peak RSS, and per op the rounds the change
took less CPU than its parent (``change_won``) and which side went first in
each round.  A run whose exit code or output differs
from the change's first run, on either side, stops the script with exit 1.
The tier-1 suite does not run.

``--ops`` runs only the named ops, in either mode, such as
``--ops "self-delta gen-n4-m8,homotopy product-n8"``; a name that is not an
op is a usage error that lists the ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MEMORY_CAP = 2 << 30  # bytes of address space per op
REPEATS = 5
BIG_REPEATS = 2  # the n = 5 ops, up to about 13 s of CPU each
# link-homotopy products: nonzero exponents per arity 2..n, each +1 or -1
PRODUCT_SHAPES = {6: (2, 2, 2, 2, 1), 7: (2, 2, 2, 2, 2, 1), 8: (2, 2, 2, 2, 2, 2, 1)}
PRODUCT_SEED = 31
SIDES = ("change", "parent")  # names of one length, so the copies' paths are too
ABOUT = (
    "Each op is a fresh `python -m milnor.cli` process under a 2 GiB RLIMIT_AS on "
    "the child. cpu_s_min and wall_s_min are minima over `repeats` runs; peak_rss_mb "
    "is the maximum ru_maxrss over them; all from wait4. Every run of an op had the "
    "recorded exit code and stdout digest. Built by scripts/bench.py."
)
PAIRED_ABOUT = (
    "Each op is a fresh `python -m milnor.cli` process under a 2 GiB RLIMIT_AS on "
    "the child, run from copies of the change's and its parent's src/ trees at paths of "
    "one length, for `rounds` rounds, the side named in `first` going first. Per side, "
    "cpu_s_min and cpu_s_median are over the rounds and peak_rss_mb is the maximum "
    "ru_maxrss, all from wait4; change_won counts the rounds in which the change took "
    "less CPU. Every run of both sides had the recorded exit code and stdout digest. "
    "Built by scripts/bench.py --against."
)


def _env(root: Path) -> dict:
    # every child compiles the package from source and writes no bytecode,
    # whatever the caller's shell sets
    return dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_child(cmd, root: Path, cap: bool) -> dict:
    """One child to completion: wall, cpu (user + sys) and maxrss from
    ``wait4``, its exit code, stdout's size, digest and last line, and
    stderr's last line.  Stdout is hashed in pieces, never held whole."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=out, stderr=err,
                                preexec_fn=_cap if cap else None)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        digest, size, tail = hashlib.sha256(), 0, b""
        out.seek(0)
        for piece in iter(lambda: out.read(1 << 20), b""):
            digest.update(piece)
            size, tail = size + len(piece), (tail + piece)[-4096:]
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "stdout_sha256": digest.hexdigest(),
        "stdout_bytes": size,
        "stdout_last": (tail.decode(errors="replace").strip().splitlines() or [""])[-1],
        "stderr": (stderr.strip().splitlines() or [""])[-1],
    }


def build_inputs(work: Path) -> tuple[dict, list]:
    """Write the inputs; their facts by name, and the ops as [id, argv,
    repeats]."""
    from milnor.classify import HomotopyNormalForm, milnor_link, surjection_generator
    from milnor.diagram import closure, reduced
    from milnor.multiindex import all_injections, selfdelta_generator_indices
    from milnor.pdfile import to_pd_json

    work.mkdir(parents=True, exist_ok=True)
    links = {f"milnor-link-{n}": milnor_link(n) for n in (4, 5)}
    for n, ms in ((4, (5, 6, 7, 8)), (5, (6, 10))):
        for m in ms:
            tau = selfdelta_generator_indices(n, m)[0]
            links[f"gen-n{n}-m{m}"] = closure(surjection_generator(tau))
    rng = random.Random(PRODUCT_SEED)
    for n, shape in PRODUCT_SHAPES.items():
        exponents = {pi: 0 for pi in all_injections(n)}
        for k, count in zip(range(2, n + 1), shape):
            for pi in rng.sample([pi for pi in exponents if pi.k == k], count):
                exponents[pi] = rng.choice((-1, 1))
        links[f"product-n{n}"] = HomotopyNormalForm(n, exponents).realize()
    facts = {}
    for name, d in links.items():
        d.name = name
        text = json.dumps(to_pd_json(d), sort_keys=True) + "\n"
        (work / f"{name}.json").write_text(text, encoding="utf-8")
        facts[name] = {
            "components": d.n,
            "crossings": d.crossing_count,
            "reduced_crossings": reduced(d).crossing_count,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }

    def path(name):
        return str(work / f"{name}.json")

    ops = [("cli --help", ["--help"], False)]
    for name in links:
        if name.startswith(("milnor-link", "gen")):
            big = facts[name]["components"] == 5
            ops.append((f"self-delta {name}", ["classify", "--self-delta", path(name)], big))
    for n in (4, 5):
        argv = ["invariants", path(f"milnor-link-{n}"), "--max-length", str(2 * n), "--max-r", "2"]
        ops.append((f"invariants milnor-link-{n}", argv, n == 5))
    for n in PRODUCT_SHAPES:
        argv = ["classify", "--homotopy", path(f"product-n{n}")]
        ops.append((f"homotopy product-n{n}", argv, False))
    return facts, [(op, argv, BIG_REPEATS if big else REPEATS) for op, argv, big in ops]


def build_in_child(work: Path, root: Path) -> dict:
    """Build the inputs into ``work`` in a child (``--inputs``); what it
    prints, plus its wall and CPU (user + sys) time as ``inputs_build``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--inputs", str(work), "--root", str(root)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(root), check=True, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    built = json.loads(proc.stdout)
    built["inputs_build"] = {"wall_s": round(wall, 3), "cpu_s": round(cpu, 3)}
    return built


def measure(ops, sides: dict) -> list:
    """Run the ops from each side's checkout in passes, one round of each op
    per pass while it has repeats left, so that a slow spell of the machine
    costs one round of several ops rather than every round of one.  With two
    sides the side that goes first alternates between rounds.  One record
    per op: ``_record``'s for one side, ``_pair_record``'s for two."""
    names = list(sides)
    runs = {op: {side: [] for side in names} for op, _, _ in ops}
    first = {op: [] for op, _, _ in ops}
    for k in range(1, max(repeats for *_, repeats in ops) + 1):
        for op, argv, repeats in ops:
            if k > repeats:
                continue
            order = names if k % 2 else names[::-1]
            first[op].append(order[0])
            for side in order:
                cmd = [sys.executable, "-m", "milnor.cli", *argv]
                rec = run_child(cmd, sides[side], cap=True)
                print(f"{op}: {side}, round {k} of {repeats}, {rec['cpu_s']:.2f} s",
                      file=sys.stderr, flush=True)
                ref = (runs[op]["change"] or [rec])[0]
                if (rec["exit"], rec["stdout_sha256"]) != (ref["exit"], ref["stdout_sha256"]):
                    raise SystemExit(f"{op}: the {side} side's round {k} differs from the "
                                     "change's first run in exit code or output")
                runs[op][side].append(rec)
    if len(names) == 1:
        return [_record(op, argv, runs[op]["change"]) for op, argv, _ in ops]
    return [_pair_record(op, argv, runs[op], first[op]) for op, argv, _ in ops]


def _record(op, argv, runs) -> dict:
    rec = {
        "op": op,
        "argv": _argv(argv),
        "repeats": len(runs),
        "cpu_s_min": round(min(r["cpu_s"] for r in runs), 3),
        "wall_s_min": round(min(r["wall_s"] for r in runs), 3),
        "peak_rss_mb": round(max(r["rss_mb"] for r in runs), 1),
    }
    return rec | _outcome(runs[0])


def _argv(argv) -> list:
    """An op's arguments with each input file named by its stem."""
    return [Path(a).stem if a.endswith(".json") else a for a in argv]


def _outcome(first) -> dict:
    """The exit code and stdout of an op's first run, and its stderr's last
    line when it failed."""
    out = {key: first[key] for key in ("exit", "stdout_sha256", "stdout_bytes")}
    if first["exit"]:
        out["stderr"] = first["stderr"]
    return out


def copy_sides(tmp: Path, change: Path, parent: Path) -> dict:
    """Each side's ``src/`` tree, without bytecode, copied to
    ``tmp/<side>/src``; the checkout each side runs from, by side."""
    sides = dict(zip(SIDES, (tmp / side for side in SIDES)))
    for side, root in zip(SIDES, (change, parent)):
        shutil.copytree(root / "src", sides[side] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return sides


def _pair_record(op, argv, runs, first) -> dict:
    rec = {"op": op, "argv": _argv(argv), "rounds": len(first), "first": first}
    for side in SIDES:
        cpu = [r["cpu_s"] for r in runs[side]]
        rec[side] = {
            "cpu_s_min": round(min(cpu), 3),
            "cpu_s_median": round(statistics.median(cpu), 3),
            "peak_rss_mb": round(max(r["rss_mb"] for r in runs[side]), 1),
        }
    pairs = zip(runs["change"], runs["parent"])
    rec["change_won"] = sum(a["cpu_s"] < b["cpu_s"] for a, b in pairs)
    return rec | _outcome(runs["change"][0])


def tier1(root: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    print("tier-1 suite", file=sys.stderr, flush=True)
    rec = run_child(cmd, root, cap=False)
    return {"cmd": "python -m pytest -q", "repeats": 1, "wall_s": round(rec["wall_s"], 1),
            "cpu_s": round(rec["cpu_s"], 1), "exit": rec["exit"], "summary": rec["stdout_last"]}


def next_out(directory: Path) -> Path:
    """The first ``BENCH_<k>.json`` in ``directory``, k = 1, 2, ..., that does
    not exist."""
    k = 1
    while (directory / f"BENCH_{k}.json").exists():
        k += 1
    return directory / f"BENCH_{k}.json"


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=next_out(here))
    ap.add_argument("--root", type=Path, default=here, help="the checkout under test")
    ap.add_argument("--inputs", type=Path, help="only write the inputs to this directory")
    ap.add_argument("--against", type=Path, help="the parent checkout to pair the runs with")
    ap.add_argument("--ops", type=lambda text: [name.strip() for name in text.split(",")],
                    help="run only these ops, named as in the file and separated by commas")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.inputs:
        sys.path.insert(0, str(root / "src"))
        import numpy

        facts, ops = build_inputs(args.inputs)
        print(json.dumps({"numpy": numpy.__version__, "inputs": facts, "ops": ops}))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        built = build_in_child(tmp / "inputs", root)
        if args.ops:
            known = [op for op, _, _ in built["ops"]]
            unknown = [name for name in args.ops if name not in known]
            if unknown:
                ap.error(f"unknown op(s) {', '.join(map(repr, unknown))}; "
                         f"the ops are: {', '.join(map(repr, known))}")
            built["ops"] = [op for op in built["ops"] if op[0] in args.ops]
        sides = copy_sides(tmp, root, args.against.resolve()) if args.against else {"change": root}
        package = sides["change"] / "src" / "milnor"
        records = measure(built["ops"], sides)
    report = {
        "about": PAIRED_ABOUT if args.against else ABOUT,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": built["numpy"],
            "platform": platform.platform(),
        },
        "memory_cap_bytes": MEMORY_CAP,
        # peaks move with the package's path; its length, not the path, is
        # kept, so the file names no directory of the machine that made it
        "package_dir_chars": len(str(package)),
        "inputs": built["inputs"],
        "inputs_build": built["inputs_build"],
        "ops": records,
    }
    if not args.against:
        report["tier1"] = tier1(root)
    # a forked op's peak counts the anonymous pages this process holds at
    # the fork, which is why it holds no diagram and no op's output
    report["bench_process_peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
