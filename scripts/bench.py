#!/usr/bin/env python3
"""Time the milnor CLI at scale, one fresh process per run, and write the
figures as JSON.

Usage: python3 scripts/bench.py [--out BENCH_1.json] [--root DIR]
       python3 scripts/bench.py --inputs DIR [--root DIR]

The inputs are built from fixed seeds by the checkout under test (``--root``,
by default the one holding this script) into a temporary directory; their
digests are recorded, so two files made from the same inputs say so.  The
build runs in a child (``--inputs DIR`` writes them and prints their facts
and ops as JSON): a forked child's peak RSS counts the anonymous pages of
the process that forked it, so the timing process holds no diagram and no
op's output, and the file records its own peak.  Each
op runs as ``python -m milnor.cli`` under a 2 GiB ``RLIMIT_AS`` set on the
child only, ``REPEATS`` times (``BIG_REPEATS`` for the n = 5 ops), one at a
time, in passes over all ops.  Per op the file records the minimum user +
system CPU and the minimum wall time, the peak RSS over the runs (all three
from ``wait4``), the exit code and the SHA-256 of standard output; a run
whose exit code or output differs from the first run's stops the script
with exit 1.  The tier-1 suite runs once, uncapped, and its wall and CPU
time are recorded with its summary line.  Nothing is written under
``src/`` or ``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
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


def _env(root: Path) -> dict:
    return dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
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

    ops = []
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


def measure(ops, root: Path) -> list:
    """Run the ops in passes, each op once per pass while it has repeats
    left, so that a slow spell of the machine costs one run of several ops
    rather than every run of one; one record per op."""
    runs = {op: [] for op, _, _ in ops}
    for k in range(1, max(repeats for *_, repeats in ops) + 1):
        for op, argv, repeats in ops:
            if k > repeats:
                continue
            rec = run_child([sys.executable, "-m", "milnor.cli", *argv], root, cap=True)
            print(f"{op}: run {k} of {repeats}, {rec['cpu_s']:.2f} s", file=sys.stderr, flush=True)
            first = (runs[op] or [rec])[0]
            if (rec["exit"], rec["stdout_sha256"]) != (first["exit"], first["stdout_sha256"]):
                raise SystemExit(f"{op}: run {k} differs from run 1 in exit code or output")
            runs[op].append(rec)
    return [_record(op, argv, runs[op]) for op, argv, _ in ops]


def _record(op, argv, runs) -> dict:
    first = runs[0]
    rec = {
        "op": op,
        "argv": [Path(a).stem if a.endswith(".json") else a for a in argv],
        "repeats": len(runs),
        "cpu_s_min": round(min(r["cpu_s"] for r in runs), 3),
        "wall_s_min": round(min(r["wall_s"] for r in runs), 3),
        "peak_rss_mb": round(max(r["rss_mb"] for r in runs), 1),
        "exit": first["exit"],
        "stdout_sha256": first["stdout_sha256"],
        "stdout_bytes": first["stdout_bytes"],
    }
    if first["exit"]:
        rec["stderr"] = first["stderr"]
    return rec


def tier1(root: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    print("tier-1 suite", file=sys.stderr, flush=True)
    rec = run_child(cmd, root, cap=False)
    return {"cmd": "python -m pytest -q", "repeats": 1, "wall_s": round(rec["wall_s"], 1),
            "cpu_s": round(rec["cpu_s"], 1), "exit": rec["exit"], "summary": rec["stdout_last"]}


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=here / "BENCH_1.json")
    ap.add_argument("--root", type=Path, default=here, help="the checkout under test")
    ap.add_argument("--inputs", type=Path, help="only write the inputs to this directory")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.inputs:
        sys.path.insert(0, str(root / "src"))
        import numpy

        facts, ops = build_inputs(args.inputs)
        print(json.dumps({"numpy": numpy.__version__, "inputs": facts, "ops": ops}))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--inputs", tmp, "--root", str(root)]
        built = json.loads(subprocess.run(cmd, env=_env(root), check=True,
                                          capture_output=True, text=True).stdout)
        records = measure(built["ops"], root)
    report = {
        "about": (
            "Each op is a fresh `python -m milnor.cli` process under a 2 GiB RLIMIT_AS on "
            "the child. cpu_s_min and wall_s_min are minima over `repeats` runs; peak_rss_mb "
            "is the maximum ru_maxrss over them; all from wait4. Every run of an op had the "
            "recorded exit code and stdout digest. Built by scripts/bench.py."
        ),
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": built["numpy"],
            "platform": platform.platform(),
        },
        "memory_cap_bytes": MEMORY_CAP,
        "inputs": built["inputs"],
        "ops": records,
        "tier1": tier1(root),
        # a forked op's peak counts the anonymous pages this process holds at
        # the fork, which is why it holds no diagram and no op's output
        "bench_process_peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
