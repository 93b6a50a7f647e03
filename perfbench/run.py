#!/usr/bin/env python3
"""The milnor benchmark: drive the ``milnor`` CLI on seeded workloads.

Usage:
  python3 perfbench/run.py --workload {selfdelta,homotopy} --seed N
                           [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload {W,all} --seed N [--repeat K] [--seconds S]

One benchmark process runs one ``python -m milnor.cli`` child at a time (a
closed loop with one client).  Each child has its address space capped with
RLIMIT_AS and is timed with ``wait4``.  Inputs come from ``inputs.py`` and
every op's output is checked (``checks.py``).  A run makes a fixed number
of passes over the workload's ops, as many as fit in ``--seconds`` on a
reference machine (``pass_count``), and reports each op's minimum over
them; the timed input builds behind ``setup_s`` are spread between the
passes.  With ``--trace 1`` it runs one pass with each op run twice, plain
and under ``traced_child.py``, and reports the per-layer metrics of
``layers.py``.  ``--workload all`` runs every workload, and ``--repeat K``
runs K seeds from ``--seed``; both report each metric's median and
quartile spread.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402
from layers import layer_metrics  # noqa: E402

WORKLOADS = ("selfdelta", "homotopy")
E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_METRICS = {**LAYER_METRICS, "trace.overhead_s": "s"}
MEMORY_CAP = 2 << 30  # bytes of address space per child
SETUP_REPEATS = 5
# nominal wall times on a 2-vCPU VM of the set-up builds and of one pass of
# each workload; the pass count follows from --seconds alone, so every op's
# minimum is over the same number of samples however fast the code under
# test is, and a run with its set-up takes about --seconds
SETUP_NOMINAL_S = 7.0
PASS_S = {"selfdelta": 4.8, "homotopy": 7.0}
MIN_PASSES = 3
OP_TIMEOUT_S = 150
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    PYTHONHASHSEED="0",
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


def _limits(cpu):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
    return apply


def run_child(cmd, out_path: Path, err_path: Path, cap: bool = True, cpu=None) -> dict:
    """Run one child to completion, pinned to ``cpu`` if given; wall, cpu
    (user+sys) and maxrss."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=ENV, stdout=out, stderr=err,
            preexec_fn=_limits(cpu) if cap else None,
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "rc": proc.returncode,
    }


def run_op(op, work: Path, spans: Path | None = None, cpu=None) -> dict:
    """Run one op, plain or traced, and check its output."""
    if spans is None:
        cmd = [sys.executable, "-m", "milnor.cli", *op["argv"]]
    else:
        cmd = [sys.executable, str(HERE / "traced_child.py"), str(spans), op["id"], *op["argv"]]
    out_path, err_path = work / f"{op['id']}.out", work / f"{op['id']}.err"
    rec = run_child(cmd, out_path, err_path, cpu=cpu)
    rec["op"] = op["id"]
    if rec["rc"] != 0:
        stderr = err_path.read_text(errors="replace")
        if "MemoryError" in stderr:
            rec["failure"] = "memory cap"
        elif rec["rc"] < 0:
            rec["failure"] = f"signal {-rec['rc']}"
        else:
            rec["failure"] = f"exit {rec['rc']}: {stderr.strip().splitlines()[-1:]}"
    else:
        problems = check(op["expect"], out_path.read_text())
        if problems:
            rec["failure"] = "mismatch: " + "; ".join(problems)
    rec["ok"] = "failure" not in rec
    out_path.unlink()
    err_path.unlink()
    return rec


def build_inputs(args, work: Path, i: int) -> float:
    """Build the inputs into work/inputs<i>; the build's wall time."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(work / f"inputs{i}")]
    rec = run_child(cmd, work / "setup.out", work / "setup.err", cap=False)
    if rec["rc"] != 0:
        sys.stderr.write((work / "setup.err").read_text())
        raise SystemExit(f"input generation failed with exit {rec['rc']}")
    return rec["wall"]


def setup(args, work: Path):
    """Build the inputs once; the build's wall time and the ops of a pass."""
    wall = build_inputs(args, work, 0)
    return wall, json.loads((work / "inputs0" / "manifest.json").read_text())["ops"]


def _log(rec, op, label=""):
    props = " ".join(f"{k}={v}" for k, v in op["props"].items())
    argv = " ".join(Path(a).stem if a.endswith(".json") else a for a in op["argv"])
    status = "ok" if rec["ok"] else f"FAILED ({rec['failure']})"
    print(
        f"  {rec['op']:<14}{label:<8} wall {rec['wall']:8.3f} s  cpu {rec['cpu']:8.3f} s  "
        f"rss {rec['rss_mb']:7.1f} MB  {props}  {argv}  {status}",
        file=sys.stderr,
    )


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes that fit in --seconds, less the set-up, at PASS_S each."""
    return max(MIN_PASSES, round((seconds - SETUP_NOMINAL_S) / PASS_S[workload]))


def measure(ops, work: Path, passes: int, deadline: float, rebuild):
    """Run every op once per pass, in the manifest's order.

    Pass i pins its children to the i-th CPU in turn.  On a shared virtual
    machine each virtual CPU has slow spells of its own, so the minimum
    over samples taken on every CPU is steadier than over samples taken
    wherever the scheduler put them.  For the same reason ``rebuild``, the
    timed rebuild of the inputs, runs after every few passes rather than
    all at the start.  No pass starts that would, at the pace of the last
    one, end past the deadline, so that a run on a much slower machine or
    program still ends in time; on a 2-vCPU virtual machine only its
    slowest spells cut a run short.
    """
    cpus = sorted(os.sched_getaffinity(0))
    every = max(1, passes // SETUP_REPEATS)
    out, last = [], 0.0
    for i in range(passes):
        start = time.perf_counter()
        if len(out) >= MIN_PASSES and start + last > deadline:
            break
        recs = []
        for op in ops:
            recs.append(run_op(op, work, cpu=cpus[i % len(cpus)]))
            _log(recs[-1], op)
        out.append(recs)
        last = time.perf_counter() - start
        if (i + 1) % every == 0:
            rebuild()
    return out


def e2e_metrics(setup_s, passes):
    """Each op's wall and cpu are its minima over the passes it succeeded in;
    interference from other tenants only ever slows an op down."""
    by_op = {}
    for recs in passes:
        for r in recs:
            if r["ok"]:
                by_op.setdefault(r["op"], []).append(r)
    walls = [min(r["wall"] for r in rs) for rs in by_op.values()]
    return {
        "setup_s": setup_s,
        "wall_s": sum(walls),
        "cpu_s": sum(min(r["cpu"] for r in rs) for rs in by_op.values()),
        "op_wall_s.p50": statistics.median(walls) if walls else 0.0,
        "peak_rss_mb": max((r["rss_mb"] for rs in by_op.values() for r in rs), default=0.0),
    }


def traced_pass(ops, work: Path):
    """Each op plain, then traced; per-layer metrics of the traced runs."""
    plain, traced = [], []
    for op in ops:
        plain.append(run_op(op, work))
        _log(plain[-1], op, "plain")
        traced.append(run_op(op, work, work / f"{op['id']}.spans.json"))
        _log(traced[-1], op, "traced")
    both = [(p, t) for p, t in zip(plain, traced) if p["ok"] and t["ok"]]
    # load one op's spans at a time: this process's size at fork time counts
    # in each later child's maxrss
    metrics = layer_metrics(
        json.loads((work / f"{p['op']}.spans.json").read_text()) for p, _ in both
    )
    metrics["trace.overhead_s"] = sum(t["wall"] for _, t in both) - sum(p["wall"] for p, _ in both)
    return plain + traced, metrics


def run(args) -> dict:
    deadline = time.perf_counter() + args.seconds
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        build_s, ops = setup(args, work)
        print(f"{args.workload}: {len(ops)} ops per pass, seed {args.seed}", file=sys.stderr)
        if args.trace:
            recs, metrics = traced_pass(ops, work)
            units = PER_LAYER_METRICS
        else:
            builds = [build_s]

            def rebuild():
                if len(builds) < SETUP_REPEATS:
                    builds.append(build_inputs(args, work, len(builds)))

            passes = measure(ops, work, pass_count(args.workload, args.seconds), deadline, rebuild)
            recs = [r for p in passes for r in p]
            metrics = e2e_metrics(statistics.median(builds), passes)
            units = E2E_METRICS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in recs if not r["ok"]]
    for name, unit in units.items():
        print(f"{name:<28} {metrics[name]:>16.6f} {unit}")
    if not args.trace:
        # printed, not reported: in ten-seed runs of an earlier pass design
        # its quartile spread was 0.25-0.38 of its median, wider than any
        # usable regression bound
        print(f"{'op_wall_s.p50':<28} {metrics['op_wall_s.p50']:>16.6f} s")
    print(f"{'failed_frac':<28} {len(failed) / len(recs):>16.6f} ({len(failed)}/{len(recs)} ops)")
    return {
        # no op of a workload is expected to fail: a crash, a timeout or a
        # hit on the memory cap fails the run as a wrong output does
        "correct": not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def series(args, workloads) -> dict:
    """Run each workload for --repeat seeds (one if unset), each run a child
    of its own; per metric, the median and the quartile spread."""
    spec = ROOT / "BENCHMARK.json"
    bounds = {}
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    summary, correct, attempted, failed = {}, True, 0, 0
    for workload in workloads:
        values, units = {}, {}
        for seed in range(args.seed, args.seed + max(args.repeat, 1)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s  "
                  + "  ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None or len(vals) == 1 else (
                "ok" if spread <= bound / 3 else "within bound" if spread <= bound else "OVER")
            print(f"{workload:<10} {name:<28} median {med:14.6f} {units[name]:<8} "
                  f"q1 {q1:14.6f}  q3 {q3:14.6f}  spread {spread:7.4f}  bound {bound}  {verdict}")
            summary[f"{workload}/{name}"] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[name],
            }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="run this many seeds from --seed")
    args = ap.parse_args(argv)
    # a terminated run still stops its child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [p for p in ("src/milnor/cli.py", "scripts/generate_corpus.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a milnor checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all" or args.repeat:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        result = series(args, workloads)
    else:
        result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
