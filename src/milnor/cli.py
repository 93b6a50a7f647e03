"""Command-line front end.

Commands: ``invariants`` (tables per input diagram), ``classify``
(link-homotopy or self-delta reports), ``generate`` (generator diagrams),
``cable`` (zero-framed parallels).  Exit codes: 0 success, 1 usage,
2 parse or validation failure, 3 hypothesis not met in strict mode, 4 out
of memory (a ``MemoryError``, or numpy failing to load), 141 when the
reader closes standard output early (as for a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import classify, invariants
from .diagram import Diagram, DiagramError, cable, cable_map
from .multiindex import Injection, Surjection
from .pdfile import load_diagram, to_pd_json


def _read(path: str) -> Diagram:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DiagramError(f"{path}: {exc}") from None
    try:
        d = load_diagram(text)
    except (DiagramError, json.JSONDecodeError) as exc:
        raise DiagramError(f"{path}: {exc}") from None
    if not d.name:
        d.name = Path(path).stem
    return d


def _emit(data, fmt, text_renderer=None):
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(text_renderer(data) if text_renderer else data)


def cmd_invariants(files: list[str], max_length: int, max_r: int, fmt: str) -> int:
    diagrams = [_read(p) for p in files]
    tables = [invariants.table(d, max_length, max_r) for d in diagrams]
    if fmt == "json":
        _emit([t.to_json() for t in tables], "json")
    else:
        for t in tables:
            print(f"# {t.subject}")
            print(t.to_text())
    return 0


def cmd_classify(files: list[str], mode: str, fmt: str, strict: bool) -> int:
    diagrams = [_read(p) for p in files]
    if not 1 <= len(diagrams) <= 2:
        raise DiagramError("classify expects one or two input diagrams")
    kinds = {d.closed for d in diagrams}
    if len(kinds) > 1:
        raise DiagramError("cannot mix links and string links in one decision")
    closed = kinds.pop()
    if len(diagrams) == 2:
        a, b = diagrams
        if a.name == b.name and (a.events, a.signs) != (b.events, b.signs):
            raise DiagramError(f"two different diagrams are named {a.name!r}")
    report = {"mode": mode, "inputs": [d.name for d in diagrams]}
    undecided = False
    if mode == "homotopy":
        if closed:
            if len(diagrams) == 2:
                raise DiagramError(
                    "pairwise link-homotopy decisions apply to string links"
                )
            report["link_homotopy_trivial"] = classify.link_homotopy_trivial(
                diagrams[0]
            )
        else:
            forms = [classify.homotopy_normal_form(d) for d in diagrams]
            report["normal_forms"] = {
                d.name: f.to_json() for d, f in zip(diagrams, forms)
            }
            if len(diagrams) == 2:
                verdict = classify.link_homotopic(diagrams[0], diagrams[1])
                report["link_homotopic"] = verdict
    else:
        vectors = [classify.selfdelta_vector(d) for d in diagrams]
        report["vectors"] = {d.name: v.to_json() for d, v in zip(diagrams, vectors)}
        report["selfdelta_trivial"] = {
            d.name: classify.selfdelta_trivial(d) for d in diagrams
        }
        report["doubling_consistency"] = {
            d.name: classify.cabling_cross_check(d) for d in diagrams
        }
        if len(diagrams) == 2:
            verdict = classify.selfdelta_equivalent(diagrams[0], diagrams[1])
            report["selfdelta_equivalent"] = verdict.value
            undecided = verdict is classify.Verdict.UNDECIDED

    def render(rep):
        lines = [f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(rep.items())]
        return "\n".join(lines)

    _emit(report, fmt, render)
    if undecided and strict:
        return 3
    return 0


def cmd_generate(kind: str, spec: list[str], n: int | None, k: int | None, out) -> int:
    if kind == "milnor-link":
        size = int(spec[0])
        d = classify.milnor_link(size)
        d.name = f"milnor-link-{size}"
    elif kind == "v-pi":
        values = tuple(int(v) for v in spec[0].split(","))
        size = max(values) if n is None else n
        pi = Injection(size, values)
        d = classify.injection_generator(pi)
        d.name = "v-pi-" + "-".join(map(str, values))
    elif kind == "v-tau":
        values = tuple(int(v) for v in spec[0].split(","))
        if k is None:
            raise DiagramError("v-tau needs --k (the doubled component)")
        size = max(max(values), k) if n is None else n
        tau = Surjection(size, k, values)
        d = classify.surjection_generator(tau)
        d.name = f"v-tau-{'-'.join(map(str, values))}-k{k}"
    elif kind == "whitehead":
        d = classify.whitehead_link()
        d.name = "whitehead"
    else:
        from .diagram import trivial_link

        d = trivial_link(int(spec[0]))
        d.name = f"trivial-{spec[0]}"
    return _write(to_pd_json(d), out)


def cmd_cable(path: str, mults: str, out) -> int:
    d = _read(path)
    try:
        m = [int(x) for x in mults.split(",")]
    except ValueError:
        raise DiagramError(f"bad multiplicities {mults!r}") from None
    if len(m) == 1:
        m = m * d.n
    c = cable(d, m)
    c.name = f"{d.name}-cable-{'-'.join(map(str, m))}"
    payload = to_pd_json(c)
    payload["source_component"] = list(cable_map(d, m))
    return _write(payload, out)


def _write(payload, out) -> int:
    """Write a diagram payload as JSON to the file ``out``, or to stdout."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="milnor",
        description="Milnor invariants and classification of links and string links",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="invariant tables for diagrams")
    inv.add_argument("files", nargs="+")
    inv.add_argument("--max-length", type=int, default=4)
    inv.add_argument("--max-r", type=int, default=2)
    inv.add_argument("--format", choices=["json", "table"], default="json")

    cl = sub.add_parser("classify", help="classification reports")
    group = cl.add_mutually_exclusive_group(required=True)
    group.add_argument("--homotopy", action="store_true")
    group.add_argument("--self-delta", action="store_true")
    cl.add_argument("files", nargs="+")
    cl.add_argument("--format", choices=["json", "table"], default="json")
    cl.add_argument("--strict", action="store_true")

    gen = sub.add_parser("generate", help="emit generator diagrams")
    gen.add_argument(
        "kind", choices=["milnor-link", "v-pi", "v-tau", "whitehead", "trivial"]
    )
    gen.add_argument("spec", nargs="*")
    gen.add_argument("--components", type=int, default=None)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("-o", "--output", default=None)

    cab = sub.add_parser("cable", help="zero-framed parallel copies")
    cab.add_argument("file")
    cab.add_argument("multiplicities")
    cab.add_argument("-o", "--output", default=None)
    return ap


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # a piped stdout is block-buffered: write it out here, where a closed
        # pipe can still be caught, not at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; what is left unwritten goes nowhere, so that
        # exiting does not raise again, and nothing is reported
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def _run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "invariants":
            return cmd_invariants(args.files, args.max_length, args.max_r, args.format)
        if args.command == "classify":
            mode = "homotopy" if args.homotopy else "self-delta"
            return cmd_classify(args.files, mode, args.format, args.strict)
        if args.command == "generate":
            if args.kind != "whitehead" and not args.spec:
                print("generate: missing specification", file=sys.stderr)
                return 1
            return cmd_generate(
                args.kind, args.spec, args.components, args.k, args.output
            )
        return cmd_cable(args.file, args.multiplicities, args.output)
    except (DiagramError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        reason = str(exc) or "out of memory"
    except ImportError as exc:
        if isinstance(exc, ModuleNotFoundError):
            raise
        # past start-up only numpy is imported (``magnus._numpy``): an
        # installed numpy that cannot map its shared libraries is out of memory
        reason = "numpy failed to load its shared libraries"
    # every other path has returned; the traceback, which holds the frames
    # that filled the memory, is gone once the handler is left
    print(f"error: MemoryError: {reason}", file=sys.stderr)
    return 4


if __name__ == "__main__":
    sys.exit(main())
