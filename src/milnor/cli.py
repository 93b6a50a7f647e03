"""Command-line front end.

Commands: ``invariants`` (tables per input diagram), ``classify``
(link-homotopy or self-delta reports), ``generate`` (generator diagrams),
``cable`` (zero-framed parallels).  ``parse`` reads a command line from one
table, ``GRAMMAR``, and ``USAGE`` is its synopsis: a usage error prints it
on standard error, ``-h`` on standard output.  ``_emit`` is the one writer
of every report and diagram.  Exit codes: 0 success, 1 usage, 2 parse or
validation failure (a non-integer specification word or an unwritable
output file among them), 3 hypothesis not met in strict mode, 4 out of
memory (a ``MemoryError``, or numpy failing to load), 141 when the reader
closes standard output early (as for a process ended by SIGPIPE).  ``run``
is the process entry: it ends the process with ``main``'s code.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import sys
from pathlib import Path

from . import classify, invariants
from .diagram import Diagram, DiagramError, cable, cable_map, reduced, trivial_link
from .multiindex import Injection, Surjection
from .pdfile import load_diagram, to_pd_json


def _read(path: str) -> Diagram:
    try:
        d = load_diagram(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DiagramError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise DiagramError(f"{path}: {exc}") from None
    if not d.name:
        d.name = Path(path).stem
    return d


def _emit(data, fmt="json", render=None, out=None) -> None:
    """Write ``data`` as JSON, or as ``render(data)`` in table format, to
    standard output or to the file ``out``."""
    text = json.dumps(data, sort_keys=True, indent=2) if fmt == "json" else render(data)
    if out:
        try:
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:  # not print's BrokenPipeError, which main owns
            raise DiagramError(f"{out}: {exc.strerror or exc}") from None
    else:
        print(text)


def _int(word: str, what: str) -> int:
    """An integer word of a ``generate`` or ``cable`` specification."""
    try:
        return int(word)
    except ValueError:
        raise DiagramError(f"{what} {word!r} is not an integer") from None


def cmd_invariants(files: list[str], max_length: int, max_r: int, fmt: str) -> int:
    diagrams = [reduced(_read(p)) for p in files]
    tables = [invariants.table(d, max_length, max_r) for d in diagrams]
    _emit([t.to_json() for t in tables] if fmt == "json" else tables, fmt,
          lambda ts: "\n".join(f"# {t.subject}\n{t.to_text()}" for t in ts))
    return 0


def cmd_classify(files: list[str], mode: str, fmt: str, strict: bool) -> int:
    if len(files) > 2:
        raise UsageError("classify expects one or two input diagrams")
    diagrams = [reduced(_read(p)) for p in files]
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
                raise DiagramError("pairwise link-homotopy decisions apply to string links")
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
    _emit(report, fmt, lambda rep: "\n".join(
        f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(rep.items())))
    return 3 if undecided and strict else 0


def cmd_generate(kind: str, spec: list[str], components: int | None, k: int | None, out) -> int:
    if kind == "v-tau" and k is None:
        raise UsageError("generate v-tau needs --k (the doubled component)")
    if kind == "milnor-link":
        size = _int(spec[0], "component count")
        d = classify.milnor_link(size)
        d.name = f"milnor-link-{size}"
    elif kind == "v-pi":
        values = tuple(_int(v, "injection value") for v in spec[0].split(","))
        size = max(values) if components is None else components
        pi = Injection(size, values)
        d = classify.injection_generator(pi)
        d.name = "v-pi-" + "-".join(map(str, values))
    elif kind == "v-tau":
        values = tuple(_int(v, "surjection value") for v in spec[0].split(","))
        size = max(max(values), k) if components is None else components
        tau = Surjection(size, k, values)
        d = classify.surjection_generator(tau)
        d.name = f"v-tau-{'-'.join(map(str, values))}-k{k}"
    elif kind == "whitehead":
        d = classify.whitehead_link()
        d.name = "whitehead"
    else:
        size = _int(spec[0], "component count")
        d = trivial_link(size)
        d.name = f"trivial-{size}"
    _emit(to_pd_json(d), out=out)
    return 0


def cmd_cable(file: str, multiplicities: str, out) -> int:
    d = _read(file)
    m = [_int(x, "multiplicity") for x in multiplicities.split(",")]
    if len(m) == 1:
        m = m * d.n
    c = cable(d, m)
    c.name = f"{d.name}-cable-{'-'.join(map(str, m))}"
    payload = to_pd_json(c)
    payload["source_component"] = list(cable_map(d, m))
    _emit(payload, out=out)
    return 0


USAGE = """\
usage: milnor invariants FILE... [--max-length N] [--max-r R] [--format json|table]
       milnor classify (--homotopy | --self-delta) FILE [FILE2] [--format json|table] [--strict]
       milnor generate (milnor-link N | v-pi 1,2,3 [--components N] |
                        v-tau 1,2,2 --k K [--components N] | whitehead | trivial N) [-o OUT]
       milnor cable FILE 2,2 [-o OUT]
       milnor (-h | --help)"""

# generate's kinds: how many specification words each takes, which options it reads
KINDS = {"milnor-link": (1, ()), "v-pi": (1, ("components",)), "whitehead": (0, ()),
         "v-tau": (1, ("components", "k")), "trivial": (1, ())}
_FORMAT, _OUT = ("fmt", ("json", "table"), "json"), ("out", str, None)
# Each command's positionals, as (dest, count) with a count of 1, "+" (one or
# more) or "*", and its options by name, as (dest, what, default): what is a
# type or a tuple of choices for an option with a value, and for a switch the
# value it stores.  A switch whose default is None must be given.
GRAMMAR = {
    "invariants": ([("files", "+")], {
        "--max-length": ("max_length", int, 4), "--max-r": ("max_r", int, 2),
        "--format": _FORMAT}),
    "classify": ([("files", "+")], {
        "--homotopy": ("mode", "homotopy", None), "--self-delta": ("mode", "self-delta", None),
        "--format": _FORMAT, "--strict": ("strict", True, False)}),
    "generate": ([("kind", 1), ("spec", "*")], {
        "--components": ("components", int, None), "--k": ("k", int, None),
        "-o": _OUT, "--output": _OUT}),
    "cable": ([("file", 1), ("multiplicities", 1)], {"-o": _OUT, "--output": _OUT}),
}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class UsageError(Exception):
    """A command line outside ``GRAMMAR``."""


def _is_option(word: str) -> bool:
    return word[:1] == "-" and word != "-" and not _NEGATIVE.match(word)


def parse(argv: list[str]) -> tuple[str, dict] | None:
    """The command of a command line and its values by dest, or None when it
    asks for help.  Options are read in order, the last repeat winning.  They
    split the positional words into runs, and a list takes one run whole;
    "--" ends the options."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv or argv[0] not in GRAMMAR:
        raise UsageError(f"the command is one of {', '.join(GRAMMAR)}")
    cut = argv.index("--") if "--" in argv else len(argv)
    (slots, options), words = GRAMMAR[argv[0]], iter(argv[1:cut])
    values = {dest: default for dest, _, default in options.values()}
    runs = [[]]
    for word in words:
        if not _is_option(word):
            runs[-1].append(word)
            continue
        if word in ("-h", "--help"):
            return None
        name, eq, value = word.partition("=")
        if name not in options:
            raise UsageError(f"unrecognized option {word}")
        dest, what, default = options[name]
        if isinstance(what, (type, tuple)):
            if not eq:
                value = next(words, "--")  # "--" when the options end here
                if _is_option(value):
                    raise UsageError(f"{name} expects a value")
            if isinstance(what, tuple) and value not in what:
                raise UsageError(f"{name}: {value!r} is not one of {', '.join(what)}")
            try:
                values[dest] = value if isinstance(what, tuple) else what(value)
            except ValueError:
                raise UsageError(f"{name}: {value!r} is not an {what.__name__}") from None
        elif eq or values[dest] not in (default, what):
            raise UsageError(f"{name} takes no value" if eq else f"{name} excludes --{values[dest]}")
        else:
            values[dest] = what
        runs.append([])
    runs[-1] += argv[cut + 1 :]  # "--" joins the run it stands in
    if cut < len(argv) and not runs[-1]:
        raise UsageError("unrecognized arguments: --")
    runs = [run for run in runs if run]
    if len(runs) > 1 and slots[-1][1] != 1:
        raise UsageError(f"unrecognized arguments: {' '.join(runs[1])}")
    words = [word for run in runs for word in run]
    for dest, count in slots:
        values[dest], words = (words[0], words[1:]) if count == 1 and words else (words, [])
        if count != "*" and values[dest] == []:
            raise UsageError(f"missing {dest}")
    if words:
        raise UsageError(f"unrecognized arguments: {' '.join(words)}")
    for dest, what, _ in options.values():
        if values[dest] is None and not isinstance(what, (type, tuple)):
            names = [name for name, option in options.items() if option[0] == dest]
            raise UsageError(f"one of {' '.join(names)} is required")
    if argv[0] == "generate":
        kind = values["kind"]
        if kind not in KINDS:
            raise UsageError(f"the kind is one of {', '.join(KINDS)}")
        if len(values["spec"]) != KINDS[kind][0]:
            raise UsageError(f"generate {kind} takes {KINDS[kind][0]} specification word(s)")
        for dest in ("components", "k"):
            if values[dest] is not None and dest not in KINDS[kind][1]:
                raise UsageError(f"generate {kind} does not read --{dest}")
    return argv[0], values


COMMANDS = {"invariants": cmd_invariants, "classify": cmd_classify,
            "generate": cmd_generate, "cable": cmd_cable}


def main(argv=None) -> int:
    try:
        parsed = parse(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:
            print(USAGE)
            code = 0
        else:
            command, values = parsed
            code = COMMANDS[command](**values)
        # a piped stdout is block-buffered: write it out here, where a closed
        # pipe can still be caught, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; what is left unwritten goes nowhere, so that
        # exiting does not raise again, and nothing is reported
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UsageError as exc:
        print(f"{USAGE}\nmilnor: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # DiagramError among them
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


def run() -> None:
    """Exit with ``main``'s code.  Unless the process is traced, profiled or
    about to go interactive, it runs the exit handlers, flushes and ends with
    ``os._exit``: the interpreter's teardown would only free what the
    operating system reclaims anyway."""
    code = main()
    if sys.gettrace() or sys.getprofile() or sys.flags.inspect:
        sys.exit(code)
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
