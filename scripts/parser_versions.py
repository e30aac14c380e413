#!/usr/bin/env python3
"""How the momlat CLI's parser reads the same argvs under several Pythons.

    python scripts/parser_versions.py [--src SRC] PYTHON...

argparse's reading of a token that starts with '-' has changed between
Python versions, so one argv can parse to a namespace on one interpreter
and end in a usage error on another.  The script draws 4000 seeded argvs
with `parser_argv` of tests/cli_cases.py (every option of every subcommand,
written both as `--opt V` and as `--opt=V`, with values such as `--`, `-`,
`--A`, `-1e3` and the empty string) and runs each through
`momlat.cli._parse` under every PYTHON given.  Each interpreter loads
`SRC/momlat/cli.py` (default: this checkout's `src/`) with the real
`momlat.algebra` and stand-ins for numpy and every other module cli
imports, since the grammar reads only `algebra.ATOM_NAMES` and
`operators.DEFAULT_WINDOW`: an interpreter needs no numpy to run it.

An argv's outcome is its exit code when the parse ends the call (0 for
help, 2 for a usage error), or the namespace it parses to.  The script
prints, per interpreter, how many argvs parsed, printed help or were
refused, and how many namespaces hold an option at `[]` or `'--'`; then it
names every argv whose outcome differs between the interpreters, and ends
with a verdict line.  It exits 1 when any argv differs.
"""

import argparse
import ast
import contextlib
import importlib
import io
import json
import random
import shlex
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from cli_cases import parser_argv  # noqa: E402  (tests/ is not a package)

COUNT = 4000


def default_window(src: Path) -> tuple:
    """`operators.DEFAULT_WINDOW`, read from the source without importing it."""
    tree = ast.parse((src / "momlat" / "operators.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(target, "id", None) == "DEFAULT_WINDOW" for target in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"parser_versions: no DEFAULT_WINDOW in {src}/momlat/operators.py")


def _stand_in(name):
    if name.startswith("__"):
        raise AttributeError(name)
    return _stand_in


def load_cli(src: Path):
    """`momlat.cli` from `src`, with the real `algebra` and `record` and
    stand-ins for numpy and for `eigen`, `formatting`, `lattice` and
    `operators`, whose every name is a placeholder."""
    package = types.ModuleType("momlat")
    package.__path__ = [str(src / "momlat")]
    sys.modules.update(momlat=package, numpy=types.ModuleType("numpy"))
    for name in ("eigen", "formatting", "lattice", "operators"):
        module = types.ModuleType(f"momlat.{name}")
        module.__getattr__ = _stand_in
        sys.modules[module.__name__] = module
        setattr(package, name, module)
    package.operators.DEFAULT_WINDOW = default_window(src)
    return importlib.import_module("momlat.cli")


def outcome(cli, argv) -> list:
    """[exit code, None] when the parse ends the call, [None, namespace] when
    it parses: the namespace as {dest: repr(value)}, the handler by name."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli._parse(list(argv))
        except SystemExit as exc:
            return [exc.code or 0, None]
        except Exception as exc:  # a traceback is an outcome to compare too
            return [f"raised {type(exc).__name__}", None]
    return [None, {dest: value.__name__ if callable(value) else repr(value)
                   for dest, value in sorted(vars(args).items())}]


def worker(src: Path):
    """Read a JSON list of argvs on stdin; write this interpreter's version
    and every argv's outcome as JSON on stdout."""
    cli = load_cli(src)
    argvs = json.load(sys.stdin)
    json.dump({"version": sys.version.split()[0],
               "outcomes": [outcome(cli, argv) for argv in argvs]}, sys.stdout)


def run(python: str, src: Path, argvs: list) -> dict:
    proc = subprocess.run([python, "-I", "-B", str(Path(__file__).resolve()), "--worker", str(src)],
                          input=json.dumps(argvs), capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"parser_versions: {python} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def shown(result: list) -> str:
    code, namespace = result
    return "parsed" if namespace is not None else str(code)


def main():
    if sys.argv[1:2] == ["--worker"]:
        return worker(Path(sys.argv[2]))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreters to compare")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree holding momlat (default: this checkout's src/)")
    args = ap.parse_args()

    src = args.src.resolve()
    subcommands = load_cli(src)._SUBCOMMANDS
    rng = random.Random(0)
    argvs = [parser_argv(rng, subcommands) for _ in range(COUNT)]
    results = {}
    for python in args.pythons:
        result = run(python, src, argvs)
        results[f"{result['version']} ({python})"] = result["outcomes"]
    for label, outcomes in results.items():
        codes = [code for code, namespace in outcomes if namespace is None]
        empty = sum(any(value in ("[]", "'--'") and dest != "expression"
                        for dest, value in namespace.items())
                    for _, namespace in outcomes if namespace)
        print(f"{label}: {len(outcomes) - len(codes)} parsed, {codes.count(0)} help, "
              f"{codes.count(2)} refused, {len(codes) - codes.count(0) - codes.count(2)} "
              f"other; {empty} leave an option at [] or '--'")
    differ = 0
    for k, argv in enumerate(argvs):
        seen = [outcomes[k] for outcomes in results.values()]
        if any(result != seen[0] for result in seen):
            differ += 1
            print(f"differs: momlat {shlex.join(argv)}: "
                  + ", ".join(f"{label.split()[0]} {shown(result)}"
                              for label, result in zip(results, seen)))
    print(f"{differ} of {len(argvs)} argvs differ in exit code or namespace "
          f"between the interpreters ({len(results)} run)")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
