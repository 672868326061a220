"""Census of the ``src/`` functions the tier-1 suite never calls.

Runs the tier-1 suite in this process under a ``sys.setprofile`` hook
that records every Python function entered, then prints each function
defined under ``src/`` that was never entered, with its line count
(decorators, signature, docstring and body).

Run from the repo root::

    PYTHONPATH=src python tests/data/census.py [pytest args]

Arguments go to pytest; the default is the tier-1 suite with ``-q``.
No coverage package is needed.  The hook slows the suite down several
times over.  A function that only a pool worker enters counts as
uncalled, since workers are separate processes; a generator function
counts as called once a generator it made has started running.
"""

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")


def _defs(node, path, prefix, out):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A decorated function's code object starts at its first
            # decorator.
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            name = prefix + child.name
            out.append((path, first, name, child.end_lineno - first + 1))
            _defs(child, path, name + ".", out)
        elif isinstance(child, ast.ClassDef):
            _defs(child, path, prefix + child.name + ".", out)
        else:
            _defs(child, path, prefix, out)


def definitions():
    """``(path, first line, qualified name, lines)`` of every function
    and method defined under ``src/``."""
    out = []
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path) as f:
                    _defs(ast.parse(f.read(), path), path, "", out)
    return out


def entered(pytest_args):
    """Run pytest; return its exit code and the ``(filename, first
    line)`` of every code object entered meanwhile."""
    seen = set()

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return code, seen


def main(argv):
    os.chdir(ROOT)
    code, seen = entered(argv or ["-q", "-p", "no:cacheprovider"])
    defs = definitions()
    seen = {(os.path.abspath(f), line) for f, line in seen}
    uncalled = [d for d in defs if (d[0], d[1]) not in seen]
    print(f"\n{len(uncalled)} of {len(defs)} src/ functions never called "
          f"({sum(d[3] for d in uncalled)} lines):")
    for path, first, name, nlines in uncalled:
        rel = os.path.relpath(path, SRC)
        print(f"  {rel}:{first}  {name}  ({nlines} lines)")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
