"""Census of the ``src/`` functions the tier-1 suite never calls, and
of the ``src/`` fields nothing reads.

Functions: runs the tier-1 suite in this process under a
``sys.setprofile`` hook that records every Python function entered,
then prints each function defined under ``src/`` that was never
entered, with its line count (decorators, signature, docstring and
body).

Run from the repo root::

    PYTHONPATH=src python tests/data/census.py [pytest args]

Arguments go to pytest; the default is the tier-1 suite with ``-q``.
No coverage package is needed.  The hook slows the suite down several
times over.  A function that only a pool worker enters counts as
uncalled, since workers are separate processes; a generator function
counts as called once a generator it made has started running.

Fields (static, no test run)::

    python tests/data/census.py --fields

prints every attribute name that ``src/`` stores as ``self.<name>``
and that no ``.<name>`` load reads anywhere in ``src/``, ``tests/``,
``benchmarks/`` or ``examples/``, with its store sites; it prints
nothing when every stored field has a reader.  String constants count
as readers (``getattr(obj, "name")``, keys of an ``asdict`` dict),
except the names listed in a ``__slots__``.  The census goes by name
alone: a field whose name some other class reads is not reported.
"""

import ast
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
#: Trees whose loads count as readers of a ``src/`` field.
READER_TREES = ("src", "tests", "benchmarks", "examples")
#: Benchmark output: ``ab.py`` exports other commits' sources there.
OUTPUT_TREE = os.path.join(ROOT, "benchmarks", "e2e", "out")


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


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames
                             if os.path.join(dirpath, d) != OUTPUT_TREE)
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                yield os.path.join(dirpath, fname)


def _parse(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def _slot_names(tree):
    """The string constants that sit in a ``__slots__`` assignment."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in node.targets)):
            out.update(id(c) for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant))
    return out


def write_only_fields():
    """``{name: [(path, line), ...]}`` of every ``self.<name>`` stored
    under ``src/`` that nothing reads (see the module docstring)."""
    stores = {}
    for path in _python_files(SRC):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                stores.setdefault(node.attr, []).append((path, node.lineno))
    read = set()
    for top in READER_TREES:
        for path in _python_files(os.path.join(ROOT, top)):
            tree = _parse(path)
            slots = _slot_names(tree)
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    read.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and id(node) not in slots):
                    read.add(node.value)
    return {name: sites for name, sites in sorted(stores.items())
            if name not in read}


def definitions():
    """``(path, first line, qualified name, lines)`` of every function
    and method defined under ``src/``."""
    out = []
    for path in _python_files(SRC):
        _defs(_parse(path), path, "", out)
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
    if argv == ["--fields"]:
        for name, sites in write_only_fields().items():
            where = ", ".join(f"{os.path.relpath(p, SRC)}:{line}"
                              for p, line in sites)
            print(f"{name}  {where}")
        return 0
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
