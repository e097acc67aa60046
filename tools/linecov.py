"""Print the lines of src/shrinkerlab that the tier-1 suite never runs.

Run from the root of a checkout (stdlib only; about 90 s on 2 cores):

    python3 tools/linecov.py [extra pytest arguments]

It runs the tier-1 suite (`python -m pytest -q --continue-on-collection-errors`
with `src` on PYTHONPATH) in a subprocess.  A generated `sitecustomize`, put
on PYTHONPATH too, so that every Python child of the suite loads it as well,
traces each frame whose code lies in src/shrinkerlab with `sys.settrace`
and `threading.settrace` and, at exit, writes the lines its process ran to
one file per process.  The executable lines of each module are read from
`compile` and `co_lines` of its code objects, docstrings left out (comments
compile to nothing); every such line that no process ran is printed as
`path:line: source`, followed by one count per module.  The exit status is
the suite's.

A line that runs only when an error is raised is listed like any other, so
the listing is read against the source, not gated on.  Comparing the
listings of two commits by their `source` texts shows which unrun lines a
change adds.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shrinkerlab"

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_PREFIX = os.environ["LINECOV_PACKAGE"] + os.sep
_hits = set()


# the defaults bind the names, which interpreter shutdown clears while
# tracing may still run
def _local(frame, event, arg, _hits=_hits):
    _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg, _hits=_hits, _prefix=_PREFIX, _local=_local):
    if not frame.f_code.co_filename.startswith(_prefix):
        return None
    _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


@atexit.register
def _write():
    path = os.path.join(os.environ["LINECOV_OUT"], f"{os.getpid()}.hits")
    with open(path, "w") as out:
        out.writelines(f"{name}\\t{line}\\n" for name, line in _hits)


sys.settrace(_global)
threading.settrace(_global)
'''


def executable_lines(path):
    """Line numbers of `path` that carry bytecode, its docstrings left out."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - docstrings


def run_suite(out_dir, extra_args):
    (out_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
    path = os.pathsep.join([str(out_dir), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path.rstrip(os.pathsep),
               LINECOV_PACKAGE=str(PACKAGE), LINECOV_OUT=str(out_dir))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "-p", "no:cacheprovider", *extra_args]
    return subprocess.run(command, cwd=ROOT, env=env).returncode


def read_hits(out_dir):
    hits = set()
    for part in out_dir.glob("*.hits"):
        for row in part.read_text().splitlines():
            name, line = row.rsplit("\t", 1)
            hits.add((os.path.realpath(name), int(line)))
    return hits


def main(argv):
    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        status = run_suite(Path(tmp), argv)
        hits = read_hits(Path(tmp))
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = os.path.realpath(path)
        text = path.read_text().splitlines()
        unrun = sorted(line for line in executable_lines(path) if (name, line) not in hits)
        for line in unrun:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        counts.append(f"{path.name} {len(unrun)}")
    print("unrun lines per module: " + ", ".join(counts))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
