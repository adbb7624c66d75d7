"""Mutation sweep: apply one-line mutants to the pipeline and see which tier-1 test kills each.

Run from the repository root:

    python3 tools/mutation_sweep.py

Four operators run over ``connection.py``, ``structure.py``, ``charts.py``
and ``conditions.py`` of ``src/kenmotsu``:

- ``einsum``: swap one adjacent pair of letters in an einsum's output;
- ``swapaxes``: drop one ``swapaxes`` or ``moveaxis`` call,
  ``np.swapaxes(t, a, b)``, ``t.swapaxes(a, b)`` or ``np.moveaxis(t, a, b)``
  becoming ``t``;
- ``augassign``: swap ``+=`` with ``-=``;
- ``zero``: turn one load of a partial array, a name or an attribute of
  :data:`PARTIALS` or a partial parameter of the function it is in
  (:data:`PARTIAL_PARAMETERS`), into ``(0 * ...)``; a load whose only use
  is an attribute read, such as ``dg.shape``, is skipped.

The working tree, README and tests included, is copied once to a temporary
directory.  Each mutant is written there in turn and tier-1, less this
script's own tests, runs on it with ``pytest -x``, one run at a time; the
unmutated copy runs first and must pass.  One line per mutant says
``killed`` with the first failing test, or ``SURVIVED``.  A survivor listed
in ``tools/equivalent_mutants.txt`` (an equivalent mutant: no input can tell
it from the original) is marked ``equivalent``; the script exits 1 if any
other mutant survives.

A mutant's key names the file, the enclosing function, and the source it
changes, before and after, with whitespace collapsed: it does not move with
line numbers.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ("connection.py", "structure.py", "charts.py", "conditions.py")
ALLOW_LIST = ROOT / "tools" / "equivalent_mutants.txt"
# the partial arrays of the pipeline, wherever they are loaded
PARTIALS = {"dg", "ddg", "dxi", "deta", "dlc", "dmodified"}
# the parameters that take partials, in the functions that take them
PARTIAL_PARAMETERS = {
    "levi_civita": {"dg"},
    "_christoffel_partials": {"dg", "ddg"},
    "riemann_of_connection": {"dgamma"},
    "_nabla_vector": {"dv"},
    "_nabla_form": {"domega"},
    "_nabla_bilinear": {"dw"},
}
# the sweep's own tests read the mutated sources, so they would kill every mutant
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutation_sweep.py"]
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to src/kenmotsu
    line: int
    key: str
    source: str  # the whole mutated file


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _offsets(source: str) -> list[int]:
    """The offset of each line's start, for turning (line, column) into a string index."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _span(node: ast.AST, starts: list[int]) -> tuple[int, int]:
    # ast columns count utf-8 bytes; the package sources are ascii
    return (starts[node.lineno - 1] + node.col_offset,
            starts[node.end_lineno - 1] + node.end_col_offset)


def _edits(tree: ast.AST, source: str, starts: list[int]):
    """(node, enclosing function, start, end, replacement) of every mutant site."""
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]

    def owner(node):
        inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
        return max(inside, key=lambda f: f.lineno).name if inside else "<module>"

    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            function = owner(node)
            if ((name in PARTIALS or name in PARTIAL_PARAMETERS.get(function, ()))
                    and not isinstance(parents[node], ast.Attribute)):
                lo, hi = _span(node, starts)
                yield node, function, lo, hi, f"(0 * {source[lo:hi]})"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            first = node.args[0] if node.args else None
            if (name == "einsum" and isinstance(first, ast.Constant)
                    and isinstance(first.value, str) and "->" in first.value):
                head, out = first.value.split("->")
                for i in range(len(out) - 1):
                    if out[i].isalpha() and out[i + 1].isalpha():
                        swapped = out[:i] + out[i + 1] + out[i] + out[i + 2:]
                        lo, hi = _span(first, starts)
                        yield node, owner(node), lo, hi, f'"{head}->{swapped}"'
            elif name in ("swapaxes", "moveaxis"):
                # np.swapaxes(t, a, b) and np.moveaxis(t, a, b) keep t; t.swapaxes(a, b) keeps t
                is_function = isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                kept = first if is_function else node.func.value
                lo, hi = _span(node, starts)
                k_lo, k_hi = _span(kept, starts)
                yield node, owner(node), lo, hi, source[k_lo:k_hi]
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub))
              and not isinstance(node.value, (ast.List, ast.ListComp))):
            # a list grown with += has no -= to swap to
            lo, hi = _span(node, starts)
            old, new = ("+=", "-=") if isinstance(node.op, ast.Add) else ("-=", "+=")
            text = source[lo:hi]
            cut = _span(node.target, starts)[1] - lo
            yield node, owner(node), lo, hi, text[:cut] + text[cut:].replace(old, new, 1)


def mutants(src: Path) -> list[Mutant]:
    """Every mutant of the four files, in file order and then source order."""
    found = []
    for path in FILES:
        source = (src / path).read_text()
        starts = _offsets(source)
        seen: dict[str, int] = {}
        sites = sorted(_edits(ast.parse(source), source, starts), key=lambda e: (e[2], e[3]))
        for node, function, lo, hi, new in sites:
            key = f"{path}:{function}: {_collapse(source[lo:hi])} => {_collapse(new)}"
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:
                key += f" #{seen[key]}"
            found.append(Mutant(path, node.lineno, key, source[:lo] + new + source[hi:]))
    return found


def allowed() -> dict[str, str]:
    """The allow-list: each equivalent mutant's key and its reason."""
    entries = {}
    for line in ALLOW_LIST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, reason = line.partition("  # ")
            entries[key.strip()] = reason.strip()
    return entries


def _tier1(tree: Path) -> tuple[bool, str]:
    """(passed, first failing test) of a tier-1 run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, ""
    failing = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, flags=re.M)
    return False, failing[0] if failing else f"pytest exit {done.returncode}"


def main() -> int:
    found, equivalent = mutants(ROOT / "src" / "kenmotsu"), allowed()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        ok, failing = _tier1(tree)
        if not ok:
            print(f"the unmutated tree fails tier-1 at {failing}; no mutant was run")
            return 2
        target = tree / "src" / "kenmotsu"
        for m in found:
            original = (target / m.path).read_text()
            (target / m.path).write_text(m.source)
            try:
                ok, failing = _tier1(tree)
            finally:
                (target / m.path).write_text(original)
            if not ok:
                verdict, why = "killed", f"by {failing}"
            elif m.key in equivalent:
                verdict, why = "equivalent", f"({equivalent[m.key]})"
            else:
                verdict, why = "SURVIVED", ""
                survivors.append(m)
            print(f"{verdict:<10}  {m.path}:{m.line}  {m.key}  {why}".rstrip(), flush=True)
    print(f"{len(found)} mutants, {len(survivors)} unlisted survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
