"""The mutation sweep's mutant generator and its allow-list, without running the sweep."""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import mutation_sweep as sweep  # noqa: E402


def test_each_mutant_changes_one_site_and_still_parses():
    found = sweep.mutants(sweep.ROOT / "src" / "kenmotsu")
    assert {m.path for m in found} == set(sweep.FILES)
    assert len({m.key for m in found}) == len(found)
    for m in found:
        original = (sweep.ROOT / "src" / "kenmotsu" / m.path).read_text()
        assert m.source != original, m.key
        ast.parse(m.source)
        changed = [a for a, b in zip(original.splitlines(), m.source.splitlines()) if a != b]
        assert len(changed) == 1, m.key


def test_the_allow_list_names_only_mutants_the_sweep_makes():
    keys = {m.key for m in sweep.mutants(sweep.ROOT / "src" / "kenmotsu")}
    allowed = sweep.allowed()
    assert allowed and all(allowed.values())
    assert set(allowed) <= keys
