"""The mutant list of tests/mutants.py stays applicable to the tree."""

import ast

from mutants import MUTANTS, ROOT


def _test_functions(path) -> set:
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_each_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new and m.tests and m.why, m.name
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        for node in m.tests:
            assert (ROOT / node.split("::")[0]).is_file(), (m.name, node)


def test_each_mutant_names_existing_tests():
    # a renamed test would leave its mutants selecting nothing
    for m in MUTANTS:
        for node in m.tests:
            path, _, name = node.partition("::")
            assert name.split("[")[0] in _test_functions(ROOT / path), (m.name, node)
