"""The mutant list of tests/mutants.py stays applicable to the tree."""

from mutants import MUTANTS, ROOT


def test_each_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new and m.tests and m.why, m.name
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        for node in m.tests:
            assert (ROOT / node.split("::")[0]).is_file(), (m.name, node)
