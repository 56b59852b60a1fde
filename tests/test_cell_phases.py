"""The per-phase cell timer, run over both grids and the `similar_large`
find: one repetition per cell or find in each of its passes."""

import re
import time

import pytest

import fqsim.configurations
import fqsim.field
import fqsim.harness
import fqsim.intersection

import cell_phases

SPREAD = re.compile(r"(\d+\.\d) \[(\d+\.\d)–(\d+\.\d)\]")


def test_one_repetition_prints_both_tables_and_unwraps(capsys):
    """Passes of one repetition each: every phase prints its median
    between the lowest and highest of the passes."""
    before = {name: getattr(fqsim.configurations, name)
              for name in ("verify_similarity", "verify_det_similarity", "_shift_overlap", "_coset_overlap")}
    sqrt, run_cell = fqsim.field.FieldElement.sqrt, fqsim.harness.run_cell
    assert cell_phases.main(["--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("wrapper cost: ") and lines[0].endswith(f"over {cell_phases.PASSES} passes")
    header = "| rows | " + " | ".join(cell_phases.PHASES) + " |"
    for grid, cells in (("similarity", 204), ("det-similarity", 10)):
        at = lines.index(f"{grid}: {cells} cells, repeat 1, {cell_phases.PASSES} passes")
        assert lines[at + 1] == header
        for row, label in zip(lines[at + 2:at + 4], ("hot best of 1", "sweep flow")):
            cols = row.strip("| ").split(" | ")
            assert cols[0] == label and len(cols) == 1 + len(cell_phases.PHASES)
            spreads = {p: tuple(map(float, SPREAD.fullmatch(c).groups())) for p, c in zip(cell_phases.PHASES, cols[1:])}
            # the median of the passes lies between their lowest and highest
            assert all(lo <= m <= hi for m, lo, hi in spreads.values()), row
            # every phase but the roots, which a kept root skips, takes time
            assert all(spreads[p][1] > 0 for p in cell_phases.PHASES if p != "roots"), row
            # per pass the cell's median is at least every phase's
            assert all(c >= v for phase in spreads.values() for c, v in zip(spreads["cell"], phase)), row
    # every wrapper is taken off again
    assert before == {name: getattr(fqsim.configurations, name) for name in before}
    assert fqsim.field.FieldElement.sqrt is sqrt and fqsim.harness.run_cell is run_cell


def test_spread_is_the_median_between_the_extremes():
    assert cell_phases.spread([3.0, 1.0, 2.5]) == "2.5 [1.0–3.0]"
    assert cell_phases.spread([4.0, 1.0]) == "2.5 [1.0–4.0]"


def test_fewer_than_one_repetition_is_refused(capsys):
    with pytest.raises(SystemExit) as refused:
        cell_phases.main(["--repeat", "0"])
    assert refused.value.code == 2 and "--repeat must be at least 1" in capsys.readouterr().err


def test_one_repetition_prints_the_find_table_and_unwraps(capsys):
    """The `similar_large` find's table: one find per input of a 20-second
    run, every phase timed, and the intersection layer unwrapped after."""
    names = ("_codes", "_columns", "_translation_counts", "_read_planes")
    before = {name: getattr(fqsim.intersection, name) for name in names}
    finder, scan = fqsim.configurations.find_similar_config, fqsim.configurations._shift_overlap
    assert cell_phases.main(["--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(f"similar_large: 59 finds, repeat 1, {cell_phases.PASSES} passes")
    assert lines[at + 1] == "| rows | " + " | ".join(cell_phases.FIND_PHASES) + " |"
    assert len(lines) == at + 4  # the last table
    for row, label in zip(lines[at + 2:at + 4], ("hot best of 1", "benchmark flow")):
        cols = row.strip("| ").split(" | ")
        assert cols[0] == label and len(cols) == 1 + len(cell_phases.FIND_PHASES)
        spreads = {p: tuple(map(float, SPREAD.fullmatch(c).groups())) for p, c in zip(cell_phases.FIND_PHASES, cols[1:])}
        assert all(lo <= m <= hi for m, lo, hi in spreads.values()), row
        # every phase takes time: past the byte bound the find codes, adds planes and reads them
        assert all(lo > 0 for _, lo, _ in spreads.values()), row
        assert all(c >= v for phase in spreads.values() for c, v in zip(spreads["find"], phase)), row
    assert before == {name: getattr(fqsim.intersection, name) for name in names}
    assert fqsim.configurations.find_similar_config is finder and fqsim.configurations._shift_overlap is scan


def test_a_pairs_call_keeps_the_wrapped_calls_it_makes():
    """The codes a scan makes are codes, and those its overlap call makes
    are pairs."""
    phases = cell_phases.Phases(cell_phases.FIND_PHASES)
    codes = phases.wrap("codes", lambda: time.sleep(0.002))

    def _shift_overlap():
        codes()
        return None, lambda: [codes()]
    _, overlap = phases.wrap("glue", _shift_overlap)()
    assert list(overlap()) == [None]
    out = phases.take()
    assert out["codes"] >= 2000 and out["pairs"] >= 2000, out
    assert out["find"] == sum(v for p, v in out.items() if p != "find")
