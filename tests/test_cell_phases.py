"""The per-phase cell timer, run once over both grids."""

import fqsim.configurations
import fqsim.field
import fqsim.harness

import cell_phases


def test_one_repetition_prints_both_tables_and_unwraps(capsys):
    before = {name: getattr(fqsim.configurations, name)
              for name in ("verify_similarity", "verify_det_similarity", "_shift_overlap", "_coset_overlap")}
    sqrt, run_cell = fqsim.field.FieldElement.sqrt, fqsim.harness.run_cell
    assert cell_phases.main(["--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("wrapper cost: ")
    header = "| rows | " + " | ".join(cell_phases.PHASES) + " |"
    for grid, cells in (("similarity", 204), ("det-similarity", 10)):
        at = lines.index(f"{grid}: {cells} cells, repeat 1")
        assert lines[at + 1] == header
        for row, label in zip(lines[at + 2:at + 4], ("hot best of 1", "sweep flow")):
            cols = row.strip("| ").split(" | ")
            assert cols[0] == label and len(cols) == 1 + len(cell_phases.PHASES)
            values = dict(zip(cell_phases.PHASES, map(float, cols[1:])))
            # every phase but the roots, which a kept root skips, takes time
            assert all(values[p] > 0 for p in cell_phases.PHASES if p != "roots"), row
            assert values["cell"] >= max(values.values())
    # every wrapper is taken off again
    assert before == {name: getattr(fqsim.configurations, name) for name in before}
    assert fqsim.field.FieldElement.sqrt is sqrt and fqsim.harness.run_cell is run_cell
