"""The per-column and per-module reports of tools/same_outputs.py, on hand-made file contents and module lists."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import same_outputs  # noqa: E402


def test_csv_columns_report_their_largest_relative_change():
    parent = same_outputs._columns("a.csv", b"r,u,status,T\n1,2.0,ok,\n2,-4.0,ok,0.5\n")
    change = same_outputs._columns("a.csv", b"r,u,status,T\n1,2.0,ok,\n2,-4.000004,BlowUp,0.5\n")
    # u moved by 4e-6 against its column's sup 4; the blank T cells agree and count as equal text
    assert same_outputs.moved(parent, change) == ["status text", "u 1.0e-06"]


def test_json_keys_gather_across_lists_and_name_what_is_not_numeric():
    parent = same_outputs._columns("s.json", {"table": [{"T": 1.0}, {"T": None}], "tol": 1e-8, "x": True})
    change = same_outputs._columns("s.json", b'{"table": [{"T": 1.5}, {"T": 2.0}], "x": false, "y": 1}')
    assert same_outputs.moved(parent, change) == [
        "table[].T 5.0e-01 and text", "tol only in the parent", "x text", "y only in the change",
    ]
    assert same_outputs._columns("report.txt", b"") is None


def test_src_lines_are_counted_per_module_and_netted(tmp_path):
    for tree, files in (("parent", {"pkg/a.py": "x\n" * 3, "pkg/gone.py": "y\n"}), ("change", {"pkg/a.py": "x\n" * 5})):
        for name, text in files.items():
            (tmp_path / tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / tree / name).write_text(text)
    (tmp_path / "change" / "pkg" / "notes.txt").write_text("not a module\n")
    parent, change = (same_outputs.source_lines(tmp_path / tree) for tree in ("parent", "change"))
    assert parent == {"pkg/a.py": 3, "pkg/gone.py": 1} and change == {"pkg/a.py": 5}
    assert same_outputs.line_report(parent, change) == [
        "  pkg/a.py: 3, 5", "  pkg/gone.py: 1, -", "  total: 4 -> 5, net +1 lines",
    ]


def test_a_module_that_one_tree_alone_loads_is_a_difference_that_names_it():
    parent = ["bubbletower", "numpy", "sys", "tempfile"]
    change = ["bubbletower", "multiprocessing", "numpy", "sys"]
    assert same_outputs.module_differences(parent, change) == [
        "import bubbletower: multiprocessing loaded only by the change",
        "import bubbletower: tempfile loaded only by the parent",
    ]
    assert same_outputs.module_differences(parent, parent[::-1]) == []
