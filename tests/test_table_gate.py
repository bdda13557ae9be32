"""The paper-table gate: ``benchmarks/conftest.py: check_table``.

Every paper-reproduction test renders its table through ``emit``, which
holds it against the tracked ``benchmarks/results/<name>.txt`` with this
helper.  Proved here on a scratch directory: a differing table fails
naming the file and the line, an identical one passes, and only the
``--regen-tables`` arm ever writes.
"""

import importlib.util
from pathlib import Path

import pytest

HARNESS = Path(__file__).parent.parent / "benchmarks" / "conftest.py"
TABLE = "Table X — demo\nrow 1 | 2.5\nrow 2 | 7.0"


@pytest.fixture(scope="module")
def check_table():
    spec = importlib.util.spec_from_file_location("table_harness", HARNESS)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness.check_table


def test_a_table_is_held_against_its_tracked_copy(check_table, tmp_path):
    tracked = tmp_path / "demo.txt"

    # Nothing tracked: comparing fails and does not create the file.
    with pytest.raises(pytest.fail.Exception, match="demo.txt does not exist"):
        check_table("demo", TABLE, False, tmp_path)
    assert not tracked.exists()

    check_table("demo", TABLE, True, tmp_path)  # --regen-tables
    assert tracked.read_text() == TABLE + "\n"
    check_table("demo", TABLE, False, tmp_path)  # identical: passes

    with pytest.raises(pytest.fail.Exception) as failure:
        check_table("demo", TABLE.replace("7.0", "7.1"), False, tmp_path)
    message = str(failure.value)
    assert f"{tracked}:3 differs" in message
    assert "'row 2 | 7.0'" in message and "'row 2 | 7.1'" in message
    # A failed comparison leaves the tracked copy as it was.
    assert tracked.read_text() == TABLE + "\n"

    # One table a prefix of the other: the first missing line is named.
    with pytest.raises(pytest.fail.Exception, match=r"demo.txt:4 differs"):
        check_table("demo", TABLE + "\nrow 3 | 9.9", False, tmp_path)
