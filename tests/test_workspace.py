import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from umbralcalc.errors import WorkspaceError
from umbralcalc.rationals import parse_rational
from umbralcalc.umbra import Umbra
from umbralcalc.workspace import (
    check_name,
    empty_workspace,
    load_raw,
    load_umbrae,
    save_raw,
    set_umbra,
    umbrae_from_raw,
)


def test_missing_file_reads_empty(tmp_path):
    raw = load_raw(tmp_path / "none.json")
    assert raw == {"version": 1, "umbrae": {}}
    assert load_umbrae(tmp_path / "none.json") == {}


def test_round_trip(tmp_path):
    path = tmp_path / "w.json"
    raw = empty_workspace()
    set_umbra(raw, "myu", Umbra([1, F(1, 2), F(1, 3)]))
    save_raw(path, raw)
    loaded = load_umbrae(path)
    assert loaded["myu"].moments == (1, F(1, 2), F(1, 3))
    assert loaded["myu"].name == "myu"


def test_unknown_fields_preserved(tmp_path):
    path = tmp_path / "w.json"
    doc = {
        "version": 1,
        "comment": "keep me",
        "umbrae": {"a": {"moments": ["1", "2"], "note": "mine"}},
    }
    path.write_text(json.dumps(doc))
    raw = load_raw(path)
    set_umbra(raw, "a", Umbra([1, 3]))
    set_umbra(raw, "b", Umbra([1, 1]))
    save_raw(path, raw)
    final = json.loads(path.read_text())
    assert final["comment"] == "keep me"
    assert final["umbrae"]["a"]["note"] == "mine"
    assert final["umbrae"]["a"]["moments"] == ["1", "3"]
    assert final["umbrae"]["b"]["moments"] == ["1", "1"]


def test_version_guard(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"version": 99, "umbrae": {}}))
    with pytest.raises(WorkspaceError):
        load_raw(path)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "w.json"
    raw = empty_workspace()
    set_umbra(raw, "x2", Umbra([1, 1]))
    save_raw(path, raw)
    save_raw(path, raw)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_new_file_mode_follows_the_umask(tmp_path, umask, mode):
    path = tmp_path / "w.json"
    old = os.umask(umask)
    try:
        save_raw(path, empty_workspace())
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o7777 == mode


def test_define_imports_no_tempfile(tmp_path):
    """A define writes its workspace without importing tempfile (-S: no site
    hooks that could have imported it first)."""
    src = Path(__file__).resolve().parent.parent / "src"
    workspace = tmp_path / "umbrae.json"
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {str(src)!r})
from umbralcalc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(['define', 'w', '--moments', '1,1/2', '--workspace', {str(workspace)!r}])
print(code, 'tempfile' in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0 False\n")
    assert load_umbrae(workspace)["w"].moments == (1, F(1, 2))


def test_umbrae_from_raw_rejects_non_unital():
    with pytest.raises(WorkspaceError):
        umbrae_from_raw({"umbrae": {"bad": {"moments": ["2", "1"]}}})


MALFORMED = {
    "entry not an object": '{"umbrae": {"a": []}}',
    "entry without moments": '{"umbrae": {"a": {}}}',
    "umbrae not an object": '{"umbrae": []}',
    "moments a string": '{"umbrae": {"a": {"moments": "12"}}}',
    "moments not strings": '{"umbrae": {"a": {"moments": [1, 2]}}}',
    "bad rational": '{"umbrae": {"a": {"moments": ["1", "x"]}}}',
    "zero denominator": '{"umbrae": {"a": {"moments": ["1", "1/0"]}}}',
    "no moments at all": '{"umbrae": {"a": {"moments": []}}}',
    "non-unital": '{"umbrae": {"a": {"moments": ["2", "1"]}}}',
    "corrupt JSON": '{"umbrae":',
    "root not an object": "[1]",
    "version mismatch": '{"version": 2, "umbrae": {}}',
    "builtin name": '{"umbrae": {"chi": {"moments": ["1", "5", "7"]}}}',
    "indeterminate name": '{"umbrae": {"x": {"moments": ["1", "1"]}}}',
    "not an identifier": '{"umbrae": {"a b": {"moments": ["1", "1"]}}}',
    # identifiers to Python that the lexer does not read as one name
    "roman numeral name": '{"umbrae": {"\\u216b": {"moments": ["1", "1"]}}}',
    "non-letter name": '{"umbrae": {"\\u2118": {"moments": ["1", "1"]}}}',
    "combining-mark name": '{"umbrae": {"e\\u0301": {"moments": ["1", "1"]}}}',
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_workspace_raises_workspace_error(tmp_path, text):
    path = tmp_path / "w.json"
    path.write_text(text)
    with pytest.raises(WorkspaceError) as info:
        load_umbrae(path)
    assert str(path) in str(info.value)


def test_malformed_entry_is_named():
    with pytest.raises(WorkspaceError, match="'bad'"):
        umbrae_from_raw({"umbrae": {"ok": {"moments": ["1"]}, "bad": {"moments": "12"}}})


def test_non_utf8_workspace_raises_workspace_error(tmp_path):
    path = tmp_path / "w.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(WorkspaceError):
        load_raw(path)


# A name must be one NAME token covering the whole text.
@pytest.mark.parametrize("name", ["", " a", "a ", "a.b", "\u00b2"])
def test_a_name_that_is_not_one_name_token_is_refused(name):
    with pytest.raises(ValueError, match="not a valid umbra name"):
        check_name(name)


def test_parse_rational_takes_p_or_p_over_q():
    assert [parse_rational(t) for t in ("3", " -3/6 ", "+0/5")] == [3, F(-1, 2), 0]
    for text in ("", "1.5", "1_0", "1e3", "1/-2", "1 / 2", "/2", "+"):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(text)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
