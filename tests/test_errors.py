"""Every file access in fome goes through the helpers in fome.errors."""

import ast
from pathlib import Path

from fome.errors import read_file, write_file

SRC = Path(__file__).resolve().parent.parent / "src" / "fome"
HELPERS = {"read_file", "write_file", "make_dirs"}
FILE_CALLS = {"open", "makedirs", "mkdir", "read_bytes", "read_text", "write_bytes", "write_text"}


def test_only_the_helpers_touch_files():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if path.name == "errors.py" and getattr(node, "name", None) in HELPERS:
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if name in FILE_CALLS:
                    offenders.append(f"{path.name}:{call.lineno} {name}")
    assert offenders == []


def test_str_payload_is_written_as_utf8(tmp_path):
    path = tmp_path / "t.txt"
    write_file(path, "µV\n")
    assert read_file(path) == b"\xc2\xb5V\n"

