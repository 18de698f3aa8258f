"""Repository-wide guards on the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ginlab"


def test_library_has_no_assert_statements():
    # python -O strips assert, so no check in the library may rely on one
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no library modules under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
