"""Repository-wide guards on the library source."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ginlab"
TRACING = SRC.parent.parent / "bench" / "tracing.py"


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


def _same_under_python_O(tmp_path, argv):
    # end to end: no check the CLI reports needs an assert to run
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    outputs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"out{''.join(flags)}.json"
        proc = subprocess.run([sys.executable, *flags, "-m", "ginlab.cli", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_points_run_is_the_same_under_python_O(tmp_path):
    _same_under_python_O(tmp_path, ["points", "--s", "12", "--r", "3", "--seed", "2"])


def test_segment_witness_is_the_same_under_python_O(tmp_path):
    # the 12-point revlex segment of P^3; its witness runs Fourier-Motzkin
    ideal = tmp_path / "J.txt"
    ideal.write_text("x0^3\nx0^2*x1\nx0^2*x2\nx0*x1^2\nx0*x1*x2\nx0*x2^2\n"
                     "x1^3\nx1^2*x2\nx1*x2^3\nx2^4\n")
    _same_under_python_O(tmp_path, ["segment", "--witness-in", str(ideal), "--nvars", "4"])


def test_gin_run_is_the_same_under_python_O(tmp_path):
    # the coordinate change, the trials and the gin guards, without assert
    ideal = tmp_path / "ci.txt"
    ideal.write_text("x0^2+x1*x2+x2^2\nx1^3+x0*x2^2+x0^3\n")
    _same_under_python_O(tmp_path, ["gin", "--in", str(ideal), "--order", "revlex"])


def test_every_traced_layer_resolves():
    # the traced benchmark wraps these by name; a layer deleted or renamed in
    # the library must fail here, not in a traced run. bench/ is only parsed.
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    names = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert len(names) > 20
    missing = []
    for module, attr in names:
        *path, leaf = attr.split(".")
        owner = importlib.import_module(module)
        for part in path:
            owner = getattr(owner, part, None)
        if leaf not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{attr}")
    assert missing == []
