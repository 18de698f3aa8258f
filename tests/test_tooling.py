"""Repository-wide guards on the library source."""

import argparse
import ast
import importlib.util
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from ginlab.cli import build_parser
from ginlab.experiments import expected_curve_regularity
from ginlab.groebner import DEFAULT_DEGREE_CAP

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ginlab"
BENCH = ROOT / "bench"
TRACING = BENCH / "tracing.py"
ORACLES = ROOT / "tests" / "oracles.py"


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


def test_curve_run_is_the_same_under_python_O(tmp_path):
    # the dense divisor tables, the pair criteria and the partial elimination tower
    _same_under_python_O(tmp_path, ["curve", "--a", "3", "--b", "3", "--seed", "1"])


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


def _library_readers():
    # names loaded, or looked up as attributes, in the library outside
    # __init__; a function or class reading its own name does not count
    readers = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = {node.id for node in ast.walk(stmt)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            readers |= names - {getattr(stmt, "name", None)}
    return readers


def test_every_export_has_a_reader():
    # a public name that only tests call is test code shipped in the library
    init = ast.parse((SRC / "__init__.py").read_text())
    exports = [alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(exports) > 40
    library = _library_readers()
    texts = [(ROOT / "README.md").read_text()]
    texts += [path.read_text() for path in sorted(BENCH.glob("*")) if path.is_file()]
    unread = [
        name for name in exports
        if name not in library
        and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    ]
    assert unread == []


#: Modules of the paths the oracles check, and the ring's shared tables that
#: those paths index into.
CHECKED_MODULES = {"groebner", "partial_elim", "segments", "fourier_motzkin", "gin",
                   "monomial_ideals"}
SHARED_TABLES = {"graded_piece", "positions", "positions_at", "positions_times",
                 "variable_shifts"}


def test_oracles_share_no_code_with_the_paths_they_check():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    imported = set()  # module path parts and names of every ginlab import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ginlab"):
            imported |= set(node.module.split(".")) | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert imported & CHECKED_MODULES == set()
    assert called & SHARED_TABLES == set()


def _unused_imports(path):
    # names an import binds that the module never loads
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in loaded]


def test_no_unused_imports():
    # the package __init__ imports only to re-export
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted(BENCH.glob("*.py"))
    assert len(paths) > 30
    assert [found for path in paths for found in _unused_imports(path)] == []


def _string_constants(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_cli_option_is_exercised():
    # an option that no test, bench job or README command passes is a
    # branch nothing runs; options are compared as whole argv strings
    exercised = set()
    for path in sorted((ROOT / "tests").glob("*.py")) + sorted(BENCH.glob("*.py")):
        exercised |= _string_constants(path)
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("ginlab "):
            exercised |= set(re.findall(r"--[\w-]+", line))
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert len(subparsers.choices) > 6
    unexercised = [
        f"{name} {action.option_strings[-1]}"
        for name, parser in subparsers.choices.items()
        for action in parser._actions
        if action.option_strings and not exercised & set(action.option_strings)
    ]
    assert unexercised == []


#: The functions that build a root ideal, and the low-level Groebner entry
#: point; every other ideal inherits its degree cap from the one it comes from.
CAP_TAKERS = {"groebner.Ideal.__init__", "groebner.buchberger", "points.vanishing_ideal",
              "experiments.experiment_curve", "experiments.experiment_nonsmooth",
              "experiments.experiment_points", "experiments.experiment_sylvester"}


def _functions(body, prefix):
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
            yield from _functions(node.body, f"{prefix}{node.name}.")


def test_only_ideal_builders_take_a_degree_cap():
    # a query that takes its own cap can run past the cap of the ideal it reads
    takers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in _functions(tree.body, f"{path.stem}."):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if any(a.arg == "degree_cap" for a in params):
                takers.add(name)
    assert sorted(takers) == sorted(CAP_TAKERS)


def test_only_the_constructor_and_linear_images_assign_a_hilbert_witness():
    # a copy of an ideal with other generators needs its witness handed
    # over by hand; an ideal starts a fresh witness list and only a linear
    # image shares its source's, so a level has no reduced copy beside it
    assigners = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(sub): name for name, node in _functions(tree.body, f"{path.stem}.")
                 for sub in ast.walk(node)}  # inner functions come later and win
        assigners += [owner.get(id(node), path.stem) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "hilbert_witness"
                      and isinstance(node.ctx, ast.Store)]
    assert sorted(assigners) == ["gin._apply_invertible", "groebner.Ideal.__init__"]


def test_every_order_has_both_keys_and_pieces_sort_without_sort_key():
    # scalar callers rank with sort_key; graded pieces sort whole columns
    # with key_columns, so the ring's tables never call a per-tuple key
    orders = ast.parse((SRC / "orders.py").read_text())
    classes = {node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
               for node in orders.body if isinstance(node, ast.ClassDef)}
    assert {"Lex", "Revlex", "WeightOrder", "ProductOrder"} <= set(classes)
    assert [name for name, methods in classes.items()
            if not {"sort_key", "key_columns"} <= methods] == []
    rings = ast.parse((SRC / "rings.py").read_text())
    uses = [node.lineno for node in ast.walk(rings)
            if (isinstance(node, ast.Attribute) and node.attr == "sort_key")
            or (isinstance(node, ast.Name) and node.id == "sort_key")]
    assert uses == []


def _acceptance_curve_grid():
    # the (a, b, cap) list test_criterion_1_curve_grid is parametrized over
    path = ROOT / "tests" / "test_acceptance.py"
    test = next(node for node in ast.parse(path.read_text(), filename=str(path)).body
                if isinstance(node, ast.FunctionDef) and node.name == "test_criterion_1_curve_grid")
    params = next(dec for dec in test.decorator_list
                  if isinstance(dec, ast.Call) and getattr(dec.func, "attr", None) == "parametrize")
    return ast.literal_eval(params.args[1])


def test_readme_curve_grid_matches_the_theorem_and_the_acceptance_caps():
    # the README grid has drifted from the code before: every row must print
    # the theorem's regularity, and the rows past (3,4) must name the caps
    # the slow acceptance test runs, each past its regularity
    rows = [tuple(map(int, row)) for row in re.findall(
        r"^\| \((\d+),(\d+)\) \| (\d+)(?: \(default\))? \| (\d+) \|",
        (ROOT / "README.md").read_text(), re.M)]
    assert [(a, b) for a, b, _, _ in rows[:2]] == [(3, 3), (3, 4)]
    assert [reg for _, _, _, reg in rows] == [expected_curve_regularity(a, b)
                                              for a, b, _, _ in rows]
    assert [cap for _, _, cap, _ in rows[:2]] == [DEFAULT_DEGREE_CAP] * 2
    assert [(a, b, cap) for a, b, cap, _ in rows[2:]] == _acceptance_curve_grid()
    assert [(a, b) for a, b, cap, reg in rows[2:] if cap <= reg] == []


def _bench_run():
    """bench/run.py as a module; bench/ is imported and read, never written."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_jobs_match_their_reference_digests(tmp_path):
    # every fp and exact job at seed 1, through the benchmark's own job
    # runner: exit 0, the reference digest of its masked report, and
    # independently re-checked weight witnesses.  Only the benchmark's own
    # --record-reference run records a digest
    import ginlab.cli

    bench = _bench_run()
    reference = bench.checks.load_reference()
    problems = []
    for workload in bench.WORKLOADS:
        reports = {}
        for job in bench.jobs_for(workload, 1):
            _, found = bench.run_job(ginlab.cli, job, str(tmp_path), reports, reference, workload)
            problems += [f"{workload}/{job.label}: {p}" for p in found]
    assert problems == []


def test_a_traced_pass_calls_every_layer_predicted_for_its_workload(tmp_path):
    # one traced pass of each workload's seed-1 jobs, through the
    # benchmark's own runner and tracer: a layer listed for a workload that
    # no job calls there (say, a coordinate change that stops going through
    # Polynomial.substitute) fails here, not in a traced benchmark run
    import ginlab.cli

    bench = _bench_run()
    for workload in bench.WORKLOADS:
        workdir = tmp_path / workload
        workdir.mkdir()
        runner = bench.Runner(ginlab.cli, workload, 1, str(workdir))
        [(stats, *_)] = runner.traced(0, bench.Tracer(time.perf_counter()))
        bench.check_predicted_calls(workload, stats)
        assert runner.problems == []
