import ast
import contextlib
import importlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

from convexattn.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    # the traced benchmark pins function names and exact call counts;
    # its self-test fails here when a refactor breaks either
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout


def run_tap_serve(*mode):
    """Run the tap-serve workload at seed 0; assert it is correct with 0 failed operations."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tap-serve", "--seed", "0", *mode],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout + proc.stderr


def test_perfbench_tap_serve_runs():
    # the self-test runs tap-cv and swipe-fit; this runs the untraced
    # serve path: per-request predict against the batch labels, one
    # evaluate and the 32-bit export parity
    run_tap_serve("--seconds", "0.5")


def test_perfbench_tap_serve_traced_counts():
    # traced, a tap-serve call count that differs from the workload's pins
    # (serialize, deserialize, patchify, features_for, class_scores) is a
    # failed operation
    run_tap_serve("--trace", "1")


def test_no_unused_imports():
    # the package, the tests and the demos; the package's __init__.py is
    # skipped: its imports are the package's re-exports
    unused = []
    paths = [*(ROOT / "src" / "convexattn").glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "demos").glob("*.py")]
    for path in sorted(paths):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{ln}: {name}" for name, ln in imported.items()
                   if name not in used]
    assert not unused, unused


# the package's modules, lowest layer first: each imports only from
# modules before it, so no two modules import each other
LAYERS = ("numutil", "projections", "features", "model", "losses", "dataio", "trainer",
          "verify", "cli")


def test_modules_import_only_lower_layers():
    package = ROOT / "src" / "convexattn"
    assert {p.stem for p in package.glob("*.py")} - {"__init__"} == set(LAYERS)
    upward = []
    for i, layer in enumerate(LAYERS):
        for node in ast.walk(ast.parse((package / f"{layer}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # `from .x import f` names x; `from . import x, y` names x and y
                names = [node.module] if node.module else [a.name for a in node.names]
                upward += [f"{layer} imports {n}" for n in names if LAYERS.index(n) >= i]
    assert not upward, upward


def test_demo_imports_resolve():
    # a demo runs a full training, so its imports are checked statically:
    # a name deleted from the package fails here, not when a demo is run
    missing, checked = [], 0
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "convexattn":
                module = importlib.import_module(node.module)
                checked += len(node.names)
                missing += [f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert checked, "no convexattn import found in demos/"
    assert not missing, missing


def test_readme_commands_parse():
    # every `convexattn ...` line of the README's sh blocks must parse,
    # so a renamed or dropped flag fails here; nothing is run
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    commands = [shlex.split(line)[1:]
                for block in blocks for line in block.splitlines()
                if line.startswith("convexattn ")]
    assert commands, "no convexattn command found in README.md"
    refused = []
    for argv in commands:
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                build_parser().parse_args(argv)
        except SystemExit:
            refused.append(f"convexattn {shlex.join(argv)}: {stderr.getvalue().strip()}")
    assert not refused, refused
