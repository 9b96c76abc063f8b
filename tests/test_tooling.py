import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import os
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


# the cases whose files hold non-ASCII text: each reads and writes it as UTF-8
LOCALE_SENSITIVE = (
    "tests/test_dataio.py::test_csv_bytes_load_as_the_line_reader_reads_them",
    "tests/test_cli.py::test_predict_out_is_utf8_whatever_the_locale",
)


def test_non_ascii_cases_pass_under_an_ascii_locale():
    # the C locale, with neither UTF-8 mode nor C-locale coercion: a file
    # the package or a test opens with the locale's encoding fails here
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *LOCALE_SENSITIVE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


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


def test_float_conversion_has_one_owner():
    # numutil.as_floats is the one rule for an array input; a
    # np.asarray(x, dtype=float) elsewhere would cast complex values to
    # their real part and parse text
    package = ROOT / "src" / "convexattn"
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "numutil.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("asarray", "array")
                    and any(k.arg == "dtype" and isinstance(k.value, ast.Name)
                            and k.value.id == "float" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_array_is_promoted_to_another_rank():
    # each array argument takes one rank, named in its refusal; an
    # np.atleast_2d would read a 1-d array as one row instead
    found = []
    for path in sorted((ROOT / "src" / "convexattn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr.startswith("atleast_"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# exported callables that need no row in test_boundary's table, each
# with the reason
BOUNDARY_EXEMPT = {
    "kfold_evaluate": "takes its data through check_dataset, which train's row covers",
    "split_evaluate": "takes its data through check_dataset, which train's row covers",
    "convexity_check": "takes its data through check_dataset, which train's row covers",
    "load_csv": "reads a file; test_dataio's CSV_FILES table and corrupt-file property cover it",
    "save_csv": "writes a Dataset; test_dataio's fault table and property cover it",
    "synth_generate": "takes a SynthConfig, which checks its own fields",
    "rff_init": "takes a spec and numbers; their refusals are COUNTS examples",
    "deserialize": "reads bytes; test_model's flipped-byte property covers its faults",
    "load_model": "reads a file through deserialize",
    "serialize": "takes a ModelBundle, which refuses what would not load",
    "save_model": "writes through serialize",
    "param_count": "takes a ModelBundle, which refuses what would not load",
    "preset_config": "takes a preset name",
    "nonexpansiveness_sweep": "draws its own arrays; its counts are COUNTS examples",
    "softmax_counterexample": "takes no input",
}


def test_boundary_table_covers_exports():
    # a function exported by the package either has a row in the
    # boundary table or a reason above; a stale reason fails too
    import convexattn
    from test_boundary import ROWS

    exported = {name for name, f in vars(convexattn).items()
                if inspect.isfunction(f) and not name.startswith("_")}
    assert sorted(exported - set(ROWS) - set(BOUNDARY_EXEMPT)) == []
    assert sorted(set(BOUNDARY_EXEMPT) - exported) == []
    assert sorted(set(BOUNDARY_EXEMPT) & set(ROWS)) == []


# internal kernels that trust their one caller to have checked their
# input: none is exported, and a new caller fails here until it is
# confirmed to check the input first and added
TRUSTED = {
    "patchify": {"lift"},
    "rff_transform": {"lift"},
    "class_scores": {"predict"},
    "svd_thin": {"nuclear_ball_project"},
    "macro_f1": {"evaluate"},
    "squared_distance_to_simplex": {"softmax_counterexample"},
}


class _Uses(ast.NodeVisitor):
    """Each (name, innermost enclosing function) that a module reads."""

    def __init__(self):
        self.owner, self.found = "<module>", set()

    def visit_FunctionDef(self, node):
        outer, self.owner = self.owner, node.name
        self.generic_visit(node)
        self.owner = outer

    def visit_Name(self, node):
        self.found.add((node.id, self.owner))

    def visit_Attribute(self, node):
        self.found.add((node.attr, self.owner))
        self.generic_visit(node)


def test_trusted_kernels_are_internal_with_one_caller():
    import convexattn

    assert sorted(set(TRUSTED) & set(vars(convexattn))) == []
    uses = _Uses()
    for path in sorted((ROOT / "src" / "convexattn").glob("*.py")):
        uses.visit(ast.parse(path.read_text()))
    callers = {name: {owner for n, owner in uses.found if n == name} for name in TRUSTED}
    assert callers == TRUSTED


def test_every_load_csv_diagnostic_has_a_file_case():
    # each message load_csv raises or _line_fault returns, with every
    # {...} read as ".+", ends the outcome of some CSV_FILES row
    from test_dataio import CSV_FILES

    messages = []
    for f in ast.parse((ROOT / "src" / "convexattn" / "dataio.py").read_text("utf-8")).body:
        if isinstance(f, ast.FunctionDef) and f.name in ("load_csv", "_line_fault"):
            messages += [n.value for n in ast.walk(f) if isinstance(n, ast.Return)]
            messages += [n.args[0] for n in ast.walk(f) if isinstance(n, ast.Call)
                         and getattr(n.func, "id", None) == "ValueError"]

    def pattern(message):
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        return "".join(".+" if isinstance(p, ast.FormattedValue) else re.escape(p.value)
                       for p in parts)

    patterns = [pattern(m) for m in messages if isinstance(m, ast.JoinedStr)
                or isinstance(m, ast.Constant) and isinstance(m.value, str)]
    assert len(patterns) > 10, patterns  # the walk found the messages
    outcomes = [case.outcome for case in CSV_FILES.values()]
    assert [p for p in patterns if not any(re.search(f"{p}$", o) for o in outcomes)] == []


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


def test_every_cli_option_is_exercised():
    # every option string a subcommand defines (argparse's -h/--help
    # aside) is a whole token of some invocation in tests/test_cli.py: a
    # one-word argv string, or a command line that starts with its
    # subcommand, so --out is not matched by --out-model
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {o for sub in commands.values() for a in sub._actions
               if not isinstance(a, argparse._HelpAction) for o in a.option_strings}
    tokens = set()
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_cli.py").read_text("utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = node.value.split()
            if len(words) == 1 or words and words[0] in commands:
                tokens.update(words)
    assert len(options) > 10, options  # the walk found the options
    assert sorted(options - tokens) == []


def test_claims_ledger_names_checks_that_exist():
    # the README's claims ledger: one row per claim of the abstract, each
    # with a status, and every test (tests/<file>.py::<name>) or script
    # (studies/, perfbench/) a row names exists
    text = (ROOT / "README.md").read_text("utf-8")
    section = text.split("\n## Claims ledger\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")][2:]
    assert len(rows) == 7, rows
    missing = []
    for claim, check, measured, status in rows:
        assert status.startswith(("holds", "fails", "not checked")), (claim, status)
        refs = re.findall(r"`((?:tests|studies|perfbench)/[\w/.-]+\.py)(?:::(\w+))?", check)
        assert refs or status == "not checked", (claim, check)
        for path, name in refs:
            file = ROOT / path
            defined = ({f.name for f in ast.parse(file.read_text("utf-8")).body
                        if isinstance(f, ast.FunctionDef)} if file.is_file() else set())
            if not file.is_file() or name and name not in defined:
                missing.append(f"{claim}: {path}{'::' + name if name else ''}")
    assert not missing, missing
