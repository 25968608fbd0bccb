"""The CLI surface: typed errors, shared flags, and docs that name it."""

import ast
import importlib.util
import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

import repro.__main__ as cli
from repro.errors import ReproError
from repro.harness import experiments as ex
from repro.sanitizer.replay import sanitize_run

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("argv", [
    ["inspect", "jacobi", "--mode", "seq", "--profile"],
    ["inspect", "jacobi", "--mode", "mp", "--protocol", "hlrc"],
    ["recover", "--apps", "jacobi", "--plan", "/nonexistent.json"],
])
def test_typed_errors_leave_as_one_line_and_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sanitize_names_what_to_sanitize(capsys):
    """No app and no --corpus used to run the clean matrix silently;
    every run cell is sanitized by ``check`` now."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["sanitize"])
    assert exc.value.code == 2
    assert "python -m repro check" in capsys.readouterr().err


def test_unknown_opt_level_is_a_typed_error_everywhere(capsys):
    with pytest.raises(ReproError, match="unknown opt level 'bogus'"):
        sanitize_run("jacobi", opt="bogus")
    for sub in ("sanitize", "inspect"):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "jacobi", "--opt", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_replaying_a_trace_without_access_events_fails(capsys, tmp_path):
    """An ``inspect --jsonl`` trace records no ``rt.*`` accesses: its
    replay is refused, not judged clean."""
    path = tmp_path / "ev.jsonl"
    assert cli.main(["inspect", "jacobi", "--opt", "aggr+cons",
                     "--jsonl", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["sanitize", "jacobi", "--opt", "aggr+cons",
                     "--replay", str(path)]) == 1
    out = capsys.readouterr().out
    assert "CLEAN" not in out
    assert "[stream] the stream holds no access events" in out


def test_a_profiled_inspect_prints_the_attribution(capsys):
    """``inspect --profile`` is the one way to watch a run's host time:
    the report, then the wall-clock table with its hand-off count."""
    assert cli.main(["inspect", "jacobi", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "Wall-clock attribution" in out
    assert re.search(r"\d+ thread hand-offs", out)


def test_a_sweep_header_says_which_data_plane_ran(capsys):
    argv = ["--apps", "jacobi", "--opts", "aggr", "--json", "-"]
    for sweep, extra, plane in (
            ("chaos", ["--intensity", "light"], None),
            ("chaos", ["--intensity", "light", "--data-plane",
                       "onesided"], "onesided"),
            ("recover", ["--schedules", "manager"], None)):
        assert cli.main([sweep, *argv, *extra]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["data_plane"] == plane and header["protocol"] is None
        assert list(header)[-3:] == ["protocol", "data_plane", "cases"]


def test_a_closed_stdout_is_a_quiet_exit():
    """``python -m repro ... | head``: no traceback, SIGPIPE's status."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "inspect", "jacobi", "--json",
         "-"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    proc.stdout.close()         # the reader is gone before the output
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 128 + signal.SIGPIPE
    assert err == ""


FLAG = re.compile(r"--[a-z][a-z-]*")


def _flags(argv, capsys) -> set:
    with pytest.raises(SystemExit):
        cli.main([*argv, "-h"])
    return set(FLAG.findall(capsys.readouterr().out))


def test_every_documented_command_line_exists(capsys):
    """``python -m repro <word> [--flags]`` anywhere in the README,
    DESIGN.md, EXPERIMENTS.md, the docs, the verify skill, CI, the
    examples' docstrings or the entry point's own usage block names a
    subcommand or artifact that exists, with flags its parser has."""
    artifacts = set(ex.ARTIFACTS) | {"all"}
    texts = {str(p.relative_to(ROOT)): p.read_text() for p in
             [ROOT / "README.md", ROOT / "DESIGN.md",
              ROOT / "EXPERIMENTS.md", ROOT / ".github/workflows/smoke.yml",
              ROOT / ".claude/skills/verify/SKILL.md",
              *sorted((ROOT / "docs").glob("*.md"))]}
    for path in sorted((ROOT / "examples").glob("*.py")):
        texts[f"{path.name} docstring"] = ast.get_docstring(
            ast.parse(path.read_text())) or ""
    texts["repro.__main__ docstring"] = cli.__doc__
    flags = {}
    for where, text in texts.items():
        for word, rest in re.findall(
                r"python -m repro\s+([A-Za-z][\w-]*)([^\n`#|]*)", text):
            line = f"{where}: python -m repro {word}{rest}"
            assert word in cli.SUBCOMMANDS or word in artifacts, line
            if word not in flags:
                flags[word] = _flags(
                    [word] if word in cli.SUBCOMMANDS else [], capsys)
            assert set(FLAG.findall(rest)) <= flags[word], line
    assert set(cli.SUBCOMMANDS) <= set(flags), "an undocumented subcommand"


def _resolves(dotted: str) -> bool:
    """``repro.a.b...`` names a module, or attributes of the longest
    importable module prefix."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_documented_plans_and_imports_exist():
    """Every ``json`` block of docs/robustness.md is a fault plan that
    ``plan_from_dict`` accepts, every ``from repro... import ...`` in
    the README, DESIGN.md, the docs and the examples names a symbol that
    exists, and so does every backticked ``repro.a.b...`` reference in
    the README, DESIGN.md, the docs and the verify skill."""
    from repro.faults import plan_from_dict
    doc = (ROOT / "docs/robustness.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", doc, re.S)
    assert blocks
    for block in blocks:
        plan_from_dict(json.loads(block))
    docs = [ROOT / "README.md", ROOT / "DESIGN.md",
            *sorted((ROOT / "docs").glob("*.md"))]
    for path in [*docs, *sorted((ROOT / "examples").glob("*.py"))]:
        for module, names in re.findall(
                r"from (repro[\w.]*) import (\([^)]*\)|[^\n]+)",
                path.read_text()):
            for name in names.strip("()").replace("\n", " ").split(","):
                name = name.split(" as ")[0].strip()
                line = f"{path.name}: from {module} import {name}"
                try:
                    mod = importlib.import_module(module)
                except ImportError:
                    pytest.fail(line)
                assert hasattr(mod, name) or importlib.util.find_spec(
                    f"{module}.{name}") is not None, line
    refs = [(path.name, ref)
            for path in [*docs, ROOT / ".claude/skills/verify/SKILL.md"]
            for ref in re.findall(r"`(repro(?:\.\w+)+)", path.read_text())]
    assert refs
    for where, ref in refs:
        assert _resolves(ref), f"{where}: `{ref}`"


def test_ci_runs_the_whole_suite_unfiltered():
    """Some CI step runs ``python -m pytest`` with options only: no test
    path, no ``-m`` marker and no ``-k`` expression narrowing it."""
    text = (ROOT / ".github/workflows/smoke.yml").read_text()
    runs = [line.split("python -m pytest", 1)[1].split()
            for line in text.splitlines() if "python -m pytest" in line]
    assert any(all(arg.startswith("-")
                   and not arg.startswith(("-m", "-k", "--ignore",
                                           "--deselect"))
                   for arg in args) for args in runs), runs


#: The calls that book a CPU charge, whose span is named by a string
#: argument (``charge(name, us)``; ``advance``, ``steal_cpu``,
#: ``_charge`` and ``Endpoint.charge`` take it second).
BOOKING = ("charge", "advance", "steal_cpu", "_charge")


def _emitted_kinds():
    """Every kind or span name handed to ``tel.event/span/access``
    under ``src/repro`` (and to ``Telemetry``'s own ``self.event``), to
    ``TmNode._waited`` (which emits its span) or to a booking call
    (:data:`BOOKING`), as ``(literals, prefixes)``: an f-string such as
    ``f"fault.{kind}"`` counts as its literal head."""
    literals, prefixes = {}, {}
    for path in sorted((ROOT / "src/repro").rglob("*.py")):
        own = path.name == "core.py" and path.parent.name == "telemetry"
        tree = ast.parse(path.read_text())
        # _waited forwards its caller's span name: counted at the call.
        forwarding = {id(n) for f in ast.walk(tree)
                      if isinstance(f, ast.FunctionDef)
                      and f.name == "_waited" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and id(node) not in forwarding):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            if node.func.attr == "_waited":
                kind = node.args[0]
            elif node.func.attr in BOOKING:
                literals.update((a.value, where) for a in node.args
                                if isinstance(a, ast.Constant)
                                and isinstance(a.value, str))
                continue
            elif node.func.attr in ("event", "span", "access"):
                receiver = ast.unparse(node.func.value)
                if not (receiver.endswith("tel")
                        or own and receiver == "self"):
                    continue
                kind = node.args[1]
            else:
                continue
            if isinstance(kind, ast.Constant):
                literals[kind.value] = where
            else:
                assert isinstance(kind, ast.JoinedStr) and isinstance(
                    kind.values[0], ast.Constant), \
                    f"{where}: event kind is not a literal"
                prefixes[kind.values[0].value] = where
    return literals, prefixes


def test_the_event_taxonomy_matches_what_the_source_emits():
    """docs/observability.md's event and span tables name exactly the
    kinds the source emits."""
    doc = (ROOT / "docs/observability.md").read_text()
    section = doc.split("## Event taxonomy")[1].split("\n## ")[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`([\w.]+)`",
                                         line.split("|")[1]))
    literals, prefixes = _emitted_kinds()
    for prefix, where in prefixes.items():
        assert any(k.startswith(prefix) for k in documented), \
            f"{where}: no documented kind starts with {prefix!r}"
    undocumented = {k: w for k, w in literals.items()
                    if k not in documented}
    assert not undocumented, f"emitted but undocumented: {undocumented}"
    never = {k for k in documented if k not in literals
             and not any(k.startswith(p) for p in prefixes)}
    assert not never, f"documented but never emitted: {sorted(never)}"


def test_the_span_table_gives_every_name_its_category():
    """docs/observability.md's span table is ``spans.CATEGORY``."""
    from repro.telemetry.spans import CATEGORY

    doc = (ROOT / "docs/observability.md").read_text()
    table = doc.split("| Span | Category | Covers |")[1].split("\n\n")[0]
    documented = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            _, names, category, _ = line.split("|", 3)
            for name in re.findall(r"`([\w.]+)`", names):
                documented[name] = category.strip()
    assert documented == CATEGORY
