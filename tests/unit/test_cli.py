"""The CLI surface: typed errors, shared flags, and docs that name it."""

import ast
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
from repro.sanitizer.replay import sanitize_run

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("argv", [
    ["trace", "jacobi", "--mode", "seq", "--profile"],
    ["trace", "jacobi", "--mode", "mp", "--protocol", "hlrc"],
    ["recover", "--apps", "jacobi", "--plan", "/nonexistent.json"],
])
def test_typed_errors_leave_as_one_line_and_exit_2(argv, capsys,
                                                   monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)     # trace would write its default --out
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unknown_opt_level_is_a_typed_error_everywhere(capsys):
    with pytest.raises(ReproError, match="unknown opt level 'bogus'"):
        sanitize_run("jacobi", opt="bogus")
    for sub in ("sanitize", "trace", "inspect", "report"):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "jacobi", "--opt", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_bench_data_planes_filters_the_mode_table_too(capsys):
    """``--data-planes`` without ``--protocols`` used to be dropped: the
    table showed the two-sided numbers under a one-sided request."""
    assert cli.main(["bench", "--apps", "jacobi", "--data-planes",
                     "onesided", "--json", "-"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert sorted(cells) == sorted(
        ["jacobi/seq", *(f"jacobi/dsm/{opt}+onesided" for opt in
                         ("base", "aggr", "aggr+cons", "merge", "push"))])
    assert cells["jacobi/dsm/base+onesided"]["onesided"]["ops"] > 0
    assert cli.main(["bench", "--apps", "jacobi", "--data-planes",
                     "onesided"]) == 0
    table = capsys.readouterr().out
    assert "dsm:base+onesided" in table and "dsm:base " not in table


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
        [sys.executable, "-m", "repro", "bench", "--apps", "jacobi",
         "--json", "-"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
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
    """``python -m repro <word> [--flags]`` anywhere in the README, the
    docs, CI or the entry point's own usage block names a subcommand or
    artifact that exists, with flags its parser has."""
    artifacts = set(cli.ARTIFACTS) | {"all"}
    texts = {p.name: p.read_text() for p in
             [ROOT / "README.md", ROOT / ".github/workflows/smoke.yml",
              *sorted((ROOT / "docs").glob("*.md"))]}
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


def _emitted_kinds():
    """Every kind or span name handed to ``tel.event/span/cpu/access``
    under ``src/repro`` (and to ``Telemetry``'s own ``self.event``), as
    ``(literals, prefixes)``: an f-string such as ``f"fault.{kind}"``
    counts as its literal head."""
    literals, prefixes = {}, {}
    for path in sorted((ROOT / "src/repro").rglob("*.py")):
        own = path.name == "core.py" and path.parent.name == "telemetry"
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("event", "span", "cpu",
                                           "access")):
                continue
            receiver = ast.unparse(node.func.value)
            if not (receiver.endswith("tel") or own and receiver == "self"):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            kind = node.args[1]
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
