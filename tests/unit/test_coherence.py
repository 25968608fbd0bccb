"""The coherence-backend registry and protocol plumbing."""

import pytest

from repro.errors import ReproError
from repro.harness import RunSpec, run
from repro.tm.coherence import (DEFAULT_PROTOCOL, CoherenceBackend,
                                get_backend, protocols)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------

def test_default_protocol_is_the_papers():
    assert DEFAULT_PROTOCOL == "mw-lrc"
    assert get_backend(None).name == "mw-lrc"
    assert get_backend("mw-lrc") is get_backend(None)


def test_registry_names():
    names = protocols()
    assert set(names) == {"mw-lrc", "hlrc"}
    for name in names:
        cls = get_backend(name)
        assert issubclass(cls, CoherenceBackend)
        assert cls.name == name


def test_protocol_doc_hook_table_is_the_contract():
    """docs/protocol.md's hook table names exactly CoherenceBackend's
    public methods: a deleted hook cannot stay listed, nor a new one
    go unlisted."""
    import re
    from pathlib import Path

    doc = (Path(__file__).resolve().parents[2] / "docs"
           / "protocol.md").read_text()
    table = doc.split("| Hook | Called when |", 1)[1].split("\n\n", 1)[0]
    listed = set()
    for row in table.splitlines()[2:]:
        hooks = row.split("|")[1]
        listed.update(re.findall(r"`(\w+)`", hooks))
    public = {name for name, attr in vars(CoherenceBackend).items()
              if callable(attr) and not name.startswith("_")}
    assert listed == public


def test_unknown_protocol_lists_choices():
    with pytest.raises(ReproError) as exc:
        get_backend("treadmarks")
    msg = str(exc.value)
    assert "treadmarks" in msg
    for name in ("mw-lrc", "hlrc"):
        assert name in msg


def test_runspec_rejects_unknown_protocol():
    with pytest.raises(ReproError):
        run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                    protocol="nope"))


def test_runspec_rejects_non_dsm_protocol():
    with pytest.raises(ReproError):
        run(RunSpec(app="jacobi", mode="mp", dataset="tiny", nprocs=4,
                    protocol="hlrc"))
    # The default backend name is allowed anywhere (it's a no-op).
    out = run(RunSpec(app="jacobi", mode="seq", dataset="tiny",
                      protocol="mw-lrc"))
    assert out.time > 0


def test_recovery_is_mw_lrc_only():
    from repro.faults import Absence, FaultPlan

    plan = FaultPlan(absences=(Absence("crash", 1, 100.0, 20000.0),))
    with pytest.raises(ReproError):
        run(RunSpec(app="jacobi", mode="dsm", dataset="tiny", nprocs=4,
                    page_size=1024, protocol="hlrc", faults=plan))


# ----------------------------------------------------------------------
# Backend-owned counters.
# ----------------------------------------------------------------------

def run_tiny(protocol):
    return run(RunSpec(app="jacobi", mode="dsm", dataset="tiny",
                       nprocs=4, opt="base", page_size=1024,
                       protocol=protocol))


def test_home_counters_zero_under_mw_lrc():
    out = run_tiny("mw-lrc")
    s = out.stats
    assert (s.home_flushes, s.home_applies, s.page_fetches,
            s.pages_served) == (0, 0, 0, 0)
    assert s.diffs_applied > 0


def test_hlrc_homes_never_twin_their_pages():
    out = run_tiny("hlrc")
    s = out.stats
    assert s.home_flushes > 0
    assert s.home_applies > 0
    assert s.pages_served == s.page_fetches > 0
    # mw-lrc's diff-serving machinery stays cold.
    assert s.full_pages_served == 0

