"""The coherence-backend registry, home policy, and protocol plumbing."""

import pytest

from repro.errors import ReproError
from repro.harness import RunSpec, run
from repro.inspect.timeline import preferred_home
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
    assert {"mw-lrc", "hlrc", "adaptive"} <= set(names)
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
    for name in ("mw-lrc", "hlrc", "adaptive"):
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
# The adaptive home policy (shared with the inspector's rankings).
# ----------------------------------------------------------------------

def test_policy_no_activity_stays_put():
    assert preferred_home({}, current=0) is None


def test_policy_single_writer_flips_on_one_write():
    # First-write owner heuristic: min_activity does not gate it.
    assert preferred_home({2: (1, 0)}, current=0) == 2


def test_policy_single_writer_already_home():
    assert preferred_home({2: (5, 0)}, current=2) is None


def test_policy_multi_writer_needs_min_activity():
    act = {1: (1, 0), 2: (1, 0)}
    assert preferred_home(act, current=0, min_activity=3) is None
    assert preferred_home({1: (2, 1), 2: (1, 0)}, current=0,
                          min_activity=3) == 1


def test_policy_busiest_processor_wins():
    act = {1: (3, 1), 2: (1, 0), 3: (2, 0)}
    assert preferred_home(act, current=2) == 1


def test_policy_hysteresis_keeps_balanced_pages():
    # The candidate must strictly beat the current home's activity.
    act = {0: (2, 1), 1: (2, 1)}
    assert preferred_home(act, current=0) is None


def test_policy_ties_break_to_lowest_pid():
    act = {3: (2, 0), 1: (2, 0)}
    assert preferred_home(act, current=0) == 1


def test_policy_reader_dominated_page_migrates_to_consumer():
    # Two writers, one heavy remote consumer: the page moves to it.
    act = {0: (1, 0), 1: (1, 0), 2: (0, 4)}
    assert preferred_home(act, current=0) == 2


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
            s.pages_served, s.home_migrations) == (0, 0, 0, 0, 0)
    assert s.diffs_applied > 0


def test_hlrc_homes_never_twin_their_pages():
    out = run_tiny("hlrc")
    s = out.stats
    assert s.home_flushes > 0
    assert s.home_applies > 0
    assert s.pages_served == s.page_fetches > 0
    assert s.home_migrations == 0
    # mw-lrc's diff-serving machinery stays cold.
    assert s.full_pages_served == 0


def test_adaptive_reports_migrations():
    out = run_tiny("adaptive")
    assert out.stats.home_migrations > 0
