"""One matrix, one record, one baseline.

``harness.modes.run_matrix`` enumerates every unperturbed run cell,
``RunOutcome.record()`` is what a finished cell becomes, and
``benchmarks/baselines/protocol.json`` pins exactly those records under
exactly those keys; check and a trace's ``metrics_total`` are views of
the same numbers.
"""

import pytest

from repro.capability import HOLES, cell_of
from repro.errors import ReproError
from repro.harness import RunSpec, run
from repro.harness.modes import SIZING, run_matrix
from repro.harness.outcome import COUNT_FIELDS
from repro.inspect import baseline


def keys(**filters):
    return [spec.key for spec in run_matrix(**filters)]


# ----------------------------------------------------------------------
# The enumerator's contract.
# ----------------------------------------------------------------------

def test_every_cell_has_a_baseline_entry_and_no_entry_is_orphaned():
    stored = baseline.load()
    enumerated = keys()
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == set(stored)
    for spec in run_matrix():
        assert RunSpec(**stored[spec.key]["config"]) == spec


def test_the_order_is_deterministic_and_paper_first():
    assert keys() == keys()
    firsts = list(dict.fromkeys(k.split("/")[0] for k in keys()))
    assert firsts == ["jacobi", "fft3d", "is", "shallow", "gauss", "mgs"]
    assert keys(apps=["jacobi"], protocols=["mw-lrc"],
                data_planes=["twosided"]) == [
        "jacobi/seq", "jacobi/dsm/base", "jacobi/dsm/aggr",
        "jacobi/dsm/aggr+cons", "jacobi/dsm/merge", "jacobi/dsm/push",
        "jacobi/xhpf", "jacobi/mp"]
    # A filter is also an order.
    assert keys(apps=["mgs", "is"], modes=("mp", "seq")) == [
        "mgs/mp", "mgs/seq", "is/mp", "is/seq"]


def test_no_hole_is_ever_yielded_and_every_spec_is_at_the_stated_size():
    for spec in run_matrix():
        cell = cell_of(spec.mode, spec.protocol, spec.data_plane)
        assert not any(pred(cell) for pred, _ in HOLES), spec.key
        assert {f: getattr(spec, f) for f in SIZING} == SIZING
    assert all(s.nprocs == 2 for s in run_matrix(apps=["is"], nprocs=2))


def test_the_papers_not_applicable_bars_have_no_cell():
    assert not [k for k in keys(apps=["is"]) if "/xhpf" in k]
    assert not [k for k in keys(apps=["shallow"])
                if "/merge" in k or "/push" in k]
    assert "is/dsm/push" not in keys() and "is/dsm/merge" in keys()


def test_filters_compose():
    picked = keys(protocols=["hlrc"], data_planes=["onesided"])
    assert picked and picked == [k for k in keys()
                                 if k.endswith("+onesided@hlrc")]
    assert keys(apps=["jacobi"], opts=["push", "base"],
                protocols=["hlrc"], data_planes=["twosided"]) == [
        "jacobi/dsm/push@hlrc", "jacobi/dsm/base@hlrc"]
    # seq, mp and xhpf are cells of the default backend and plane only.
    assert {k.split("/")[1] for k in keys(protocols=["mw-lrc"])} == {
        "seq", "dsm", "xhpf", "mp"}
    assert {k.split("/")[1] for k in keys(protocols=["hlrc"])} == {"dsm"}
    with pytest.raises(ReproError, match="unknown coherence protocol"):
        keys(protocols=["bogus"])
    with pytest.raises(ReproError, match="unknown data_plane"):
        keys(data_planes=["sideways"])


def test_a_key_names_its_spec_and_back():
    for spec in run_matrix():
        assert RunSpec.from_key(spec.key, **SIZING) == spec
    explicit = RunSpec(app="is", opt="aggr+cons", protocol="mw-lrc",
                       data_plane="twosided")
    assert explicit.key == "is/dsm/aggr+cons"
    assert baseline.selected("is/dsm/aggr+cons", "mw-lrc", "twosided")
    assert baseline.selected("is/mp", protocol="mw-lrc")
    assert not baseline.selected("is/dsm/base+onesided@hlrc",
                                 data_plane="twosided")


# ----------------------------------------------------------------------
# One record per finished run.
# ----------------------------------------------------------------------

TOTALS = ["time_us", "messages", "data_bytes"]


@pytest.mark.parametrize("mode,data_plane,want", [
    ("seq", None, TOTALS),
    ("mp", None, TOTALS),
    ("xhpf", None, TOTALS),
    ("dsm", None, [*TOTALS, "counts", "messages_by_kind"]),
    ("dsm", "onesided",
     [*TOTALS, "counts", "messages_by_kind", "onesided"]),
])
def test_record_keys_and_its_flat_rendering(mode, data_plane, want):
    out = run(RunSpec(app="jacobi", mode=mode, data_plane=data_plane,
                      opt="aggr" if mode == "dsm" else None,
                      telemetry=True, **SIZING))
    rec = out.record()
    assert list(rec) == want
    assert (rec["time_us"], rec["messages"], rec["data_bytes"]) == (
        out.time, out.messages, out.data_bytes)
    total = out.telemetry.metrics_total
    if mode == "seq":
        assert (out.net, out.stats, rec["messages"], total) == (
            None, None, 0, {})
        return
    assert total == out.metrics_total()
    flat = {"net.messages": rec["messages"],
            "net.bytes": rec["data_bytes"]}
    if mode == "dsm":
        assert list(rec["counts"]) == list(COUNT_FIELDS)
        assert sum(rec["messages_by_kind"].values()) == rec["messages"]
        flat.update((f"tm.{k}", v) for k, v in rec["counts"].items())
        flat.update((f"net.msgs.{k}", v)
                    for k, v in rec["messages_by_kind"].items())
    assert flat.items() <= total.items()
    if data_plane:
        assert rec["onesided"] == {
            "ops": out.net.onesided_ops,
            "batches": out.net.onesided_batches,
            "bytes": out.net.onesided_bytes,
            "cas_failures": out.net.onesided_cas_failures}
    assert out.profile is None
