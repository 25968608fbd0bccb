"""What runs with what: the one table of legal run cells.

A run occupies a *cell* of the matrix mode x coherence backend x data
plane x perturbation.  Most of the matrix runs; the holes are stated
once, in :data:`HOLES`, each with the message its
:class:`~repro.errors.ReproError` carries.  ``harness.spec.run``,
``TmSystem`` and the sweep driver all ask :func:`require` and hold no
rule of their own; the CLI derives its sweep flags, ``docs/
robustness.md`` its feature matrix and ``tests/unit/test_capability.py``
its conformance matrix from :func:`legal_cells`.

Imports nothing but :mod:`repro.errors` at module level: every layer
that consults the table sits above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product
from typing import FrozenSet, Iterator, List, Optional

from repro.errors import ReproError

MODES = ("seq", "dsm", "xhpf", "mp")
PLANES = ("twosided", "onesided")
#: What a fault plan can do to a run, named after the plan field that
#: asks for it: message ``faults`` (or the reliable transport alone),
#: node ``crashes``, elastic ``membership``.  The chaos, recover and
#: elastic sweeps each prove one of them harmless.
PERTURBATIONS = ("faults", "crashes", "membership")


@dataclass(frozen=True)
class Cell:
    """One point of the run matrix (names normalised, no ``None``)."""

    mode: str = "dsm"
    protocol: str = "mw-lrc"
    data_plane: str = "twosided"
    perturbations: FrozenSet[str] = frozenset()


#: The holes, in the order they are checked: (predicate over a Cell,
#: message formatted with the cell as ``c``).
HOLES = (
    (lambda c: c.mode != "dsm" and c.protocol != "mw-lrc",
     "protocol={c.protocol!r} selects a DSM coherence backend; mode "
     "{c.mode!r} does not run the DSM"),
    (lambda c: c.mode != "dsm" and c.data_plane == "onesided",
     "data_plane='onesided' lowers the DSM protocol onto one-sided ops; "
     "mode {c.mode!r} does not run the DSM"),
    (lambda c: c.data_plane == "onesided"
     and "crashes" in c.perturbations,
     "data_plane='onesided' does not support scheduled node crashes "
     "(backup logging replays the two-sided diff protocol); run crash "
     "schedules on the default data plane"),
    (lambda c: c.mode == "seq" and c.perturbations,
     "mode 'seq' has no network: faults/transport do not apply"),
    (lambda c: c.mode != "dsm" and "crashes" in c.perturbations,
     "node crashes need the DSM recovery subsystem; mode {c.mode!r} "
     "cannot recover a crashed node (use mode 'dsm' or drop the crashes "
     "from the fault plan)"),
    (lambda c: c.protocol != "mw-lrc" and "crashes" in c.perturbations,
     "crash recovery supports only protocol='mw-lrc' (backup logging "
     "replays its diff protocol), not {c.protocol!r}; drop the crashes "
     "from the fault plan or switch protocols"),
    (lambda c: c.mode != "dsm" and "membership" in c.perturbations,
     "membership events need the DSM membership subsystem; mode "
     "{c.mode!r} cannot re-shard a drained node (use mode 'dsm' or drop "
     "membership from the fault plan)"),
    (lambda c: c.protocol != "mw-lrc"
     and "membership" in c.perturbations,
     "elastic membership supports only protocol='mw-lrc' (the handoff "
     "re-shards its lock/diff protocol), not {c.protocol!r}"),
)


def perturbations_of(faults=None, transport=None) -> FrozenSet[str]:
    """What a fault plan / transport setting asks of a run."""
    found = set()
    if faults is not None or transport:
        found.add("faults")
    if faults is not None and faults.crashes:
        found.add("crashes")
    if faults is not None and faults.membership is not None:
        found.add("membership")
    return frozenset(found)


def cell_of(mode: str, protocol: Optional[str] = None,
            data_plane: Optional[str] = None,
            perturbations=()) -> Cell:
    """The cell a run with these arguments occupies; unknown mode,
    protocol or data-plane names raise ``ReproError``."""
    if mode not in MODES:
        raise ReproError(
            f"unknown mode {mode!r}; expected one of {MODES}")
    if protocol is not None:
        from repro.tm.coherence import get_backend
        get_backend(protocol)   # unknown names raise ReproError
    if data_plane not in (None, *PLANES):
        raise ReproError(
            f"unknown data_plane {data_plane!r}; expected "
            f"'twosided' (default) or 'onesided'")
    return Cell(mode, protocol or "mw-lrc", data_plane or "twosided",
                frozenset(perturbations))


def _hole(cell: Cell) -> Optional[int]:
    return next((i for i, (pred, _) in enumerate(HOLES) if pred(cell)),
                None)


def require(cell: Cell) -> Cell:
    """``cell`` itself if it is legal; else raise its hole's message."""
    i = _hole(cell)
    if i is not None:
        raise ReproError(HOLES[i][1].format(c=cell))
    return cell


def all_cells() -> Iterator[Cell]:
    """Every cell, legal or not, with at most one perturbation."""
    from repro.tm.coherence import protocols
    for mode, proto, plane, pert in product(
            MODES, protocols(), PLANES, (None, *PERTURBATIONS)):
        yield Cell(mode, proto, plane,
                   frozenset((pert,) if pert else ()))


def legal_cells() -> List[Cell]:
    """The cells of :func:`all_cells` that run."""
    return [c for c in all_cells() if _hole(c) is None]


def render_matrix() -> str:
    """The feature matrix as the markdown block of docs/robustness.md:
    one row per mode/backend/plane, one column per perturbation, each
    hole footnoted with the error its cell raises.  Rows in which
    nothing runs are listed under their footnote instead."""
    head = ["mode", "backend", "data plane", "unperturbed",
            *PERTURBATIONS]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    notes, dead = {}, {}
    for name, row in groupby(all_cells(), key=lambda c: (
            c.mode, c.protocol, c.data_plane)):
        row = list(row)
        holes = [_hole(cell) for cell in row]
        for i, cell in zip(holes, row):
            if i is not None:
                notes.setdefault(i, HOLES[i][1].format(c=cell))
        if holes[0] is not None and len(set(holes)) == 1:
            dead.setdefault(holes[0], []).append("/".join(name))
            continue
        lines.append("| " + " | ".join(
            [*name, *("yes" if i is None else f"no [{i + 1}]"
                      for i in holes)]) + " |")
    lines.append("")
    for i in sorted(notes):
        lines.append(f"{i + 1}. `{notes[i]}`" + (
            f" (no row shown: {', '.join(dead[i])})" if i in dead else ""))
    return "\n".join(lines)


__all__ = ["MODES", "PLANES", "PERTURBATIONS", "Cell", "HOLES",
           "perturbations_of", "cell_of", "require", "all_cells",
           "legal_cells", "render_matrix"]
