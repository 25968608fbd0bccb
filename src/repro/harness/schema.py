"""One versioned envelope for every machine-readable payload.

Every enveloped ``--json`` output of the CLI — the five kinds
``bench``, ``chaos``, ``recover``, ``elastic`` and ``sanitize`` —
starts with the same two keys::

    {"schema": "repro-<kind>/<version>", "generated_by": "repro 1.0.0", ...}

``schema`` names the payload shape and its version — consumers must
check it before interpreting the rest — and ``generated_by`` records
the producing package version.  Both are deterministic (no hostnames,
no timestamps), so two payloads of the same tree can be compared
byte-for-byte.
"""

from __future__ import annotations

from repro import __version__

GENERATED_BY = f"repro {__version__}"


def schema_id(kind: str, version: int = 1) -> str:
    """The canonical schema string for payload ``kind``."""
    return f"repro-{kind}/{version}"


def envelope(kind: str, version: int = 1, **payload) -> dict:
    """A payload dict opening with the shared versioned envelope."""
    return {"schema": schema_id(kind, version),
            "generated_by": GENERATED_BY, **payload}


__all__ = ["GENERATED_BY", "schema_id", "envelope"]
