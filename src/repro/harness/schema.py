"""One versioned envelope for every machine-readable payload.

Every enveloped ``--json`` output of the CLI — the seven kinds
``bench``, ``bench-protocols``, ``chaos``, ``recover``, ``elastic``,
``sanitize`` and ``perf`` — starts with the same two keys::

    {"schema": "repro-<kind>/<version>", "generated_by": "repro 1.0.0", ...}

``schema`` names the payload shape and its version — consumers must
check it before interpreting the rest — and ``generated_by`` records
the producing package version.  Both are deterministic (no hostnames,
no timestamps), so committed payloads such as the ``BENCH_*.json``
baselines can be compared byte-for-byte in CI.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import __version__
from repro.errors import ReproError

GENERATED_BY = f"repro {__version__}"


def schema_id(kind: str, version: int = 1) -> str:
    """The canonical schema string for payload ``kind``."""
    return f"repro-{kind}/{version}"


def envelope(kind: str, version: int = 1, **payload) -> dict:
    """A payload dict opening with the shared versioned envelope."""
    return {"schema": schema_id(kind, version),
            "generated_by": GENERATED_BY, **payload}


def parse_schema(payload: dict) -> Tuple[str, int]:
    """``(kind, version)`` of a payload; raises on a missing/bad id."""
    sid = payload.get("schema")
    if not isinstance(sid, str) or "/" not in sid \
            or not sid.startswith("repro-"):
        raise ReproError(f"payload has no valid schema id: {sid!r}")
    head, _, ver = sid.rpartition("/")
    try:
        return head[len("repro-"):], int(ver)
    except ValueError:
        raise ReproError(
            f"payload schema version is not an integer: {sid!r}") from None


def check_schema(payload: dict, kind: str,
                 version: Optional[int] = None) -> int:
    """Require ``payload`` to carry schema ``kind``; returns its version.

    ``version=None`` accepts any version of the kind (callers handle
    migrations); passing a version pins it exactly.
    """
    got_kind, got_ver = parse_schema(payload)
    if got_kind != kind or (version is not None and got_ver != version):
        want = schema_id(kind, version) if version is not None \
            else f"repro-{kind}/*"
        raise ReproError(
            f"payload schema {payload.get('schema')!r} does not match "
            f"expected {want!r}")
    return got_ver


__all__ = ["GENERATED_BY", "schema_id", "envelope", "parse_schema",
           "check_schema"]
