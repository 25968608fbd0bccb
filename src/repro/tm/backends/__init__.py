"""Coherence backend implementations (importing registers them)."""

from repro.tm.backends.mw_lrc import MwLrcBackend
from repro.tm.backends.hlrc import HlrcBackend

__all__ = ["MwLrcBackend", "HlrcBackend"]
