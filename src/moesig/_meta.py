"""Provenance metadata and shared formatting of output artifacts."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping


def config_digest(config: Mapping) -> str:
    """Short stable digest of a JSON-serializable configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def artifact_meta(seed: int | None, digest: str | None) -> dict:
    """The (seed, config digest, version) block written into artifacts."""
    from moesig import __version__

    meta: dict[str, object] = {"tool_version": __version__}
    if seed is not None:
        meta["seed"] = int(seed)
    if digest is not None:
        meta["config_digest"] = digest
    return meta


def write_json(doc: dict, path: str | Path) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def format_float(value) -> str:
    """Round-trip float text for CSV cells; ``None`` becomes an empty cell."""
    if value is None:
        return ""
    return repr(float(value) + 0.0)
