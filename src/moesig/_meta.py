"""Provenance metadata, shared reading and writing of artifact files, and
type checks for values parsed from JSON."""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from moesig.errors import MoesigError


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


def meta_comment(meta: Mapping) -> str:
    """A provenance block as space-separated ``k=v`` pairs in key order."""
    return " ".join(f"{k}={meta[k]}" for k in sorted(meta))


def is_int(value: object) -> bool:
    """True for a JSON integer (``bool`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """True for a JSON number (``bool`` is not one)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite_number(value: object) -> bool:
    """True for a JSON number that converts to a finite float (NaN, Infinity and huge integers do not)."""
    return is_number(value) and abs(value) <= sys.float_info.max


def check_unicode(text: str, doc, error: type[MoesigError], where: str) -> None:
    """Raise ``error`` at ``where`` if a string of ``doc``, parsed from the JSON ``text``, holds
    a lone surrogate, which UTF-8 cannot encode; only an escape such as ``\\ud800`` makes one."""
    stack = [doc] if "\\u" in text else []
    while stack:
        value = stack.pop()
        if isinstance(value, (dict, list)):
            stack += [*value, *value.values()] if isinstance(value, dict) else value
        elif isinstance(value, str) and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{where}: a lone surrogate escape is not UTF-8 text") from None


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file; malformed content or a lone surrogate escape raises MoesigError."""
    try:  # ValueError: not UTF-8, not JSON, or an integer past int()'s digit limit
        doc = json.loads(text := Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MoesigError(f"{path}: malformed JSON: {exc}") from None
    check_unicode(text, doc, MoesigError, str(path))
    return doc


def write_json(doc: dict, path: str | Path) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def format_float(value) -> str:
    """Round-trip float text for CSV cells; ``None`` becomes an empty cell."""
    if value is None:
        return ""
    return repr(float(value) + 0.0)


def write_csv(
    path: str | Path, comment: str | None, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """A ``# comment`` line (if any), the header and the rows; floats via :func:`format_float`."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(c) if isinstance(c, float) else c for c in row])
