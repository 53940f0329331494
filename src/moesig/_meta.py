"""Provenance metadata, shared reading and writing of artifact files, and
type checks for values and config records parsed from JSON."""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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


def is_version(value: object, version: int) -> bool:
    """True for the JSON integer ``version``; ``true`` and ``1.0`` equal 1 in Python, but are not version 1."""
    return is_int(value) and value == version


def is_number(value: object) -> bool:
    """True for a JSON number (``bool`` is not one)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite_number(value: object) -> bool:
    """True for a JSON number that converts to a finite float (NaN, Infinity and huge integers do not)."""
    return is_number(value) and abs(value) <= sys.float_info.max


def check_fields(doc, allowed: Iterable[str], error: type[MoesigError], what: str,
                 required: Iterable[str] = ()) -> None:
    """Raise ``error`` unless ``doc`` is a JSON object that holds every ``required`` key and no key
    outside ``allowed``, checked in that order: a mistyped field must not run silently."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object")
    missing = [key for key in required if key not in doc]
    if missing:
        raise error(f"{what} is missing field(s) {missing}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise error(f"unknown {what} field(s): {sorted(unknown)}")


def field_int(doc: Mapping, key: str, error: type[MoesigError], default: int | None = None,
              minimum: int = 0) -> int:
    """``doc[key]``, or ``default`` when absent; raise ``error`` unless it is an integer >= ``minimum``."""
    value = doc.get(key, default)
    if not is_int(value) or value < minimum:
        raise error(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def field_number(doc: Mapping, key: str, error: type[MoesigError], default: float | None = None) -> float:
    """``doc[key]``, or ``default`` when absent, as a float; raise ``error`` unless it is a finite number."""
    value = doc.get(key, default)
    if not is_finite_number(value):
        raise error(f"{key} must be a number, got {value!r}")
    return float(value)


class ConfigRecord:
    """Base of a frozen config dataclass that is read from a JSON object and digested into artifacts.

    A subclass sets ``ERROR`` and ``WHAT``, the error it raises and its name in diagnostics,
    ``INTEGER_FLOORS``, each integer field with its least value, and ``NUMBERS``, its numeric
    fields. Its ``__post_init__`` calls this one, then checks the rules that tie fields together.
    """

    def __post_init__(self) -> None:
        for name, floor in self.INTEGER_FLOORS.items():
            field_int(vars(self), name, self.ERROR, minimum=floor)
        for name in self.NUMBERS:
            field_number(vars(self), name, self.ERROR)

    @classmethod
    def from_dict(cls, doc):
        """The record of the JSON object ``doc``, which holds every field without a default and no other key."""
        from dataclasses import MISSING, fields  # it imports inspect, which `moesig --version` need not load

        required = [f.name for f in fields(cls) if f.default is MISSING]
        check_fields(doc, cls.__dataclass_fields__, cls.ERROR, cls.WHAT, required)
        return cls(**doc)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def digest(self) -> str:
        return config_digest(self.to_dict())


def parse_json(text: str, error: type[MoesigError], where: str):
    """The JSON document ``text``, read with surrogate escapes; raise ``error`` at ``where`` if
    its bytes are not UTF-8, it is not JSON, or a string escape such as ``\\ud800`` decodes to
    a lone surrogate, which UTF-8 cannot encode."""
    if not text.isascii():
        try:
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{where}: not UTF-8 text: {exc}") from None
    try:  # ValueError: not JSON, or an integer past int()'s digit limit
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: malformed JSON: {exc}") from None
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
    return doc


def json_lines(fh: Iterable[str], error: type[MoesigError], start: int = 1) -> Iterator[tuple[int, dict]]:
    """(line number, object) of each nonblank line of ``fh``, lines of text read with surrogate
    escapes and numbered from ``start``; a line that :func:`parse_json` refuses, or that is not
    a JSON object, raises ``error`` naming its line."""
    for lineno, line in enumerate(fh, start):
        if line := line.strip():
            doc = parse_json(line, error, f"line {lineno}")
            if not isinstance(doc, dict):
                raise error(f"line {lineno}: expected a JSON object")
            yield lineno, doc


def read_json(path: str | Path, error: type[MoesigError] = MoesigError):
    """:func:`parse_json` of the whole file."""
    return parse_json(Path(path).read_text(encoding="utf-8", errors="surrogateescape"), error, str(path))


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
