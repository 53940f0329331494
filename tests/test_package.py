"""What the package and each entry point import."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import moesig

IMPORT_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from moesig.cli import dispatch

    def loaded(names):
        return sorted(name for name in names if name in sys.modules)

    front = ("numpy", "multiprocessing", "concurrent.futures", "inspect")
    seen = {"import": loaded(front)}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [dispatch(["--version"]), dispatch(["--help"]), dispatch(["detect"])]
    seen["front end"] = loaded(front)
    header = {"schema_version": 1, "model_id": "m", "num_layers": 1, "experts_per_layer": [4]}
    record = {"query_id": "a", "domain": "math", "layer": 0, "selected": [0, 1]}
    with open("t.jsonl", "w") as fh:
        fh.write(json.dumps(header) + "\\n" + json.dumps(record) + "\\n")
    codes.append(dispatch(["ingest", "--input", "t.jsonl", "--out", "o.jsonl"]))
    seen["ingest"] = loaded(("multiprocessing", "concurrent.futures"))
    seen["ingest modules"] = sorted(name for name in sys.modules if name.startswith("moesig"))
    print(json.dumps([codes, seen]))
    """
)


def test_entry_points_import_only_what_they_run(tmp_path):
    # loading numpy and the whole package took about 0.2 s of every start on a
    # 2-core VM; the front end must not load them, and ingest needs only the trace module.
    # inspect (which dataclasses imports) added about 8 ms to `moesig --version`
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=tmp_path, capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    codes, seen = json.loads(proc.stdout)
    assert codes == [0, 0, 2, 0]
    assert seen == {
        "import": [],
        "front end": [],
        "ingest": [],
        "ingest modules": ["moesig", "moesig._meta", "moesig.cli", "moesig.errors", "moesig.routing_trace"],
    }


def test_only_meta_decodes_json():
    # one decoder words every input file's faults alike, so no module but _meta decodes JSON
    # (json.loads) or checks for lone surrogates (check_unicode)
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "moesig").glob("*.py")):
        if path.name == "_meta.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                bound = {alias.name for alias in node.names}
                bad = "check_unicode" in bound or (node.module == "json" and "loads" in bound)
            elif isinstance(node, ast.Attribute):
                bad = node.attr == "check_unicode" or (
                    node.attr == "loads" and isinstance(node.value, ast.Name) and node.value.id == "json")
            else:
                bad = False
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_unknown_name_raises_attribute_error():
    assert not hasattr(moesig, "no_such_name")
