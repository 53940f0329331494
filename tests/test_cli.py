from __future__ import annotations

import copy
import csv
import hashlib
import json
import logging
import math
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest

from moesig import _pool, signatures
from moesig.cli import dispatch
from moesig.detector import BenchmarkReport, BenchmarkRow
from moesig.pipeline import emit_report
from moesig.routing_trace import build_trace_set, ingest_traces, write_traces
from moesig.shadow_moe import ShadowMoeConfig, ShadowMoeModel
from moesig.synthgen import ScenarioConfig, generate_scenario, write_scenario

from helpers import drop_domains


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def simple_trace_file(path, records=None, num_experts=4, domains=("math", "code")):
    records = records or [
        ("a", 1, 0, (0, 1)),
        ("b", 2, 0, (1, 2)),
    ]
    ts = build_trace_set("m", 1, (num_experts,), domains, records)
    write_traces(ts, path)
    return ts


class TestDispatchBasics:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments_usage_error(self):
        assert dispatch([]) == 2

    def test_version_exits_zero(self):
        assert dispatch(["--version"]) == 0

    def test_missing_input_is_runtime_error(self, tmp_path):
        code = dispatch(
            ["ingest", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert code == 1


def error_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


TWO_LAYER_HEADER = {
    "schema_version": 1,
    "model_id": "m",
    "num_layers": 2,
    "experts_per_layer": [4, 4],
    "domains": ["math"],
}


QUERY_FILE = (
    '{"schema_version":1,"kind":"query-set","input_dim":2}\n'
    '{"query_id":"q0","domain":"d1","x":[0.0,1.0]}\n'
)
PROXY = dict(num_layers=1, experts_per_layer=4, top_k=2, input_dim=2, output_dim=1)
QUERY_CONFIG = dict(kind="gaussian-domains", seed=5, num_domains=2, n_per_domain=3, input_dim=2)
SCENARIO = dict(num_experts=4, num_layers=1, top_k=2, num_domains=2, n_per_domain=5)
PAIRS = {"d1": {"kd": "kd.jsonl", "scratch": "scratch.jsonl"}}


def train_proxy_case(proxy=PROXY, oracle=None, model=None, options=()):
    """Files and arguments of a ``train-proxy`` run with further ``options``; ``model`` maps a saved
    model's bytes."""
    files = {
        "queries.jsonl": QUERY_FILE,
        "proxy.json": proxy,
        "oracle.json": oracle or {"kind": "linear", "seed": 2},
    }
    if model is not None:
        files["oracle.json"] = {"kind": "shadow-model", "path": "model.bin"}
        files["model.bin"] = model
    argv = ["train-proxy", "--oracle", "oracle.json", "--queries", "queries.jsonl",
            "--config", "proxy.json", "--out", "m.bin", *options]
    return files, argv


def overflowing(*prefixes):
    """Map a saved model's bytes to those of the model whose tensors named ``prefixes*`` hold 1.7e308."""
    def change(model):
        magic, manifest, body = model.split(b"\n", 2)
        body, start = bytearray(body), 0
        for tensor in json.loads(manifest)["tensors"]:
            size = 8 * math.prod(tensor["shape"])
            if tensor["name"].startswith(prefixes):
                body[start + 8 : start + 8 + size] = struct.pack("<d", 1.7e308) * (size // 8)
            start += 8 + size
        return b"\n".join([magic, manifest, bytes(body)])
    return change


def tensor_list(change, num_layers=1):
    """Map any bytes to those of PROXY's seeded model at ``num_layers`` layers, whose manifest lists
    the tensors that ``change`` makes of its tensor list; the tensor bytes stay as saved."""
    def build(_saved):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "m.bin")
            ShadowMoeModel.initialize(ShadowMoeConfig(**{**PROXY, "num_layers": num_layers})).save(path)
            magic, manifest, body = path.read_bytes().split(b"\n", 2)
        doc = json.loads(manifest)
        doc["tensors"] = change(doc["tensors"])
        return b"\n".join([magic, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode(), body])
    return build


def queries_case(text, *options):
    """A ``train-proxy`` run on the query file ``text``, with further options."""
    files, argv = train_proxy_case(options=options)
    return {**files, "queries.jsonl": text}, argv


def diagonal_mass(doc):
    """Halve a signature file's collaboration matrix and spread the other half over its diagonal."""
    matrix = doc["collaboration"]["matrix"]
    for i, row in enumerate(matrix):
        matrix[i] = [v / 2 + (0.5 / len(row) if i == j else 0.0) for j, v in enumerate(row)]


def non_square_collab(doc):
    """Drop the last column of a signature file's collaboration matrix."""
    doc["collaboration"]["matrix"] = [row[:-1] for row in doc["collaboration"]["matrix"]]


def cube_matrix(doc):
    """Wrap a signature file's specialization matrix in one more list, a 3-D matrix."""
    doc["specialization"]["matrix"] = [doc["specialization"]["matrix"]]


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# a signature file that loads, of two experts in one domain
SIGNATURES = {
    "format": "moesig-signatures", "version": 1, "layer": 0, "num_experts": 2, "domains": ["d1"],
    "specialization": {"matrix": [[0.5], [0.5]], "kappa_per_domain": [2.0], "counts": [1]},
    "collaboration": {"matrix": [[0.0, 0.5], [0.5, 0.0]], "pair_normalizer": 2.0, "zero_mass": False},
    "meta": {},
}
SELF_DISTANCE = ["distance", "--teacher", "s.json", "--student", "s.json", "--out", "d.json"]
SWEEP = ["sweep", "--grid", "grid.json", "--out", "t.csv"]
REPORT = ["report", "--benchmark", ".", "--out", "r.csv"]
PIPELINE = dict(
    seed=1, num_domains=2, n_per_domain=3, input_dim=2, output_dim=1, separation=2.5, spread=0.6,
    oracle={"hidden_dim": 4, "scale": 1.5}, candidate_epochs=1,
    proxy=dict(num_layers=1, experts_per_layer=4, top_k=2, hidden_dim=4, load_balance_weight=0.02,
               learning_rate=0.05, epochs=1, batch_size=8, momentum=0.9),
    layer_policy="last", mode="auto",
)
RUN_PIPELINE = ["pipeline", "--config", "p.json", "--out-dir", "out"]


def pipeline_case(change, expected, case_id):
    return pytest.param({"p.json": {**PIPELINE, **change}}, RUN_PIPELINE, expected, id=case_id)


def trace_text(header=None, record=None):
    """A one-record trace file whose header and record take the given changes."""
    header = {**TWO_LAYER_HEADER, "num_layers": 1, "experts_per_layer": [4], **(header or {})}
    record = {"query_id": "a", "domain": "math", "layer": 0, "selected": [0, 1], **(record or {})}
    return json.dumps(header) + "\n" + json.dumps(record) + "\n"


# past the JSON decoder's recursion limit, and past int()'s digit limit
DEEP = "[" * 100000 + "]" * 100000
LONG_INTEGER = "1" * 5000
INGEST = ["ingest", "--input", "t.jsonl", "--out", "o.jsonl"]


# (files written into a fresh directory, arguments relative to it, expected message fragment)
MALFORMED_CONFIGS = [
    pytest.param(*train_proxy_case({**PROXY, "num_layers": "2"}), "num_layers must be an integer",
                 id="proxy-layers-string"),
    pytest.param(*train_proxy_case({**PROXY, "input_dim": 5}),
                 "queries have input_dim 2, the proxy config has input_dim 5", id="proxy-wider-linear"),
    pytest.param(*train_proxy_case({**PROXY, "input_dim": 5}, oracle={"kind": "mlp", "seed": 2}),
                 "queries have input_dim 2, the proxy config has input_dim 5", id="proxy-wider-mlp"),
    pytest.param(*train_proxy_case({**PROXY, "epochs": True}), "epochs must be an integer",
                 id="proxy-epochs-bool"),
    pytest.param(*train_proxy_case({**PROXY, "seed": 1.5}), "seed must be an integer",
                 id="proxy-seed-float"),
    pytest.param(*train_proxy_case({**PROXY, "learning_rate": "fast"}),
                 "learning_rate must be a number", id="proxy-rate-string"),
    pytest.param(*train_proxy_case({**PROXY, "momentum": False}), "momentum must be a number",
                 id="proxy-momentum-bool"),
    pytest.param(*train_proxy_case({**PROXY, "learning_rate": float("nan")}),
                 "learning_rate must be a number, got nan", id="proxy-rate-nan"),
    pytest.param(*train_proxy_case({**PROXY, "learning_rate": float("inf")}),
                 "learning_rate must be a number, got inf", id="proxy-rate-infinity"),
    pytest.param(*train_proxy_case({**PROXY, "experts_per_layer": "4"}), "experts_per_layer",
                 id="proxy-experts-string"),
    pytest.param(*train_proxy_case({**PROXY, "experts_per_layer": 10**17}),
                 "parameters is past numpy's array limit", id="proxy-experts-past-array-limit"),
    pytest.param(*train_proxy_case(without(PROXY, "top_k")), "missing field(s) ['top_k']",
                 id="proxy-no-top-k"),
    pytest.param(*train_proxy_case([PROXY]), "JSON object", id="proxy-not-object"),
    pytest.param(*train_proxy_case(model=lambda m: m[:300]), "model.bin: malformed JSON",
                 id="model-300-bytes"),
    pytest.param(*train_proxy_case(model=lambda m: m[:2000]), "truncated",
                 id="model-2000-bytes"),
    pytest.param(*train_proxy_case(model=lambda m: m[:-8]), "truncated", id="model-short-tensor"),
    pytest.param(*train_proxy_case(model=lambda m: m.replace(b'"config"', b'"cfg"')),
                 "'config' and 'tensors'", id="model-no-config"),
    pytest.param(*train_proxy_case(model=lambda m: m.replace(b'"tensors"', b'"arrays"')),
                 "'config' and 'tensors'", id="model-no-tensors"),
    pytest.param(*train_proxy_case(model=lambda m: m.replace(b'"experts_per_layer":[4]',
                                                             f'"experts_per_layer":[{10**17}]'.encode())),
                 "model.bin: a proxy of", id="model-experts-past-array-limit"),
    pytest.param(*train_proxy_case(model=lambda m: m.replace(b'"w_in"', b'"w_xx"')),
                 "model.bin: tensor list entry 0 is {'name': 'w_xx', 'shape': [16, 2]}, "
                 "the config gives {'name': 'w_in', 'shape': [16, 2]}", id="model-unknown-tensor"),
    pytest.param(*train_proxy_case(model=lambda m: m.replace(b'"top_k":[2]', b'"top_k":["2"]')),
                 "top_k must be an integer or a list", id="model-bad-config"),
    pytest.param(*train_proxy_case(model=lambda m: m[:m.index(b"\n") + 1] + DEEP.encode() + b"\n"),
                 "model.bin: malformed JSON", id="model-deep-nesting"),
    # the oracle's forward pass overflows in its output product, or in its expert products
    # already: one diagnostic either way, and no numpy warning
    pytest.param(*train_proxy_case(model=overflowing("w_out")), "non-finite activations in forward pass",
                 id="model-oracle-overflows"),
    pytest.param(*train_proxy_case(model=overflowing("expert_v.", "w_out")),
                 "non-finite activations in forward pass", id="model-oracle-experts-overflow"),
    pytest.param(*queries_case(QUERY_FILE + DEEP + "\n"), "queries.jsonl: line 3: malformed JSON",
                 id="queries-deep-nesting"),
    pytest.param(*queries_case(QUERY_FILE.replace("0.0", LONG_INTEGER)),
                 "queries.jsonl: line 2: malformed JSON", id="queries-long-integer"),
    # a lone surrogate escape decodes to a string that UTF-8 cannot encode
    pytest.param(*queries_case(QUERY_FILE.replace('"q0"', '"\\ud800"'), "--traces", "tr.jsonl"),
                 "queries.jsonl: line 2: a lone surrogate escape is not UTF-8 text", id="queries-lone-surrogate"),
    pytest.param({"t.jsonl": trace_text(record={"query_id": "\ud800"})}, INGEST,
                 "t.jsonl: line 2: a lone surrogate escape is not UTF-8 text",
                 id="ingest-lone-surrogate"),
    pytest.param({"t.jsonl": trace_text(header={"model_id": "\udc80"})},
                 ["profile", "--input", "t.jsonl", "--out", "s.json"],
                 "t.jsonl: line 1: a lone surrogate escape is not UTF-8 text",
                 id="profile-lone-surrogate"),
    pytest.param({"t.jsonl": trace_text() + DEEP + "\n"}, INGEST, "line 3: malformed JSON",
                 id="trace-record-deep-nesting"),
    pytest.param({"t.jsonl": DEEP + "\n"}, INGEST, "line 1: malformed JSON",
                 id="trace-header-deep-nesting"),
    pytest.param({"t.jsonl": trace_text().replace('"layer": 0', f'"layer": {LONG_INTEGER}')}, INGEST,
                 "line 2: malformed JSON", id="trace-record-long-integer"),
    pytest.param({"s1.json": DEEP}, ["distance", "--teacher", "s1.json", "--student", "s2.json",
                                     "--out", "d.json"], "s1.json: malformed JSON", id="signatures-deep-nesting"),
    pytest.param({"q.json": without(QUERY_CONFIG, "seed")},
                 ["make-queries", "--config", "q.json", "--out", "q.jsonl"], "'seed'",
                 id="queries-no-seed"),
    pytest.param({"q.json": {**QUERY_CONFIG, "input_dim": "x"}},
                 ["make-queries", "--config", "q.json", "--out", "q.jsonl"],
                 "input_dim must be an integer >= 1, got 'x'",
                 id="queries-dim-string"),
    pytest.param({"q.json": {**QUERY_CONFIG, "n_per_domain": 0}},
                 ["make-queries", "--config", "q.json", "--out", "q.jsonl"],
                 "n_per_domain must be an integer >= 1, got 0",
                 id="queries-empty-domain"),
    pytest.param({"q.json": {**QUERY_CONFIG, "separation": float("nan")}},
                 ["make-queries", "--config", "q.json", "--out", "q.jsonl"],
                 "separation must be a number, got nan", id="queries-separation-nan"),
    pytest.param({"q.json": {**QUERY_CONFIG, "n_per_domain": 10**19}},
                 ["make-queries", "--config", "q.json", "--out", "q.jsonl"],
                 "queries per domain of dimension 2 are past numpy's array limit", id="queries-past-array-limit"),
    pytest.param({"q.json": {**QUERY_CONFIG, "separation": 1e308, "spread": 1e308}},
                 ["make-queries", "--config", "q.json", "--out", "q.jsonl"],
                 "q.json: separation 1e+308 and spread 1e+308 give queries that are not finite",
                 id="queries-overflow"),
    pytest.param({"grid.json": {"rho": [0.5]}}, SWEEP, "'base'", id="grid-no-base"),
    pytest.param({"grid.json": DEEP}, SWEEP, "grid.json: malformed JSON", id="grid-deep-nesting"),
    pytest.param({"grid.json": f'{{"base": {LONG_INTEGER}}}'}, SWEEP, "grid.json: malformed JSON",
                 id="grid-long-integer"),
    pytest.param({"grid.json": {"base": SCENARIO, "rho": [0.5], "note": "\ud800"}}, SWEEP,
                 "grid.json: a lone surrogate escape is not UTF-8 text", id="grid-lone-surrogate"),
    pytest.param({"grid.json": [SCENARIO]}, SWEEP, "JSON object", id="grid-list"),
    pytest.param({"grid.json": {"base": {**SCENARIO, "num_experts": "4"}}}, SWEEP,
                 "num_experts must be an integer", id="grid-experts-string"),
    pytest.param({"grid.json": {"base": SCENARIO, "rho": ["0.5"]}}, SWEEP,
                 "relatedness must be a number", id="grid-rho-string"),
    pytest.param({"grid.json": {"base": SCENARIO, "seeds": 3}}, SWEEP, "must be lists",
                 id="grid-seeds-not-list"),
    pytest.param({"grid.json": {"configs": [without(SCENARIO, "top_k")]}}, SWEEP,
                 "missing field(s) ['top_k', 'relatedness']", id="grid-config-incomplete"),
    pytest.param({"s.json": {**SCENARIO, "relatedness": "0.5"}},
                 ["synth", "--config", "s.json", "--out-dir", "out"],
                 "relatedness must be a number", id="synth-rho-string"),
    pytest.param({"s.json": {**SCENARIO, "relatedness": 0.5, "layer_bias": 1}},
                 ["synth", "--config", "s.json", "--out-dir", "out"],
                 "layer_bias must be a list", id="synth-bias-not-list"),
    pytest.param({"s.json": {**SCENARIO, "relatedness": 0.5, "n_per_domain": 10**19}},
                 ["synth", "--config", "s.json", "--out-dir", "out"],
                 "queries are past numpy's array limit", id="synth-past-array-limit"),
    pytest.param({"manifest.json": {"pairs": PAIRS}}, REPORT, "'teacher'",
                 id="report-no-teacher"),
    pytest.param({"manifest.json": {"teacher": "t.jsonl"}}, REPORT, "'pairs'",
                 id="report-no-pairs"),
    pytest.param({"manifest.json": {"teacher": "t.jsonl", "pairs": {"d1": {"scratch": "s.jsonl"}}}},
                 REPORT, "pair 'd1' needs string 'kd'", id="report-pair-no-kd"),
    pytest.param({"manifest.json": {"teacher": "t.jsonl", "pairs": {"d1": {"kd": "k.jsonl"}}}},
                 REPORT, "pair 'd1' needs string 'kd' and 'scratch'", id="report-pair-no-scratch"),
    # a mistyped field is an unknown one, never a silent default
    pytest.param({"grid.json": {"base": SCENARIO, "rhos": [0.0, 1.0]}}, SWEEP,
                 "unknown sweep grid field(s): ['rhos']", id="grid-unknown-field"),
    pytest.param({"grid.json": {"configs": [dict(SCENARIO, relatedness=0.5)], "seeds": [1]}}, SWEEP,
                 "unknown sweep grid field(s): ['seeds']", id="grid-configs-unknown-field"),
    pytest.param({"q.json": {**QUERY_CONFIG, "sprad": 0.5}},
                 ["make-queries", "--config", "q.json", "--out", "q.jsonl"],
                 "unknown query-set config field(s): ['sprad']", id="queries-unknown-field"),
    pytest.param(*train_proxy_case(oracle={"kind": "mlp", "seed": 2, "hiden_dim": 4}),
                 "unknown mlp oracle spec field(s): ['hiden_dim']", id="oracle-unknown-field"),
    pytest.param(*train_proxy_case(oracle={"kind": "linear", "seed": 2, "hidden_dim": 4}),
                 "unknown linear oracle spec field(s): ['hidden_dim']", id="oracle-field-of-other-kind"),
    pipeline_case({"separaton": 2.5}, "p.json: unknown pipeline config field(s): ['separaton']",
                  "pipeline-unknown-field"),
    pipeline_case({"oracle": {"hidden_dimm": 3}}, "p.json: unknown pipeline oracle field(s): ['hidden_dimm']",
                  "pipeline-oracle-unknown-field"),
    # the pipeline derives each fit's seed and the proxy's dimensions, so setting them would do nothing
    pipeline_case({"proxy": {**PIPELINE["proxy"], "seed": 123, "input_dim": 99, "output_dim": 7}},
                  "p.json: pipeline config field(s) ['proxy.seed', 'proxy.input_dim', 'proxy.output_dim'] are derived",
                  "pipeline-proxy-derived-fields"),
    pipeline_case({"seed": "x"}, "p.json: seed must be an integer >= 0, got 'x'", "pipeline-seed-string"),
    pipeline_case({"proxy": 5}, "p.json: pipeline config needs 'proxy' and 'oracle'", "pipeline-proxy-number"),
    pipeline_case({"oracle": [1]}, "p.json: pipeline config needs 'proxy' and 'oracle'", "pipeline-oracle-list"),
    pipeline_case({"n_per_domain": "3"}, "p.json: n_per_domain must be an integer >= 1, got '3'",
                  "pipeline-count-string"),
    pipeline_case({"separation": "2"}, "p.json: separation must be a number, got '2'",
                  "pipeline-separation-string"),
    # the pipeline's oracle and proxy word a field fault as every config record does
    pipeline_case({"oracle": {"hidden_dim": 0}}, "p.json: hidden_dim must be an integer >= 1, got 0",
                  "pipeline-oracle-hidden-zero"),
    # queries that overflow are refused before anything is written
    pipeline_case({"separation": 1e308, "spread": 1e308},
                  "p.json: separation 1e+308 and spread 1e+308 give queries that are not finite",
                  "pipeline-queries-overflow"),
    pipeline_case({"mode": "fastest"}, "p.json: unknown mode 'fastest'", "pipeline-unknown-mode"),
    pipeline_case({"mode": "exact", "proxy": {**PIPELINE["proxy"], "experts_per_layer": 12}},
                  "p.json: exact enumeration is capped at 10 experts", "pipeline-exact-above-cap"),
    pipeline_case({"layer_policy": "middle"}, "p.json: unknown layer policy 'middle'",
                  "pipeline-unknown-layer-policy"),
    # "²".isdigit() holds, but int() refuses it
    pipeline_case({"layer_policy": "²"}, "p.json: unknown layer policy '²'",
                  "pipeline-superscript-layer-policy"),
    # a config's object, missing-key and unknown-key checks run in that order
    pytest.param({"p.json": [PIPELINE]}, RUN_PIPELINE, "p.json: pipeline config must be a JSON object",
                 id="pipeline-not-object"),
    pytest.param({"p.json": {**without(PIPELINE, "seed"), "sed": 1}}, RUN_PIPELINE,
                 "p.json: pipeline config is missing field(s) ['seed']", id="pipeline-missing-before-unknown"),
    pytest.param({"grid.json": {"configs": [{**without(SCENARIO, "top_k"), "relatedness": 0.5, "topk": 2}]}},
                 SWEEP, "grid.json: scenario config is missing field(s) ['top_k']",
                 id="grid-config-missing-before-unknown"),
    # a fault of a config file's content names the file
    pytest.param(*train_proxy_case({**PROXY, "learning_rate": 0}), "proxy.json: learning_rate must be > 0",
                 id="proxy-rate-zero"),
    pytest.param(*train_proxy_case({**PROXY, "momentum": 1}), "proxy.json: momentum must lie in [0, 1)",
                 id="proxy-momentum-one"),
    pytest.param(*train_proxy_case({**PROXY, "experts_per_layer": [4, 4]}),
                 "proxy.json: experts_per_layer has 2 entries for 1 layers", id="proxy-experts-per-layer-count"),
    pytest.param(*train_proxy_case({**PROXY, "hidden_dim": 0}),
                 "proxy.json: hidden_dim must be an integer >= 1, got 0", id="proxy-hidden-zero"),
    pytest.param(*train_proxy_case(oracle={"kind": "cubic"}), "oracle.json: unknown oracle kind 'cubic'",
                 id="oracle-kind-names-file"),
    pytest.param({"q.json": without(QUERY_CONFIG, "kind")},
                 ["make-queries", "--config", "q.json", "--out", "q.jsonl"],
                 "q.json: query-set config is missing field(s) ['kind']", id="queries-no-kind"),
    pytest.param({"s.json": {**SCENARIO, "relatedness": 0.5, "top_k": 0}},
                 ["synth", "--config", "s.json", "--out-dir", "out"],
                 "s.json: top_k must be an integer >= 1, got 0", id="synth-top-k-zero"),
    pytest.param({"grid.json": {"base": SCENARIO, "rho": [0.5], "seeds": [-1]}}, SWEEP,
                 "grid.json: seed must be an integer >= 0, got -1", id="grid-seed-negative"),
    pytest.param({"grid.json": {"base": SCENARIO, "rho": []}}, SWEEP,
                 "grid.json: sweep grid expands to no scenario config", id="grid-rho-empty"),
    pytest.param({"grid.json": {"base": SCENARIO, "seeds": []}}, SWEEP,
                 "grid.json: sweep grid expands to no scenario config", id="grid-seeds-empty"),
    pytest.param({"grid.json": {"configs": []}}, SWEEP,
                 "grid.json: sweep grid expands to no scenario config", id="grid-configs-empty"),
    # trace files store experts as int16: a config past that cap is refused before anything runs
    pytest.param({"s.json": {**SCENARIO, "relatedness": 0.5, "num_experts": 40000}},
                 ["synth", "--config", "s.json", "--out-dir", "out"],
                 "s.json: num_experts must be at most 32767, got 40000", id="synth-experts-past-trace-cap"),
    pytest.param({"grid.json": {"base": {**SCENARIO, "num_experts": 40000}, "rho": [0.5]}}, SWEEP,
                 "grid.json: num_experts must be at most 32767, got 40000", id="grid-experts-past-trace-cap"),
    pipeline_case({"proxy": {**PIPELINE["proxy"], "experts_per_layer": 40000}},
                  "p.json: experts_per_layer must be at most 32767, got 40000", "pipeline-experts-past-trace-cap"),
    pytest.param(*train_proxy_case({**PROXY, "experts_per_layer": 40000, "hidden_dim": 4, "epochs": 1},
                                   options=("--traces", "tr.jsonl")),
                 "proxy.json: experts_per_layer must be at most 32767, got 40000",
                 id="proxy-traces-past-trace-cap"),
    # query, model, trace and benchmark files
    pytest.param(*queries_case(""), "queries.jsonl: empty query file", id="queries-empty-file"),
    pytest.param(*queries_case(QUERY_FILE + "[1]\n"), "queries.jsonl: line 3: expected a JSON object",
                 id="queries-line-not-object"),
    pytest.param(*queries_case(QUERY_FILE.replace('"query-set"', '"queries"')),
                 "queries.jsonl: line 1: expected a query-set header", id="queries-not-a-header"),
    pytest.param(*queries_case(QUERY_FILE.replace('"q0"', "5")),
                 "queries.jsonl: line 2: query_id and domain must be strings", id="queries-id-not-string"),
    pytest.param(*train_proxy_case(model=lambda m: m.replace(b'"version":1', b'"version":2')),
                 "model.bin: unsupported model version", id="model-unsupported-version"),
    pytest.param(*train_proxy_case(model=lambda m: m.replace(b'"name":"w_in","shape":[16,2]',
                                                             b'"name":"w_in","shape":[16,3]')),
                 "model.bin: tensor list entry 0 is {'name': 'w_in', 'shape': [16, 3]}, "
                 "the config gives {'name': 'w_in', 'shape': [16, 2]}", id="model-shape-mismatch"),
    pytest.param(*train_proxy_case(model=lambda m: m.replace(b',{"name":"b_out","shape":[1]}', b"")),
                 "model.bin: tensor list has 8 entries, the config gives 9", id="model-missing-tensor"),
    # a model file is read in the tensor order of its config: expert_d.0 and router.1 share a shape,
    # so their swapped entries would load each one's values into the other
    pytest.param(*train_proxy_case(model=tensor_list(lambda t: t[:6] + [t[7], t[6]] + t[8:], num_layers=2)),
                 "model.bin: tensor list entry 6 is {'name': 'router.1', 'shape': [4, 16]}, "
                 "the config gives {'name': 'expert_d.0', 'shape': [4, 16]}", id="model-swapped-tensors"),
    pytest.param(*train_proxy_case(model=tensor_list(lambda t: t[:2] + t[1:])),
                 "model.bin: tensor list entry 2 is {'name': 'b_in', 'shape': [16]}, "
                 "the config gives {'name': 'router.0', 'shape': [4, 16]}", id="model-repeated-tensor"),
    pytest.param(*train_proxy_case(model=lambda m: m + b"JUNKJUNKJUNK"),
                 "model.bin: bytes follow the last tensor", id="model-trailing-bytes"),
    pytest.param({"t.jsonl": trace_text() + "[1]\n"}, INGEST, "t.jsonl: line 3: expected a JSON object",
                 id="trace-record-not-object"),
    pytest.param({"t.jsonl": "[1]\n"}, INGEST, "t.jsonl: line 1: expected a JSON object",
                 id="trace-header-not-object"),
    pytest.param({"manifest.json": [1]}, REPORT, "manifest.json: manifest must be a JSON object",
                 id="report-manifest-not-object"),
    pytest.param({"manifest.json": {"teacher": "t.jsonl", "pairs": PAIRS, "meta": 5}}, REPORT,
                 "manifest.json: manifest meta must be a JSON object", id="report-meta-not-object"),
    pytest.param({"manifest.json": {"format": "other", "version": 7, "teacher": "t.jsonl", "pairs": PAIRS}},
                 REPORT, "manifest.json: not a version-1 benchmark manifest", id="report-manifest-version"),
    pytest.param({"manifest.json": {"teacher": "t.jsonl", "pairs": {}}, "t.jsonl": trace_text()}, REPORT,
                 "manifest.json: manifest needs at least one candidate pair", id="report-pairs-empty"),
    # true and 1.0 equal 1 in Python, but a version is the JSON integer 1
    pytest.param({"s.json": {**SIGNATURES, "version": True}}, SELF_DISTANCE,
                 "s.json: not a version-1 signature file", id="signatures-version-true"),
    pytest.param({"s.json": {**SIGNATURES, "version": 1.0}}, SELF_DISTANCE,
                 "s.json: not a version-1 signature file", id="signatures-version-float"),
    pytest.param(*train_proxy_case(model=lambda m: m.replace(b'"version":1', b'"version":true')),
                 "model.bin: unsupported model version", id="model-version-true"),
    pytest.param({"manifest.json": {"version": True, "teacher": "t.jsonl", "pairs": PAIRS}}, REPORT,
                 "manifest.json: not a version-1 benchmark manifest", id="report-manifest-version-true"),
]


class TestMalformedInput:
    """Each malformed input file gives exit 1 and a one-line diagnostic."""

    @pytest.mark.parametrize(
        "change",
        [
            {"experts_per_layer": [4]},
            {"experts_per_layer": 4},
            {"experts_per_layer": [4, "four"]},
            {"num_layers": "two"},
            {"domains": 5},
            {"meta": 5},
            {"num_layers": 0},
            {"experts_per_layer": [4, 0]},
            {"domains": ["math", "math"]},
        ],
        ids=["short-experts", "experts-not-list", "expert-not-int", "layers-not-int",
             "domains-not-list", "meta-not-object", "no-layers", "layer-without-experts", "domains-repeated"],
    )
    def test_bad_trace_header(self, tmp_path, caplog, change):
        path = tmp_path / "t.jsonl"
        records = [
            {"query_id": "a", "domain": "math", "layer": layer, "selected": [0, 1]}
            for layer in (0, 1)
        ]
        lines = [json.dumps({**TWO_LAYER_HEADER, **change})] + [json.dumps(r) for r in records]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = dispatch(["ingest", "--input", str(path), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        (message,) = error_lines(caplog)
        assert message.startswith(f"{path}: line 1: header") and "\n" not in message

    def test_expert_count_beyond_int16(self, tmp_path, caplog):
        path = tmp_path / "t.jsonl"
        header = {**TWO_LAYER_HEADER, "num_layers": 1, "experts_per_layer": [40000]}
        record = {"query_id": "a", "domain": "math", "layer": 0, "selected": [39999]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        assert dispatch(["ingest", "--input", str(path), "--out", str(tmp_path / "o.jsonl")]) == 1
        (message,) = error_lines(caplog)
        assert message == f"{path}: line 1: header a layer may have at most 32767 experts"
        assert not (tmp_path / "o.jsonl").exists()

    def test_out_of_memory(self, tmp_path, monkeypatch, caplog, capsys):
        def no_memory(*_args, **_kwargs):
            raise MemoryError

        simple_trace_file(tmp_path / "t.jsonl")
        monkeypatch.setattr(signatures, "signature_bundle", no_memory)
        assert dispatch(["profile", "--input", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "s")]) == 1
        assert error_lines(caplog) == ["profile ran out of memory"]
        assert "Traceback" not in capsys.readouterr().err

    def test_signature_file_missing_field(self, tmp_path, caplog):
        src = tmp_path / "t.jsonl"
        simple_trace_file(src)
        sig = tmp_path / "sig.json"
        assert dispatch(["profile", "--input", str(src), "--out", str(sig)]) == 0
        doc = json.loads(sig.read_text())
        del doc["specialization"]
        sig.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "d.json"
        code = dispatch(["distance", "--teacher", str(sig), "--student", str(sig), "--out", str(out)])
        assert code == 1
        (message,) = error_lines(caplog)
        assert "specialization" in message and "\n" not in message

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("collaboration", "matrix", float("nan"), "collaboration matrix"),
            ("collaboration", "matrix", -0.25, "collaboration matrix"),
            ("specialization", "matrix", float("nan"), "specialization matrix"),
            ("specialization", "matrix", 0.75, "specialization matrix columns are not normalized"),
            ("collaboration", "matrix", 1.5, "collaboration matrix is not normalized"),
            ("collaboration", "zero_mass", "false", "zero_mass"),
            ("collaboration", "zero_mass", True, "a zero_mass collaboration matrix must be all zero"),
            (None, "layer", 1.5, "layer must be an integer"),
            (None, "layer", True, "layer must be an integer"),
            (None, "layer", -3, "layer must be an integer"),
            (None, "domains", "ab", "domains must be a list of strings"),
            (None, "domains", ["math", "math"], "domains must not repeat a label"),
            ("specialization", "kappa_per_domain", [float("nan"), 2.0], "kappa_per_domain"),
            ("specialization", "counts", [-5, 1], "counts must be a list of integers"),
            ("specialization", "counts", [2.5, 1], "counts must be a list of integers"),
            ("collaboration", "pair_normalizer", float("nan"), "pair_normalizer must be a finite"),
            (None, drop_domains, None, "at least one expert and one domain"),
            (None, diagonal_mass, None, "collaboration matrix has a nonzero diagonal entry"),
            ("specialization", "counts", [1], "profile domain axis is inconsistent"),
            (None, non_square_collab, None, "collaboration matrix must be square"),
            (None, "num_experts", 5, "num_experts is 5, but the matrices have 4 experts"),
            (None, cube_matrix, None, "profile matrix must be two-dimensional"),
            (None, "version", 2, "not a version-1 signature file"),
        ],
        ids=["collab-nan", "collab-negative", "spec-nan", "spec-unnormalized", "collab-above-one",
             "zero-mass-string", "zero-mass-nonzero", "layer-float", "layer-bool", "layer-negative", "domains-string", "domains-repeated",
             "kappa-nan", "counts-negative", "counts-float", "pair-normalizer-nan", "no-domains",
             "collab-diagonal", "counts-short", "collab-not-square", "num-experts-mismatch", "spec-3d",
             "wrong-version"],
    )
    def test_signature_file_bad_value(self, tmp_path, caplog, section, key, value, named):
        # a callable key edits the whole document
        src = tmp_path / "t.jsonl"
        simple_trace_file(src)
        sig = tmp_path / "sig.json"
        assert dispatch(["profile", "--input", str(src), "--out", str(sig)]) == 0
        doc = json.loads(sig.read_text())
        if callable(key):
            key(doc)
        elif key == "matrix":
            doc[section]["matrix"][1][0] = value
        else:
            (doc if section is None else doc[section])[key] = value
        sig.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "d.json"
        code = dispatch(["distance", "--teacher", str(sig), "--student", str(sig), "--out", str(out)])
        assert code == 1
        (message,) = error_lines(caplog)
        assert message.startswith(f"{sig}: ") and named in message and "\n" not in message
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_overflowing_collaboration_matrix(self, tmp_path, caplog, mode):
        src = tmp_path / "t.jsonl"
        simple_trace_file(src)
        sig = tmp_path / "sig.json"
        assert dispatch(["profile", "--input", str(src), "--out", str(sig)]) == 0
        doc = json.loads(sig.read_text())
        matrix = doc["collaboration"]["matrix"]
        for i, row in enumerate(matrix):
            matrix[i] = [0.0 if j == i else 1e308 for j in range(len(row))]
        sig.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "d.json"
        argv = ["distance", "--teacher", str(sig), "--student", str(sig), "--out", str(out),
                "--mode", mode]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = dispatch(argv)
        assert code == 1
        assert [str(w.message) for w in caught] == []
        (message,) = error_lines(caplog)
        assert message.startswith(f"{sig}: collaboration matrix is not normalized")
        assert not out.exists()

    def test_query_without_domain(self, tmp_path, caplog):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            '{"schema_version":1,"kind":"query-set","input_dim":2}\n'
            '{"query_id":"q0","x":[0.0,1.0]}\n',
            encoding="utf-8",
        )
        oracle = tmp_path / "oracle.json"
        write_json(oracle, {"kind": "linear", "seed": 2})
        cfg = tmp_path / "proxy.json"
        write_json(cfg, dict(num_layers=1, experts_per_layer=4, top_k=2, input_dim=2, output_dim=1))
        code = dispatch(
            [
                "train-proxy",
                "--oracle", str(oracle),
                "--queries", str(queries),
                "--config", str(cfg),
                "--out", str(tmp_path / "m.bin"),
            ]
        )
        assert code == 1
        (message,) = error_lines(caplog)
        assert "line 2" in message and "domain" in message and "\n" not in message

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ({"kind": "linear"}, "'seed'"),
            ({"kind": "mlp"}, "'seed'"),
            ({"kind": "linear", "seed": "7"}, "seed must be an integer >= 0, got '7'"),
            ({"kind": "mlp", "seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
            ({"kind": "linear", "seed": True}, "seed must be an integer >= 0, got True"),
            ({"kind": "mlp", "seed": 1, "hidden_dim": "wide"}, "hidden_dim must be an integer >= 1, got 'wide'"),
            ({"kind": "linear", "seed": 1, "scale": "big"}, "scale must be a number, got 'big'"),
            ({"kind": "shadow-model"}, "'path'"),
            ({"kind": "shadow-model", "path": 3}, "'path'"),
            ([1, 2], "JSON object"),
            ({"kind": "cubic", "seed": 1}, "unknown oracle kind"),
        ],
        ids=["linear-no-seed", "mlp-no-seed", "seed-string", "seed-float", "seed-bool",
             "hidden-not-int", "scale-not-number", "model-no-path", "path-not-string",
             "not-object", "unknown-kind"],
    )
    def test_bad_oracle_spec(self, tmp_path, caplog, spec, expected):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            '{"schema_version":1,"kind":"query-set","input_dim":2}\n'
            '{"query_id":"q0","domain":"d1","x":[0.0,1.0]}\n',
            encoding="utf-8",
        )
        oracle = tmp_path / "oracle.json"
        write_json(oracle, spec)
        cfg = tmp_path / "proxy.json"
        write_json(cfg, dict(num_layers=1, experts_per_layer=4, top_k=2, input_dim=2, output_dim=1))
        code = dispatch(
            [
                "train-proxy",
                "--oracle", str(oracle),
                "--queries", str(queries),
                "--config", str(cfg),
                "--out", str(tmp_path / "m.bin"),
            ]
        )
        assert code == 1
        (message,) = error_lines(caplog)
        assert expected in message and "\n" not in message

    @pytest.mark.parametrize("files, argv, expected", MALFORMED_CONFIGS)
    def test_malformed_config(self, tmp_path, monkeypatch, caplog, capsys, files, argv, expected):
        ShadowMoeModel.initialize(ShadowMoeConfig(**PROXY)).save(tmp_path / "saved.bin")
        for name, content in files.items():
            path = tmp_path / name
            if callable(content):
                path.write_bytes(content((tmp_path / "saved.bin").read_bytes()))
            elif isinstance(content, str):
                path.write_text(content, encoding="utf-8")
            else:
                write_json(path, content)
        inputs = sorted(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        assert dispatch(argv) == 1
        (message,) = error_lines(caplog)
        assert expected in message and "\n" not in message
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == inputs  # nothing written

    def test_signature_file_of_the_malformed_cases_loads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "s.json", SIGNATURES)
        assert dispatch(SELF_DISTANCE) == 0

    def test_detect_superscript_layer_index(self, tmp_path, monkeypatch, caplog, capsys):
        # "²".isdigit() holds, but int() refuses it
        monkeypatch.chdir(tmp_path)
        for trace in ("t.jsonl", "c1.jsonl", "c2.jsonl"):
            simple_trace_file(tmp_path / trace)
        assert dispatch(DETECT + ["--layer", "²"]) == 1
        assert error_lines(caplog) == ["unknown layer policy '²'"]
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "v.json").exists()

    def test_malformed_json_config(self, tmp_path, caplog):
        grid = tmp_path / "grid.json"
        grid.write_text('{"base": {', encoding="utf-8")
        code = dispatch(["sweep", "--grid", str(grid), "--out", str(tmp_path / "t.csv")])
        assert code == 1
        (message,) = error_lines(caplog)
        assert "malformed JSON" in message and "\n" not in message


TRAIN_PROXY_FILES = {
    "queries.jsonl": QUERY_FILE,
    "proxy.json": dict(PROXY, hidden_dim=4, load_balance_weight=0.01, learning_rate=0.05, epochs=1,
                       batch_size=8, momentum=0.5, seed=3),
    "oracle.json": {"kind": "mlp", "seed": 7, "hidden_dim": 4, "scale": 1.5},
}
TRAIN_PROXY = ["train-proxy", "--oracle", "oracle.json", "--queries", "queries.jsonl",
               "--config", "proxy.json", "--out", "m.bin"]
SCENARIO_FULL = dict(SCENARIO, relatedness=0.5, permute_labels=True, seed=1, layer_bias=[0.5])
# (name, valid files, the file whose keys are mutated, keys whose object values are mutated too, argv)
FUZZ_TARGETS = [
    ("proxy", TRAIN_PROXY_FILES, "proxy.json", (), TRAIN_PROXY),
    ("oracle", TRAIN_PROXY_FILES, "oracle.json", (), TRAIN_PROXY),
    ("model-oracle", {**TRAIN_PROXY_FILES, "oracle.json": {"kind": "shadow-model", "path": "saved.bin"}},
     "oracle.json", (), TRAIN_PROXY),
    ("queries", {"q.json": dict(QUERY_CONFIG, separation=2.0, spread=0.5)}, "q.json", (),
     ["make-queries", "--config", "q.json", "--out", "q.jsonl"]),
    ("scenario", {"s.json": SCENARIO_FULL}, "s.json", (),
     ["synth", "--config", "s.json", "--out-dir", "out"]),
    ("grid", {"grid.json": {"base": SCENARIO, "rho": [0.5, 1.0], "seeds": [0]}}, "grid.json", (), SWEEP),
    ("grid-configs", {"grid.json": {"configs": [SCENARIO_FULL]}}, "grid.json", (), SWEEP),
    ("pipeline", {"p.json": PIPELINE}, "p.json", ("proxy", "oracle"), RUN_PIPELINE),
]
DELETE = object()
MUTATIONS = {"deleted": DELETE, "x": "x", "true": True, "null": None, "list": [], "object": {}}


def fuzz_cases():
    for name, files, target, nested, argv in FUZZ_TARGETS:
        doc = files[target]
        paths = [(key,) for key in doc] + [(key, sub) for key in nested for sub in doc[key]]
        for path in paths:
            for label, value in MUTATIONS.items():
                yield pytest.param(files, target, path, value, argv,
                                   id=f"{name}-{'.'.join(path)}-{label}")


class TestConfigFuzz:
    """Deleting or retyping any one key of any config gives exit 0, or exit 1 and one line."""

    @pytest.mark.parametrize("files, target, path, value, argv", list(fuzz_cases()))
    def test_single_key_mutation(self, tmp_path, monkeypatch, caplog, capsys,
                                 files, target, path, value, argv):
        monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda _pid: {0}, raising=False)
        ShadowMoeModel.initialize(ShadowMoeConfig(**PROXY)).save(tmp_path / "saved.bin")
        doc = copy.deepcopy(files[target])
        *parents, key = path
        node = doc
        for parent in parents:
            node = node[parent]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
        for name, content in {**files, target: doc}.items():
            if isinstance(content, str):
                (tmp_path / name).write_text(content, encoding="utf-8")
            else:
                write_json(tmp_path / name, content)
        monkeypatch.chdir(tmp_path)
        code = dispatch(argv)
        assert "Traceback" not in capsys.readouterr().err
        if code == 0:
            assert error_lines(caplog) == []
        else:
            assert code == 1
            (message,) = error_lines(caplog)
            assert "\n" not in message


DETECT = ["detect", "--teacher", "t.jsonl", "--cand1", "c1.jsonl", "--cand2", "c2.jsonl",
          "--out", "v.json"]
DISTANCE = ["distance", "--teacher", "s1.json", "--student", "s2.json", "--out", "d.json"]
# (arguments relative to a directory of valid inputs, the input file replaced by non-UTF-8 bytes)
NON_UTF8_CASES = [
    (["ingest", "--input", "t.jsonl", "--out", "o.jsonl"], "t.jsonl"),
    (["profile", "--input", "t.jsonl", "--out", "o.json"], "t.jsonl"),
    (DISTANCE, "s1.json"),
    (DISTANCE, "s2.json"),
    (DETECT, "t.jsonl"),
    (DETECT, "c1.jsonl"),
    (DETECT, "c2.jsonl"),
    (TRAIN_PROXY, "oracle.json"),
    (TRAIN_PROXY, "queries.jsonl"),
    (TRAIN_PROXY, "proxy.json"),
    (["make-queries", "--config", "q.json", "--out", "q.jsonl"], "q.json"),
    (["synth", "--config", "s.json", "--out-dir", "out"], "s.json"),
    (SWEEP, "grid.json"),
    (REPORT, "manifest.json"),
    (REPORT, "t.jsonl"),
    (REPORT, "c2.jsonl"),
    (RUN_PIPELINE, "p.json"),
]


class TestNonUtf8Input:
    """An input file that is not UTF-8 gives exit 1 and one line naming it, whatever reads it."""

    @pytest.mark.parametrize(
        "argv, name", NON_UTF8_CASES, ids=[f"{argv[0]}-{name}" for argv, name in NON_UTF8_CASES]
    )
    def test_non_utf8_file(self, tmp_path, monkeypatch, caplog, capsys, argv, name):
        monkeypatch.chdir(tmp_path)
        for trace in ("t.jsonl", "c1.jsonl", "c2.jsonl"):
            simple_trace_file(tmp_path / trace)
        for sig in ("s1.json", "s2.json"):
            assert dispatch(["profile", "--input", "t.jsonl", "--out", sig]) == 0
        docs = {
            **TRAIN_PROXY_FILES,
            "q.json": QUERY_CONFIG,
            "s.json": SCENARIO_FULL,
            "grid.json": {"base": SCENARIO, "rho": [0.5]},
            "manifest.json": {"teacher": "t.jsonl",
                              "pairs": {"math": {"kd": "c1.jsonl", "scratch": "c2.jsonl"}}},
            "p.json": PIPELINE,
        }
        for doc_name, content in docs.items():
            if isinstance(content, str):
                (tmp_path / doc_name).write_text(content, encoding="utf-8")
            else:
                write_json(tmp_path / doc_name, content)
        (tmp_path / name).write_bytes(b'{"schema_version": 1, "kind": "\xff"}\n')
        assert dispatch(argv) == 1
        (message,) = error_lines(caplog)
        assert name in message and "\n" not in message
        assert "Traceback" not in capsys.readouterr().err


class TestIngest:
    def test_roundtrip_and_reproducibility(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        simple_trace_file(src)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert dispatch(["ingest", "--input", str(src), "--out", str(out1)]) == 0
        assert dispatch(["ingest", "--input", str(src), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = json.loads(out1.read_text().splitlines()[0])
        assert header["meta"]["tool_version"]
        assert header["meta"]["config_digest"]


class TestProfile:
    def test_csv_has_one_row_per_expert_per_domain(self, tmp_path):
        src = tmp_path / "t.jsonl"
        simple_trace_file(src)
        out = tmp_path / "p.csv"
        assert dispatch(["profile", "--input", str(src), "--out", str(out), "--format", "csv"]) == 0
        with out.open() as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        spec_rows = [r for r in rows[1:] if r[0] == "specialization"]
        by_domain = {}
        for r in spec_rows:
            by_domain.setdefault(r[2], []).append(float(r[5]))
        assert set(by_domain) == {"math", "code"}
        for values in by_domain.values():
            assert len(values) == 4
            assert abs(sum(values) - 1.0) <= 1e-9

    def test_json_profile_then_distance(self, tmp_path):
        src = tmp_path / "t.jsonl"
        simple_trace_file(src)
        sig = tmp_path / "sig.json"
        assert dispatch(["profile", "--input", str(src), "--out", str(sig)]) == 0
        out = tmp_path / "d.json"
        assert (
            dispatch(
                ["distance", "--teacher", str(sig), "--student", str(sig), "--out", str(out)]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["d_spec"] == 0.0
        assert doc["d_collab"] == 0.0
        assert doc["method"] == "exact-brute-force"
        assert sorted(doc["spec_permutation"]) == [0, 1, 2, 3]

    def test_saved_signatures_score_as_detect(self, tmp_path):
        # a built profile is Fortran-ordered and a loaded one C-ordered; with 9 domains numpy's
        # sum over the domain axis would round by layout, and so move the heuristic's match
        cfg = dict(num_experts=10, num_layers=1, top_k=2, num_domains=9, n_per_domain=10, relatedness=0.5, seed=1)
        write_json(tmp_path / "s.json", cfg)
        assert dispatch(["synth", "--config", str(tmp_path / "s.json"), "--out-dir", str(tmp_path)]) == 0
        traces = {name: str(tmp_path / f"{name}.jsonl") for name in ("teacher", "cand1", "cand2")}
        sigs = {name: str(tmp_path / f"{name}.sig") for name in traces}
        for name in traces:
            assert dispatch(["profile", "--input", traces[name], "--out", sigs[name]]) == 0
        assert dispatch(["detect", "--teacher", traces["teacher"], "--cand1", traces["cand1"],
                         "--cand2", traces["cand2"], "--mode", "heuristic", "--out", str(tmp_path / "v.json")]) == 0
        scores = json.loads((tmp_path / "v.json").read_text())["scores"]
        for name, row in zip(("cand1", "cand2"), scores):
            out = tmp_path / f"{name}.dist"
            argv = ["distance", "--teacher", sigs["teacher"], "--student", sigs[name], "--mode", "heuristic",
                    "--out", str(out)]
            assert dispatch(argv) == 0
            doc = json.loads(out.read_text())
            assert (doc["d_spec"], doc["d_collab"]) == (row["d_spec"], row["d_collab"])


class TestSynthDetect:
    def test_detect_matches_ground_truth_manifest(self, tmp_path):
        cfg = dict(
            num_experts=8,
            num_layers=1,
            top_k=2,
            num_domains=4,
            n_per_domain=60,
            relatedness=1.0,
            permute_labels=True,
            seed=3,
        )
        cfg_path = tmp_path / "scenario.json"
        write_json(cfg_path, cfg)
        out_dir = tmp_path / "scn"
        assert dispatch(["synth", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        verdict_path = tmp_path / "verdict.json"
        code = dispatch(
            [
                "detect",
                "--teacher", str(out_dir / "teacher.jsonl"),
                "--cand1", str(out_dir / "cand1.jsonl"),
                "--cand2", str(out_dir / "cand2.jsonl"),
                "--out", str(verdict_path),
            ]
        )
        assert code == 0
        verdict = json.loads(verdict_path.read_text())
        assert verdict["predicted"] == manifest["distilled"]
        assert not verdict["tie"]
        assert verdict["margin"] > 0

    def test_synth_reruns_byte_identical(self, tmp_path):
        cfg = dict(
            num_experts=6, num_layers=1, top_k=2, num_domains=3,
            n_per_domain=20, relatedness=0.5, seed=9,
        )
        cfg_path = tmp_path / "c.json"
        write_json(cfg_path, cfg)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        assert dispatch(["synth", "--config", str(cfg_path), "--out-dir", str(d1)]) == 0
        assert dispatch(["synth", "--config", str(cfg_path), "--out-dir", str(d2)]) == 0
        for name in ("teacher.jsonl", "cand1.jsonl", "cand2.jsonl", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestSweep:
    def test_grid_expansion_row_count(self, tmp_path):
        grid = {
            "base": dict(num_experts=6, num_layers=1, top_k=2, num_domains=3, n_per_domain=20),
            "rho": [0.0, 1.0],
            "seeds": [0, 1, 2],
        }
        grid_path = tmp_path / "grid.json"
        write_json(grid_path, grid)
        out = tmp_path / "table.csv"
        assert dispatch(["sweep", "--grid", str(grid_path), "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert len(rows) - 1 == 6  # header + one row per config
        assert rows[0][:2] == ["rho", "num_experts"]


class TestFrozenBytes:
    """sha256 of seeded ``detect`` verdicts and ``sweep`` CSVs; a change to scoring or matching that moves
    these bytes is a bug until shown otherwise."""

    @pytest.mark.parametrize("num_experts, mode, digest", [
        (8, "exact", "f946c4fc752e79bfad43e8d7b1e4e383c4dd73e45a7975dfc9310128d3facc6b"),
        (12, "heuristic", "d69af22e222c598b9d7c0ebb3e22d8dbcdadf9419e862028b256386326483116"),
    ])
    def test_detect_verdict(self, tmp_path, num_experts, mode, digest):
        self._synth(tmp_path, num_experts)
        verdict = tmp_path / "verdict.json"
        t, c1, c2 = (str(tmp_path / f"{name}.jsonl") for name in ("teacher", "cand1", "cand2"))
        argv = ["detect", "--teacher", t, "--cand1", c1, "--cand2", c2, "--mode", mode, "--out", str(verdict)]
        assert dispatch(argv) == 0
        assert hashlib.sha256(verdict.read_bytes()).hexdigest() == digest

    @staticmethod
    def _synth(tmp_path, num_experts):
        write_json(tmp_path / "s.json", dict(num_experts=num_experts, num_layers=2, top_k=2, num_domains=3,
                                             n_per_domain=40, relatedness=0.6, permute_labels=True, seed=7))
        assert dispatch(["synth", "--config", str(tmp_path / "s.json"), "--out-dir", str(tmp_path)]) == 0
        return json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("num_experts, mode, digest", [
        (8, "exact", "f96ef0071712b800e34423a1d8b794536141c06dad8d8c2e204edcd286fafdcc"),
        (12, "heuristic", "8a75907047f15cc1fbf6ec3c0378e99e39342b4cc0c96823e73eb390d7e0c6ed"),
    ])
    def test_distance_json(self, tmp_path, num_experts, mode, digest):
        # teacher against the relabeled distilled candidate: both relabelings are written
        distilled = self._synth(tmp_path, num_experts)["distilled"]
        for name in ("teacher", distilled):
            argv = ["profile", "--input", str(tmp_path / f"{name}.jsonl"), "--out", str(tmp_path / f"{name}.sig.json")]
            assert dispatch(argv) == 0
        out = tmp_path / "distance.json"
        argv = ["distance", "--teacher", str(tmp_path / "teacher.sig.json"),
                "--student", str(tmp_path / f"{distilled}.sig.json"), "--mode", mode, "--out", str(out)]
        assert dispatch(argv) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert mode in doc["method"] and doc["collab_permutation"] is not None
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_synth_manifest(self, tmp_path):
        manifest = self._synth(tmp_path, 8)
        assert sorted(manifest["hidden_permutation"]) == list(range(8))
        digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
        assert digest == "36d67db9122790a74658cb07cada6840e17791cd3e209e56634cde820363835a"

    @pytest.mark.parametrize("base, rhos, seeds, digest", [
        pytest.param(dict(num_experts=4, top_k=1, num_domains=2, n_per_domain=3), [0.5, 1.0], [0, 1, 2, 3],
                     "de20eb0047458b9f5845fe48633579a0e8ea53e0af08dd733f2432cfca406425", id="ties"),
        pytest.param(dict(num_experts=8, top_k=2, num_domains=3, n_per_domain=40), [0.0, 0.3, 0.5, 1.0], [0, 1],
                     "f0225ceba6b3ac226a1bc3be1692e679000a3e2ba1a62666b46f96169e6c3144", id="e8"),
    ])
    def test_sweep_csv(self, tmp_path, base, rhos, seeds, digest):
        write_json(tmp_path / "grid.json", {"base": {**base, "num_layers": 1}, "rho": rhos, "seeds": seeds})
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--grid", str(tmp_path / "grid.json"), "--out", str(out)]) == 0
        if base["top_k"] == 1:  # no co-activation mass: scored by d_spec alone, and some pairs tie
            assert ",True," in out.read_text(encoding="utf-8")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTrainProxy:
    def test_train_export_and_determinism(self, tmp_path):
        qcfg = dict(kind="gaussian-domains", seed=5, num_domains=2, n_per_domain=10, input_dim=3)
        qcfg_path = tmp_path / "q.json"
        write_json(qcfg_path, qcfg)
        queries_path = tmp_path / "queries.jsonl"
        assert dispatch(["make-queries", "--config", str(qcfg_path), "--out", str(queries_path)]) == 0

        oracle = {"kind": "linear", "seed": 2, "scale": 0.5}
        oracle_path = tmp_path / "oracle.json"
        write_json(oracle_path, oracle)
        proxy_cfg = dict(
            num_layers=1, experts_per_layer=4, top_k=2, input_dim=3, output_dim=2,
            hidden_dim=6, epochs=3, seed=11,
        )
        cfg_path = tmp_path / "proxy.json"
        write_json(cfg_path, proxy_cfg)

        outputs = []
        for tag in ("x", "y"):
            model_path = tmp_path / f"model-{tag}.bin"
            traces_path = tmp_path / f"traces-{tag}.jsonl"
            losses_path = tmp_path / f"losses-{tag}.json"
            code = dispatch(
                [
                    "train-proxy",
                    "--oracle", str(oracle_path),
                    "--queries", str(queries_path),
                    "--config", str(cfg_path),
                    "--out", str(model_path),
                    "--traces", str(traces_path),
                    "--losses", str(losses_path),
                ]
            )
            assert code == 0
            outputs.append((model_path.read_bytes(), traces_path.read_bytes(), losses_path.read_bytes()))
        assert outputs[0] == outputs[1]
        losses = json.loads((tmp_path / "losses-x.json").read_text())["losses"]
        assert len(losses) == proxy_cfg["epochs"] + 1

    def test_logs_written_record_count(self, tmp_path, caplog):
        qcfg = dict(kind="gaussian-domains", seed=5, num_domains=2, n_per_domain=5, input_dim=3)
        qcfg_path = tmp_path / "q.json"
        write_json(qcfg_path, qcfg)
        queries_path = tmp_path / "queries.jsonl"
        assert dispatch(["make-queries", "--config", str(qcfg_path), "--out", str(queries_path)]) == 0
        oracle_path = tmp_path / "oracle.json"
        write_json(oracle_path, {"kind": "linear", "seed": 2})
        cfg_path = tmp_path / "proxy.json"
        write_json(cfg_path, dict(num_layers=3, experts_per_layer=4, top_k=2, input_dim=3,
                                  output_dim=2, epochs=1))
        traces_path = tmp_path / "traces.jsonl"
        caplog.set_level(logging.INFO, logger="moesig")
        code = dispatch(
            [
                "train-proxy",
                "--oracle", str(oracle_path),
                "--queries", str(queries_path),
                "--config", str(cfg_path),
                "--out", str(tmp_path / "m.bin"),
                "--traces", str(traces_path),
            ]
        )
        assert code == 0
        # 10 queries x 3 recorded layers, one record per line after the header
        assert len(traces_path.read_text().splitlines()) == 1 + 30
        (message,) = [r.getMessage() for r in caplog.records if "trace records" in r.getMessage()]
        assert message.startswith("exported 30 trace records")


class TestReport:
    def test_benchmark_directory_report(self, tmp_path):
        scenario = generate_scenario(
            ScenarioConfig(
                num_experts=6, num_layers=1, top_k=2, num_domains=3,
                n_per_domain=40, relatedness=0.95, seed=4,
            )
        )
        bench = tmp_path / "bench"
        bench.mkdir()
        write_traces(scenario.teacher, bench / "teacher.jsonl")
        write_traces(scenario.distilled, bench / "kd.jsonl")
        write_traces(scenario.scratch, bench / "scratch.jsonl")
        manifest = {
            "teacher": "teacher.jsonl",
            "pairs": {"all": {"kd": "kd.jsonl", "scratch": "scratch.jsonl"}},
            "meta": {"seed": 4},
        }
        write_json(bench / "manifest.json", manifest)
        out = tmp_path / "report.csv"
        assert dispatch(["report", "--benchmark", str(bench), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# accuracy=1.0")
        with out.open() as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[0][0] == "domain"
        assert rows[1][0] == "all"
        assert rows[1][rows[0].index("verdict")] == "kd"


class TestPooledReads:
    """``detect`` reads its trace files on the pool; its outputs and errors, and ``report``'s, do not depend on the CPUs."""

    @staticmethod
    def run_at(monkeypatch, cpus, argv):
        monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
        return dispatch(argv)

    def test_outputs_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        # seven trace files: one teacher, a (kd, scratch) pair per domain for three domains
        bench = tmp_path / "bench"
        pairs = {}
        for seed in range(3):
            scenario = generate_scenario(ScenarioConfig(
                num_experts=6, num_layers=2, top_k=2, num_domains=3, n_per_domain=30,
                relatedness=0.8, seed=seed,
            ))
            if seed == 0:
                write_scenario(scenario, bench)
            pairs[f"d{seed}"] = {"kd": f"kd{seed}.jsonl", "scratch": f"scratch{seed}.jsonl"}
            write_traces(scenario.distilled, bench / pairs[f"d{seed}"]["kd"])
            write_traces(scenario.scratch, bench / pairs[f"d{seed}"]["scratch"])
        write_json(bench / "manifest.json", {"teacher": "teacher.jsonl", "pairs": pairs})
        outputs = {}
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            detect = ["detect", "--teacher", str(bench / "teacher.jsonl"), "--cand1",
                      str(bench / "cand1.jsonl"), "--cand2", str(bench / "cand2.jsonl")]
            assert self.run_at(monkeypatch, cpus, detect + ["--out", str(out / "v.json")]) == 0
            for fmt in ("csv", "json"):
                report = ["report", "--benchmark", str(bench), "--format", fmt]
                assert self.run_at(monkeypatch, cpus, report + ["--out", str(out / f"r.{fmt}")]) == 0
            outputs[cpus] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(outputs[1]) == ["r.csv", "r.json", "v.json"]
        assert outputs[1] == outputs[2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_earliest_malformed_file_names_the_error(self, tmp_path, monkeypatch, caplog, cpus):
        for name in ("t.jsonl", "c1.jsonl", "c2.jsonl"):
            simple_trace_file(tmp_path / name)
        with (tmp_path / "t.jsonl").open("a", encoding="utf-8") as fh:
            fh.write("{bad\n")  # line 4
        lines = (tmp_path / "c2.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace('"layer":0', '"layer":7')
        (tmp_path / "c2.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert self.run_at(monkeypatch, cpus, DETECT) == 1
        (message,) = error_lines(caplog)
        assert message.startswith("t.jsonl: line 4: malformed JSON")
        assert not (tmp_path / "v.json").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_layer_faults_come_first_then_in_file_order(self, tmp_path, monkeypatch, caplog, cpus):
        # an unknown --layer name faults before any file is opened; a layer index out of
        # range for a file faults in file order, together with that file's read faults
        simple_trace_file(tmp_path / "t.jsonl")
        simple_trace_file(tmp_path / "c1.jsonl")
        (tmp_path / "c2.jsonl").write_text("{bad\n", encoding="utf-8")
        write_json(tmp_path / "manifest.json",
                   {"teacher": "t.jsonl", "pairs": {"math": {"kd": "c1.jsonl", "scratch": "c2.jsonl"}}})
        monkeypatch.chdir(tmp_path)
        cases = [
            (DETECT + ["--layer", "middle"], "unknown layer policy 'middle'"),
            (DETECT + ["--layer", "1"], "t.jsonl: explicit layer 1 out of range (0..0)"),
            (REPORT + ["--layer", "1"], "t.jsonl: explicit layer 1 out of range (0..0)"),
            (["profile", "--input", "missing.jsonl", "--out", "p.json", "--layer-policy", "middle"],
             "unknown layer policy 'middle'"),
            (["report", "--benchmark", "missing", "--out", "r.csv", "--layer", "middle"],
             "unknown layer policy 'middle'"),
            (["sweep", "--grid", "missing.json", "--out", "s.csv", "--layer", "middle"],
             "unknown layer policy 'middle'"),
        ]
        for argv, expected in cases:
            caplog.clear()
            assert self.run_at(monkeypatch, cpus, argv) == 1
            assert error_lines(caplog) == [expected]
        # the teacher's read fault comes before a candidate's layer fault
        (tmp_path / "t.jsonl").write_text("{bad\n", encoding="utf-8")
        simple_trace_file(tmp_path / "c2.jsonl")
        for argv in (DETECT + ["--layer", "1"], REPORT + ["--layer", "1"]):
            caplog.clear()
            assert self.run_at(monkeypatch, cpus, argv) == 1
            (message,) = error_lines(caplog)
            assert message.startswith("t.jsonl: line 1: malformed JSON")
        assert not (tmp_path / "v.json").exists() and not (tmp_path / "r.csv").exists()


    def test_detect_holds_one_trace_set_at_a_time(self, tmp_path, monkeypatch):
        # each file becomes signatures as soon as it is read, so at one CPU detect's
        # tracemalloc peak stays within half a trace set (1.1 MB here) of one read's; holding
        # all three trace sets until the signatures were built added about 2.2 MB
        scenario = generate_scenario(ScenarioConfig(
            num_experts=16, num_layers=4, top_k=4, num_domains=9, n_per_domain=1000, relatedness=0.5, seed=1))
        write_scenario(scenario, tmp_path)
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            traces = ingest_traces(tmp_path / "teacher.jsonl")
            held, read_peak = tracemalloc.get_traced_memory()
            del traces
            size = held - tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            detect = ["detect", "--teacher", "teacher.jsonl", "--cand1", "cand1.jsonl", "--cand2", "cand2.jsonl"]
            monkeypatch.chdir(tmp_path)
            assert dispatch(detect + ["--out", "v.json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 1e6
        assert peak < read_peak + size / 2


    def test_report_holds_one_trace_set_at_a_time(self, tmp_path, monkeypatch):
        # each of the five files becomes signatures as soon as it is read, so report's tracemalloc
        # peak stays within half a trace set (1.1 MB here) of one read's; holding all five trace
        # sets until scoring added about 4.4 MB
        scenario = generate_scenario(ScenarioConfig(
            num_experts=16, num_layers=4, top_k=4, num_domains=9, n_per_domain=1000, relatedness=0.5, seed=1))
        write_scenario(scenario, tmp_path)
        pair = {"kd": "cand1.jsonl", "scratch": "cand2.jsonl"}
        write_json(tmp_path / "manifest.json", {"teacher": "teacher.jsonl", "pairs": {"a": pair, "b": pair}})
        tracemalloc.start()
        try:
            traces = ingest_traces(tmp_path / "teacher.jsonl")
            held, read_peak = tracemalloc.get_traced_memory()
            del traces
            size = held - tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            monkeypatch.chdir(tmp_path)
            assert dispatch(REPORT) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 1e6
        assert peak < read_peak + size / 2


class TestEmitReport:
    def test_reduction_columns_and_accuracy(self, tmp_path):
        report = BenchmarkReport(
            rows=(
                BenchmarkRow("d1", 0.8, 1.0, 0.8, 1.0, 0.2, "kd", False),
                BenchmarkRow("d2", 0.5, 1.0, 0.25, 0.5, 0.375, "kd", False),
                BenchmarkRow("d3", 1.0, 0.5, 1.0, 0.5, -0.5, "scratch", False),
                BenchmarkRow("d4", 0.2, 0.4, 0.1, 0.2, 0.15, "kd", False),
            ),
            layer_policy="last",
            mode="auto",
        )
        assert report.accuracy == 0.75
        path = tmp_path / "r.csv"
        emit_report(report, path, fmt="csv", meta={"seed": 1})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# accuracy=0.75")
        header = lines[1].split(",")
        row = lines[2].split(",")
        assert header[header.index("spec_reduction_pct")] == "spec_reduction_pct"
        assert float(row[header.index("spec_reduction_pct")]) == pytest.approx(-20.0)
        assert float(row[header.index("collab_reduction_pct")]) == pytest.approx(-20.0)

        json_path = tmp_path / "r.json"
        emit_report(report, json_path, fmt="json", meta={"seed": 1})
        doc = json.loads(json_path.read_text())
        assert doc["accuracy"] == 0.75
        assert doc["rows"][0]["spec_reduction_pct"] == pytest.approx(-20.0)

    def test_all_correct_accuracy_one(self, tmp_path):
        rows = tuple(
            BenchmarkRow(f"d{i}", 0.1, 0.9, 0.1, 0.9, 0.4, "kd", False) for i in range(4)
        )
        report = BenchmarkReport(rows=rows, layer_policy="last", mode="auto")
        path = tmp_path / "r.json"
        emit_report(report, path, fmt="json")
        assert json.loads(path.read_text())["accuracy"] == 1.0
