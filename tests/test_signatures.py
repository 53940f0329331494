from __future__ import annotations

import csv
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moesig import signatures
from moesig.errors import SignatureError
from moesig.routing_trace import build_trace_set
from moesig.signatures import (
    compute_collaboration,
    compute_specialization,
    dump_bundle_csv,
    load_bundle,
    parse_layer_policy,
    resolve_layer,
    save_bundle,
    signature_bundle,
)
from moesig.transport import signature_distances

from _oracles import naive_collaboration, naive_specialization
from helpers import drop_domains, random_trace_set, relabel_traces, selection_frequency, traced_peak


def make_traces(records, num_experts=4, num_layers=1, domains=("d1",)):
    return build_trace_set(
        model_id="t",
        num_layers=num_layers,
        experts_per_layer=(num_experts,) * num_layers,
        domains=domains,
        records=records,
    )


def test_specialization_constant_k_column():
    # two queries, both {0, 1} with k=2: S_bin = [1, 1, 0, 0], kappa = 2
    ts = make_traces([("a", 1, 0, (0, 1)), ("b", 1, 0, (0, 1))])
    prof = compute_specialization(ts, 0)
    assert np.array_equal(prof.matrix[:, 0], [0.5, 0.5, 0.0, 0.0])
    assert prof.kappa_per_domain[0] == 2.0
    assert prof.counts[0] == 2


def test_specialization_mixed_k_frozen_values():
    # query A selects {2} (k=1), query B selects {0,1,2} (k=3)
    ts = make_traces([("a", 1, 0, (2,)), ("b", 1, 0, (0, 1, 2))])
    prof = compute_specialization(ts, 0)
    s_bin = selection_frequency(prof)
    assert np.allclose(s_bin[:, 0], [0.5, 0.5, 1.0, 0.0], atol=0, rtol=0)
    assert prof.kappa_per_domain[0] == 2.0
    assert np.array_equal(prof.matrix[:, 0], [0.25, 0.25, 0.5, 0.0])
    assert prof.matrix[:, 0].sum() == 1.0


def test_specialization_large_shape_constant_k():
    # 64 routed experts with a constant top-8, the shape used by real MoE LLMs
    rng = np.random.default_rng(5)
    records = []
    for q in range(30):
        dom = int(rng.integers(1, 4))
        sel = tuple(int(i) for i in rng.choice(64, size=8, replace=False))
        records.append((f"q{q}", dom, 0, sel))
    ts = make_traces(records, num_experts=64, domains=("d1", "d2", "d3"))
    prof = compute_specialization(ts, 0)
    assert prof.matrix.shape == (64, len(prof.domain_labels))
    assert np.all(prof.kappa_per_domain == 8.0)


def test_collaboration_single_pair():
    ts = make_traces([("a", 1, 0, (0, 1))])
    cm = compute_collaboration(ts, 0)
    assert cm.matrix[0, 1] == 0.5
    assert cm.matrix[1, 0] == 0.5
    assert cm.matrix.sum() == 1.0
    assert cm.pair_normalizer == 2.0
    assert not cm.zero_mass


def test_collaboration_two_queries_frozen_values():
    ts = make_traces([("a", 1, 0, (0, 1)), ("b", 1, 0, (1, 2))])
    cm = compute_collaboration(ts, 0)
    assert cm.pair_normalizer == 2.0
    expected = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        expected[i, j] = 0.25
    assert np.array_equal(cm.matrix, expected)


def test_collaboration_all_k1_zero_mass():
    ts = make_traces([("a", 1, 0, (0,)), ("b", 1, 0, (3,))])
    cm = compute_collaboration(ts, 0)
    assert cm.zero_mass
    assert cm.pair_normalizer == 0.0
    assert np.all(cm.matrix == 0.0)


def test_normalization_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ts = random_trace_set(rng, max_queries=30)
        prof = compute_specialization(ts, 0)
        assert np.all(np.abs(prof.matrix.sum(axis=0) - 1.0) <= 1e-9)
        assert np.all(prof.matrix >= 0.0)
        assert np.all(prof.matrix <= 1.0)
        cm = compute_collaboration(ts, 0)
        assert np.all(np.diag(cm.matrix) == 0.0)
        assert np.array_equal(cm.matrix, cm.matrix.T)
        if not cm.zero_mass:
            assert abs(cm.matrix.sum() - 1.0) <= 1e-9


def test_matches_naive_counting_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        ts = random_trace_set(rng, max_queries=50, max_experts=8, max_domains=4)
        labels, s_bin, kappa, s_bar, counts = naive_specialization(ts, 0)
        prof = compute_specialization(ts, 0)
        assert prof.domain_labels == tuple(labels)
        assert np.array_equal(prof.matrix, s_bar)
        assert np.array_equal(prof.kappa_per_domain, kappa)
        assert np.array_equal(prof.counts, counts)
        b_bar, normalizer, zero_mass = naive_collaboration(ts, 0)
        cm = compute_collaboration(ts, 0)
        assert cm.zero_mass == zero_mass
        assert np.array_equal(cm.matrix, b_bar)
        assert cm.pair_normalizer == normalizer


def test_permutation_equivariance_exact():
    rng = np.random.default_rng(4)
    ts = random_trace_set(rng, max_queries=40, max_experts=6)
    num_experts = ts.experts_per_layer[0]
    sigma = tuple(int(i) for i in rng.permutation(num_experts))
    relabeled = relabel_traces(ts, sigma)
    prof = compute_specialization(ts, 0)
    prof_rel = compute_specialization(relabeled, 0)
    # relabeling i -> sigma[i] moves row i to row sigma[i]
    inverse = np.argsort(np.asarray(sigma))
    assert np.array_equal(prof_rel.matrix, prof.matrix[inverse])
    cm = compute_collaboration(ts, 0)
    cm_rel = compute_collaboration(relabeled, 0)
    assert np.array_equal(cm_rel.matrix, cm.matrix[np.ix_(inverse, inverse)])


def test_empty_domains_excluded_by_default():
    ts = make_traces([("a", 2, 0, (0, 1))], domains=("d1", "d2", "d3"))
    prof = compute_specialization(ts, 0)
    assert prof.domain_labels == ("d2",)
    assert prof.matrix.shape == (4, 1)


def test_missing_layer_errors():
    ts = build_trace_set(
        "m",
        2,
        (4, 4),
        ("d1",),
        [("a", 1, 0, (0,)), ("a", 1, 1, (0,)), ("b", 1, 0, (1,))],
    )
    with pytest.raises(SignatureError, match="'b' has no selection at layer 1"):
        compute_specialization(ts, 1)
    with pytest.raises(SignatureError, match="out of range"):
        compute_specialization(ts, 5)


def test_empty_trace_set_errors():
    with pytest.raises(SignatureError, match="empty"):
        signature_bundle(make_traces([]))


def test_layer_policy_resolution():
    assert resolve_layer("last", 3) == 2
    assert resolve_layer("median", 3) == 1
    assert resolve_layer("first", 3) == 0
    assert resolve_layer("last", 1) == 0
    assert resolve_layer("median", 1) == 0
    assert resolve_layer("first", 1) == 0
    assert resolve_layer(1, 3) == 1
    with pytest.raises(SignatureError, match="out of range"):
        resolve_layer(3, 3)
    with pytest.raises(SignatureError, match="unknown layer policy"):
        resolve_layer("middle", 3)


@pytest.mark.parametrize("raw, policy", [("2", 2), ("+2", 2), ("-1", -1), ("last", "last"),
                                         ("²", "²"), ("٣", "٣"), ("+-2", "+-2"), ("", ""),
                                         pytest.param("9" * 18, 10**18 - 1, id="18-digits"),
                                         pytest.param("1" * 19, "1" * 19, id="19-digits"),
                                         pytest.param("-" + "1" * 5000, "-" + "1" * 5000, id="5000-digits")])
def test_parse_layer_policy_reads_only_ascii_digits_as_an_index(raw, policy):
    if isinstance(policy, str) and policy != "last":
        for resolve in (parse_layer_policy, lambda name: resolve_layer(name, 3)):
            with pytest.raises(SignatureError, match=re.escape(f"unknown layer policy {policy!r}")):
                resolve(raw)
    else:
        assert parse_layer_policy(raw) == policy


def test_signature_bundle_default_last_layer():
    ts = build_trace_set(
        "m",
        3,
        (4, 4, 4),
        ("d1",),
        [(q, 1, layer, (0, 1)) for q in ("a", "b") for layer in range(3)],
    )
    bundle = signature_bundle(ts)
    assert bundle.spec.layer == 2
    assert bundle.collab.layer == 2
    spec, collab = bundle  # unpacks as a (profile, matrix) pair
    assert spec is bundle.spec and collab is bundle.collab


def test_bundle_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    ts = random_trace_set(rng)
    bundle = signature_bundle(ts)
    path = tmp_path / "sig.json"
    save_bundle(bundle, path, meta={"model_id": ts.model_id})
    _assert_same_bundle(load_bundle(path), bundle)


def _assert_same_bundle(back, bundle):
    assert np.array_equal(back.spec.matrix, bundle.spec.matrix)
    assert np.array_equal(back.spec.kappa_per_domain, bundle.spec.kappa_per_domain)
    assert np.array_equal(back.spec.counts, bundle.spec.counts)
    assert back.spec.domain_labels == bundle.spec.domain_labels
    assert np.array_equal(back.collab.matrix, bundle.collab.matrix)
    assert back.collab.pair_normalizer == bundle.collab.pair_normalizer
    assert back.collab.zero_mass == bundle.collab.zero_mass


def _same_shape_traces(rng, model_id, num_experts, num_domains, max_k):
    """A one-layer trace set with a query in every domain; the first query selects ``max_k`` experts."""
    domains = np.concatenate([np.arange(num_domains), rng.integers(0, num_domains, int(rng.integers(0, 40)))])
    records = [
        (f"q{q}", int(d) + 1, 0,
         tuple(sorted(rng.choice(num_experts, max_k if q == 0 else int(rng.integers(1, max_k + 1)), replace=False))))
        for q, d in enumerate(domains)
    ]
    return build_trace_set(model_id, 1, (num_experts,), tuple(f"d{j + 1}" for j in range(num_domains)), records)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_experts=st.integers(2, 12), num_domains=st.integers(1, 12),
       max_k=st.integers(1, 4))
@example(seed=0, num_experts=8, num_domains=10, max_k=3)  # tied heuristic spec costs
def test_saved_bundle_scores_as_built(tmp_path_factory, seed, num_experts, num_domains, max_k):
    # built signatures pass the constructors' checks, and a saved copy, whose arrays have
    # another memory layout, scores bit for bit as the built one in both matching modes
    rng = np.random.default_rng(seed)
    max_k = min(max_k, num_experts)
    built = [signature_bundle(_same_shape_traces(rng, name, num_experts, num_domains, max_k)) for name in "tsu"]
    loaded = []
    for bundle in built:
        path = tmp_path_factory.mktemp("sig") / "sig.json"
        save_bundle(bundle, path)
        loaded.append(load_bundle(path))
        _assert_same_bundle(loaded[-1], bundle)
    for mode in ("auto", "heuristic"):
        assert signature_distances(loaded[0], loaded[1:], mode) == signature_distances(built[0], built[1:], mode)


def _truncate(doc, text):
    return text[: len(text) // 2]


def _drop_specialization(doc, text):
    del doc["specialization"]
    return json.dumps(doc)


def _shrink_collaboration(doc, text):
    doc["collaboration"]["matrix"] = [row[:-1] for row in doc["collaboration"]["matrix"][:-1]]
    return json.dumps(doc)


def _ragged_kappa(doc, text):
    doc["specialization"]["kappa_per_domain"].append(1.0)
    return json.dumps(doc)


def _ragged_matrix(doc, text):
    doc["specialization"]["matrix"][0].append(0.5)
    return json.dumps(doc)


def _drop_domains(doc, text):
    drop_domains(doc)
    return json.dumps(doc)


def _set_entry(kind, value):
    # entry [1][0] exists in both matrices, whatever the domain count
    def corrupt(doc, text):
        doc[kind]["matrix"][1][0] = value
        return json.dumps(doc)

    return corrupt


def _zero_mass_string(doc, text):
    doc["collaboration"]["zero_mass"] = "false"
    return json.dumps(doc)


def _set_field(section, key, value):
    # section None sets a top-level field
    def corrupt(doc, text):
        (doc if section is None else doc[section])[key] = value
        return json.dumps(doc)

    return corrupt


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_truncate, "malformed JSON"),
        (_drop_specialization, "missing field 'specialization'"),
        (_shrink_collaboration, "collaboration matrix has"),
        (_ragged_kappa, "inconsistent"),
        (_ragged_matrix, "malformed"),
        (_drop_domains, "at least one expert and one domain"),
        (_set_entry("collaboration", float("nan")), "collaboration matrix has a negative or non-finite"),
        (_set_entry("collaboration", -0.25), "collaboration matrix has a negative or non-finite"),
        (_set_entry("specialization", float("nan")), "specialization matrix has a negative or non-finite"),
        (_set_entry("specialization", float("inf")), "specialization matrix has a negative or non-finite"),
        (_set_entry("specialization", -0.25), "specialization matrix has a negative or non-finite"),
        (_zero_mass_string, "zero_mass must be true or false"),
        (_set_field("collaboration", "zero_mass", True), "a zero_mass collaboration matrix must be all zero"),
        (_set_field(None, "layer", 1.5), "layer must be an integer >= 0, got 1.5"),
        (_set_field(None, "layer", True), "layer must be an integer >= 0, got True"),
        (_set_field(None, "layer", -3), "layer must be an integer >= 0, got -3"),
        (_set_field(None, "domains", "d"), "domains must be a list of strings"),
        (_set_field(None, "domains", [1]), "domains must be a list of strings"),
        (_set_field("specialization", "kappa_per_domain", [float("nan")]),
         "kappa_per_domain has a negative or non-finite"),
        (_set_field("specialization", "kappa_per_domain", [-1.0]),
         "kappa_per_domain has a negative or non-finite"),
        (_set_field("specialization", "counts", [-5]), "counts must be a list of integers >= 0"),
        (_set_field("specialization", "counts", [2.5]), "counts must be a list of integers >= 0"),
        (_set_field("specialization", "counts", [10**30]), "malformed"),
        (_set_field("collaboration", "pair_normalizer", float("nan")),
         "pair_normalizer must be a finite number >= 0"),
        (_set_field("collaboration", "pair_normalizer", "2.0"),
         "pair_normalizer must be a finite number >= 0"),
        (_set_field("collaboration", "pair_normalizer", -1.0),
         "pair_normalizer must be a finite number >= 0"),
        (_set_field(None, "domains", ["\ud800"]), "sig.json: a lone surrogate escape is not UTF-8 text"),
    ],
)
def test_load_bundle_rejects_malformed_file(tmp_path, corrupt, match):
    ts = make_traces([("a", 1, 0, (0, 1)), ("b", 1, 0, (1, 2))])
    path = tmp_path / "sig.json"
    save_bundle(signature_bundle(ts), path)
    text = path.read_text(encoding="utf-8")
    path.write_text(corrupt(json.loads(text), text), encoding="utf-8")
    with pytest.raises(SignatureError, match=match):
        load_bundle(path)


def test_csv_dump_columns_sum_to_one(tmp_path):
    ts = make_traces(
        [("a", 1, 0, (0, 1)), ("b", 2, 0, (1, 2, 3))], domains=("d1", "d2")
    )
    path = tmp_path / "sig.csv"
    dump_bundle_csv(signature_bundle(ts), path, meta_line="test")
    with path.open() as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    header, data = rows[0], rows[1:]
    spec_rows = [r for r in data if r[0] == "specialization"]
    domains = {r[2] for r in spec_rows}
    assert domains == {"d1", "d2"}
    for dom in domains:
        values = [float(r[5]) for r in spec_rows if r[2] == dom]
        assert len(values) == 4  # one row per expert
        assert abs(sum(values) - 1.0) <= 1e-9


def block_trace_set(n, num_experts, k, seed=0):
    """One-layer trace set of n queries in three domains, k distinct experts each, built from arrays."""
    rng = np.random.default_rng(seed)
    steps = np.cumsum(rng.integers(1, num_experts // k, (n, k)), axis=1)
    topk = (rng.integers(0, num_experts, (n, 1)) + steps) % num_experts
    ids = [f"q{i}" for i in range(n)]
    return build_trace_set("t", 1, (num_experts,), ("d1", "d2", "d3"), [(ids, rng.integers(1, 4, n), 0, topk)])


def test_signature_bundle_memory_is_bounded():
    # a dense float64 (n, E) activation matrix of this set alone takes 205 MB
    ts = block_trace_set(100_000, 256, 8)
    bundle, _, peak = traced_peak(lambda: signature_bundle(ts))
    assert peak < 50e6
    assert bundle.collab.pair_normalizer == 56.0
    assert np.array_equal(bundle.spec.kappa_per_domain, [8.0, 8.0, 8.0])


def test_chunked_collaboration_equals_one_shot(monkeypatch):
    ts = block_trace_set(1000, 32, 4, seed=3)
    acts = np.zeros((ts.num_queries, 32))
    acts[np.repeat(np.arange(ts.num_queries), ts.counts[0]), ts.experts[0]] = 1.0
    pair_counts = (acts.T @ acts).astype(np.int64)
    np.fill_diagonal(pair_counts, 0)
    monkeypatch.setattr(signatures, "_CHUNK_CELLS", 32 * 7)  # seven queries per chunk
    collab = compute_collaboration(ts, 0)
    assert np.array_equal(collab.matrix, pair_counts / pair_counts.sum())
    assert collab.pair_normalizer == 12.0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pair_counts_equal_dense_formula(data):
    # mixed k, unrecorded rows (k = 0) and chunks down to one query, against A^T A off the diagonal
    num_experts = data.draw(st.integers(1, 12))
    selections = data.draw(st.lists(st.sets(st.integers(0, num_experts - 1)), min_size=1, max_size=30))
    chunk_cells = data.draw(st.integers(1, 300))
    counts = np.array([len(s) for s in selections], np.int32)
    experts = np.array([e for s in selections for e in sorted(s)], np.int16)
    acts = np.zeros((len(selections), num_experts))
    acts[np.repeat(np.arange(len(selections)), counts), experts] = 1.0
    dense = (acts.T @ acts).astype(np.int64)
    np.fill_diagonal(dense, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signatures, "_CHUNK_CELLS", chunk_cells)
        got = signatures._pair_counts(counts, experts, num_experts)
    assert got.dtype == np.int64
    assert np.array_equal(got, dense)
