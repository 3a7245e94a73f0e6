"""Tests for the dataloader stages: fill, convert, process, emit."""

import copy
import dataclasses
import json
import re
import threading
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rows as row_adapter
from rows import (
    ImpressionRecord,
    as_batch,
    as_records,
    ikjt_to_kjt,
    jt_equal,
    serialize_batch,
    to_pylists,
)
from sessiondedup.datagen import (
    FeatureSpec,
    SampleCountDist,
    SessionConfig,
    generate_dataset,
)
from sessiondedup.reader import (
    DataloaderSpec,
    Transform,
    apply_transform,
    convert,
    emit,
    fill,
    load_dataloader_spec,
    process,
    read_batches,
    save_dataloader_spec,
)
from sessiondedup.storage import StorageError, open_table, read_stripe, scan, write_table
from sessiondedup.tensors import RunJaggedTensor, expand_runs


def rec(sid, ts, feats, label=0):
    return ImpressionRecord(
        session_id=sid,
        timestamp=ts,
        features={k: np.asarray(v, dtype=np.int64) for k, v in feats.items()},
        label=label,
    )


def _deep_equal(a, b) -> bool:
    """Equal values through dataclasses, dicts, lists and arrays."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if is_dataclass(a):
        return all(_deep_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_deep_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_deep_equal, a, b))
    return a == b


WORKED_ROWS = [
    rec(0, 0, {"b": [3, 4, 5], "c": [7, 8], "d": [9], "item": [42]}, label=1),
    rec(0, 1, {"b": [4, 5, 6], "c": [7, 8], "d": [9], "item": [43]}),
    rec(0, 2, {"b": [3, 4, 5], "c": [10], "d": [11], "item": [44]}),
]

SPEC = DataloaderSpec(
    keys=("b", "c", "d", "item"),
    dedup_sparse_features=(("b",), ("c", "d")),
    batch_size=3,
)


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    cfg = SessionConfig(
        num_sessions=100,
        samples_per_session=SampleCountDist(kind="geometric", mean=8.0),
        seed=53,
    )
    specs = [
        FeatureSpec(
            key="seq",
            kind="user_sequence",
            avg_len=10,
            vocab_size=9999,
            change_prob=0.2,
        ),
        FeatureSpec(key="item", kind="item", avg_len=1, vocab_size=9999),
    ]
    records = generate_dataset(cfg, specs)
    path = tmp_path_factory.mktemp("data") / "ds.sesscol"
    write_table(records, path, clustering="by_session")
    return path


class TestConvert:
    def test_worked_batch_encodings(self):
        batch = convert(as_batch(WORKED_ROWS), SPEC)
        assert batch.batch_size == 3
        by_group = {ikjt.group_keys: ikjt for ikjt in batch.ikjts}
        b = by_group[("b",)]
        np.testing.assert_array_equal(b.inverse_lookup, [0, 1, 0])
        np.testing.assert_array_equal(b.per_feature["b"].values, [3, 4, 5, 4, 5, 6])
        cd = by_group[("c", "d")]
        np.testing.assert_array_equal(cd.inverse_lookup, [0, 0, 1])
        assert to_pylists(cd.per_feature["c"]) == [[7, 8], [10]]
        assert to_pylists(cd.per_feature["d"]) == [[9], [11]]
        assert to_pylists(batch.kjts["item"]) == [[42], [43], [44]]
        np.testing.assert_array_equal(batch.labels, [1, 0, 0])

    def test_grouped_features_share_inverse(self):
        batch = convert(as_batch(WORKED_ROWS), SPEC)
        cd = next(i for i in batch.ikjts if i.group_keys == ("c", "d"))
        assert cd.per_feature["c"].row_count == cd.per_feature["d"].row_count

    def test_baseline_spec_emits_plain_kjts(self):
        batch = convert(as_batch(WORKED_ROWS), SPEC.without_dedup())
        assert batch.ikjts == []
        assert set(batch.kjts) == {"b", "c", "d", "item"}

    def test_dedup_expansion_matches_baseline(self):
        dedup = convert(as_batch(WORKED_ROWS), SPEC)
        base = convert(as_batch(WORKED_ROWS), SPEC.without_dedup())
        for ikjt in dedup.ikjts:
            expanded = ikjt_to_kjt(ikjt)
            for key in ikjt.group_keys:
                assert jt_equal(expanded.entries[key], base.kjts[key])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            convert([], SPEC)


class TestSpecValidation:
    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="^feature 'a' is listed twice in dedup_sparse_features$"):
            DataloaderSpec(keys=("a", "b"), dedup_sparse_features=(("a",), ("a", "b")))

    def test_unknown_grouped_key_rejected(self):
        with pytest.raises(ValueError, match="not in keys"):
            DataloaderSpec(keys=("a",), dedup_sparse_features=(("z",),))

    def test_repeated_key_rejected(self):
        # convert once collapsed the repeat silently
        with pytest.raises(ValueError, match="^feature 'a' is listed twice in keys$"):
            DataloaderSpec(keys=("b", "a", "a"), dedup_sparse_features=())

    @pytest.mark.parametrize(
        "keys, groups, error, message",
        [
            ("ab", (), TypeError, "^keys must be a list of feature names, got 'ab'$"),
            (["a", 1], (), TypeError, "^keys must hold feature names, got 1$"),
            (
                ["cart_item_ids"],
                ["cart_item_ids"],
                TypeError,
                "^dedup_sparse_features group must be a list of feature names, got 'cart_item_ids'$",
            ),
            (["a", "b"], [["a", "b", "a"]], ValueError, "^feature 'a' is listed twice in dedup_sparse_features group$"),
        ],
        ids=["keys-str", "keys-non-str", "group-str", "group-repeat"],
    )
    def test_key_list_rule(self, keys, groups, error, message):
        # a string was split into one key per character
        with pytest.raises(error, match=message):
            DataloaderSpec(keys=keys, dedup_sparse_features=groups)

    def test_key_string_in_spec_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"keys": "ab", "dedup_sparse_features": []}')
        with pytest.raises(TypeError, match="^keys must be a list of feature names, got 'ab'$"):
            load_dataloader_spec(path)

    def test_group_list_string_in_spec_file_rejected(self, tmp_path):
        # the error named the letter 'a', not the string the file holds
        path = tmp_path / "spec.json"
        path.write_text('{"keys": ["a", "b"], "dedup_sparse_features": "ab"}')
        with pytest.raises(TypeError, match="^dedup_sparse_features must be a list of groups, got 'ab'$"):
            load_dataloader_spec(path)

    def test_group_set_rejected(self):
        # a set of groups has no order, so the IKJTs' order would be arbitrary
        with pytest.raises(TypeError, match=r"^dedup_sparse_features must be a list of groups, got \{\('a',\)\}$"):
            DataloaderSpec(keys=("a",), dedup_sparse_features={("a",)})

    def test_unknown_transform_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            DataloaderSpec(
                keys=("a",),
                dedup_sparse_features=(),
                transforms=(Transform(op="clamp", key="z", param=5),),
            )

    def test_plain_keys(self):
        assert SPEC.plain_keys == ("item",)

    def test_spec_json_round_trip(self, tmp_path):
        spec = DataloaderSpec(
            keys=("a", "b"),
            dedup_sparse_features=(("a",),),
            transforms=(Transform(op="mod_hash", key="b", param=1000),),
            batch_size=64,
        )
        path = tmp_path / "spec.json"
        save_dataloader_spec(path, spec)
        assert load_dataloader_spec(path) == spec

    @pytest.mark.parametrize("field", ["keys", "dedup_sparse_features"])
    def test_missing_field_in_spec_file_names_file_and_field(self, tmp_path, field):
        # a bare TypeError named the dataclass's argument, not the file
        path = tmp_path / "spec.json"
        obj = {"keys": ["a"], "dedup_sparse_features": []}
        del obj[field]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing required field '{field}'$"):
            load_dataloader_spec(path)

    def test_spec_json_without_transforms_or_batch_size_loads(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"keys": ["a", "b"], "dedup_sparse_features": [["a"]]}')
        assert load_dataloader_spec(path) == DataloaderSpec(
            keys=("a", "b"), dedup_sparse_features=(("a",),), transforms=(), batch_size=4096
        )

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"keys": ["a"], "dedup_sparse_features": [], "batchsize": 128}', "batchsize"),
            (
                '{"keys": ["a"], "dedup_sparse_features": [],'
                ' "transforms": [{"op": "clamp", "key": "a", "parm": 5}]}',
                "parm",
            ),
        ],
        ids=["spec", "transform"],
    )
    def test_misspelt_key_rejected(self, tmp_path, text, key):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(TypeError, match=key):
            load_dataloader_spec(path)

    @pytest.mark.parametrize(
        "extra",
        [
            '"batch_size": 128.7',
            '"batch_size": "128"',
            '"transforms": [{"op": "clamp", "key": "a", "param": 5.0}]',
            '"batch_size": true',
            '"transforms": [{"op": "clamp", "key": "a", "param": true}]',
        ],
    )
    def test_non_integral_count_rejected(self, tmp_path, extra):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"keys": ["a"], "dedup_sparse_features": [], {extra}}}')
        field = "param" if "transforms" in extra else "batch_size"
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got"):
            load_dataloader_spec(path)


    @pytest.mark.parametrize("field", ["batch_size", "param"])
    def test_count_is_stored_as_an_int(self, tmp_path, field):
        # a NumPy integer was kept as given, and saving the spec failed
        # with "Object of type int64 is not JSON serializable"
        count = np.int64(64)
        spec = DataloaderSpec(
            keys=("a",),
            dedup_sparse_features=(),
            transforms=(Transform(op="clamp", key="a", param=count if field == "param" else 5),),
            batch_size=count if field == "batch_size" else 8,
        )
        stored = spec.batch_size if field == "batch_size" else spec.transforms[0].param
        assert type(stored) is int and stored == 64
        path = tmp_path / "spec.json"
        save_dataloader_spec(path, spec)
        assert load_dataloader_spec(path) == spec


class TestReaderBatch:
    @pytest.mark.parametrize(
        "spec, labels, message",
        [
            (SPEC, slice(3), "^feature 'item' has 4 rows, but the batch has 3 labels$"),
            (
                DataloaderSpec(keys=("c", "d"), dedup_sparse_features=(("c", "d"),)),
                slice(1, 4),
                r"^group \['c', 'd'\] has 4 rows, but the batch has 3 labels$",
            ),
            (SPEC, slice(0), "^a reader batch needs at least one row$"),
        ],
        ids=["plain", "group", "empty"],
    )
    def test_size_follows_the_labels(self, spec, labels, message):
        # a batch whose size disagreed with its tensors failed only in
        # split_batch, inside NumPy, naming nothing
        batch = convert(as_batch(WORKED_ROWS + WORKED_ROWS[:1]), spec)
        assert batch.batch_size == 4
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(batch, labels=batch.labels[labels])


class TestTransforms:
    def test_mod_hash_range_and_determinism(self):
        vals = np.arange(100, dtype=np.int64)
        t = Transform(op="mod_hash", key="f", param=17)
        out = apply_transform(vals, t)
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() < 17
        np.testing.assert_array_equal(out, apply_transform(vals, t))

    def test_clamp(self):
        vals = np.array([-5, 0, 3, 99], dtype=np.int64)
        out = apply_transform(vals, Transform(op="clamp", key="f", param=10))
        np.testing.assert_array_equal(out, [0, 0, 3, 10])

    def test_identity(self):
        vals = np.array([1, 2], dtype=np.int64)
        out = apply_transform(vals, Transform(op="identity", key="f"))
        np.testing.assert_array_equal(out, vals)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            Transform(op="mod_hash", key="f")
        with pytest.raises(ValueError):
            Transform(op="clamp", key="f", param=0)
        with pytest.raises(ValueError):
            Transform(op="resample", key="f", param=1)
        with pytest.raises(ValueError, match="^param must be >= 1, got 0"):
            Transform(op="clamp", key="f", param=0)

    @pytest.mark.parametrize("param", [5.5, 5, 0])
    def test_identity_takes_no_param(self, param):
        with pytest.raises(ValueError, match="identity takes no param"):
            Transform(op="identity", key="f", param=param)

    def test_transform_commutes_with_expansion(self):
        # element-wise maps give the same rows whether applied to the
        # dedup values or to the expanded baseline values
        t = Transform(op="mod_hash", key="b", param=7)
        spec = DataloaderSpec(
            keys=("b",), dedup_sparse_features=(("b",),), transforms=(t,)
        )
        rows = WORKED_ROWS
        dedup = process(convert(as_batch(rows), spec), spec.transforms)
        base = process(convert(as_batch(rows), spec.without_dedup()), spec.transforms)
        expanded = ikjt_to_kjt(dedup.ikjts[0])
        assert jt_equal(expanded.entries["b"], base.kjts["b"])

    def test_process_preserves_shared_inverse(self):
        t = Transform(op="clamp", key="c", param=9)
        spec = DataloaderSpec(
            keys=("c", "d"),
            dedup_sparse_features=(("c", "d"),),
            transforms=(t,),
        )
        batch = process(convert(as_batch(WORKED_ROWS), spec), spec.transforms)
        cd = batch.ikjts[0]
        np.testing.assert_array_equal(cd.inverse_lookup, [0, 0, 1])
        assert to_pylists(cd.per_feature["c"]) == [[7, 8], [9]]
        # untouched feature keeps its values
        assert to_pylists(cd.per_feature["d"]) == [[9], [11]]

    def test_process_keeps_untouched_ikjts(self):
        batch = convert(as_batch(WORKED_ROWS), SPEC)
        same = process(batch, ())
        assert all(a is b for a, b in zip(same.ikjts, batch.ikjts))
        one = process(batch, (Transform(op="clamp", key="c", param=9),))
        assert one.ikjts[0] is batch.ikjts[0]
        assert one.ikjts[1] is not batch.ikjts[1]
        assert to_pylists(one.ikjts[1].per_feature["c"]) == [[7, 8], [9]]

    @pytest.mark.parametrize(
        "transforms",
        [
            (),
            (Transform(op="clamp", key="c", param=9),),
            (Transform(op="mod_hash", key="item", param=5),),
        ],
    )
    def test_process_leaves_its_input_alone(self, transforms):
        batch = convert(as_batch(WORKED_ROWS), SPEC)
        before = {f.name: getattr(batch, f.name) for f in fields(batch)}
        snapshot = copy.deepcopy(batch)
        process(batch, transforms)
        for f in fields(batch):
            assert getattr(batch, f.name) is before[f.name], f.name
            assert _deep_equal(getattr(batch, f.name), getattr(snapshot, f.name)), f.name

    def test_unknown_key_at_process_time_rejected(self):
        batch = convert(as_batch(WORKED_ROWS), SPEC)
        with pytest.raises(ValueError, match="zzz"):
            process(batch, (Transform(op="clamp", key="zzz", param=1),))


# Key names whose UTF-8 encoding is longer than their character count.
_EMIT_KEYS = ("f", "café", "日本語", "ключ")


@st.composite
def _emit_cases(draw):
    """Rows and a spec for one batch: keys with non-ASCII names, rows of
    0-4 IDs (so empty rows), drawn rows or all-duplicate or no-duplicate
    ones, and a baseline spec, a spec grouping every key, or groups and
    plain keys drawn."""
    keys = tuple(draw(st.lists(st.sampled_from(_EMIT_KEYS), min_size=1, max_size=4, unique=True)))
    n = draw(st.integers(1, 12))
    row = st.fixed_dictionaries({k: st.lists(st.integers(-(2**40), 2**40), max_size=4) for k in keys})
    duplicates = draw(st.sampled_from(["drawn", "all-duplicate", "no-duplicate"]))
    if duplicates == "all-duplicate":
        rows = [draw(row)] * n
    else:
        rows = draw(st.lists(row, min_size=n, max_size=n))
    if duplicates == "no-duplicate":
        rows = [{k: [i, *ids] for k, ids in r.items()} for i, r in enumerate(rows)]
    # each key's group, 0 or 1, or -1 for a plain key
    layout = draw(st.sampled_from([[-1], [0, 1], [-1, 0, 1]]))  # baseline, all grouped, drawn
    where = draw(st.lists(st.sampled_from(layout), min_size=len(keys), max_size=len(keys)))
    groups = [tuple(k for k, w in zip(keys, where) if w == g) for g in (0, 1)]
    spec = DataloaderSpec(keys=keys, dedup_sparse_features=tuple(g for g in groups if g), batch_size=n)
    return rows, spec


class TestEmit:
    """``emit`` prices a batch; the reference serializer in
    ``tests/rows.py`` builds the bytes it prices."""

    def test_emit_deterministic_and_sized(self):
        batch = convert(as_batch(WORKED_ROWS), SPEC)
        size = emit(batch)
        assert batch.bytes_out == size == len(serialize_batch(batch))
        assert size == emit(convert(as_batch(WORKED_ROWS), SPEC))

    def test_dedup_payload_smaller_on_duplicated_batch(self):
        rows = [
            rec(0, i, {"f": list(range(40)), "g": [i]}) for i in range(32)
        ]
        spec = DataloaderSpec(keys=("f", "g"), dedup_sparse_features=(("f",),))
        dedup_bytes = emit(convert(as_batch(rows), spec))
        base_bytes = emit(convert(as_batch(rows), spec.without_dedup()))
        assert dedup_bytes < 0.2 * base_bytes

    def test_identity_batch_overhead_is_lookup_plus_flag(self):
        # without duplicates the encodings carry the same streams; the
        # dedup payload adds only the B-entry inverse per group
        rows = [rec(0, i, {"f": [i, i + 1]}) for i in range(8)]
        spec = DataloaderSpec(keys=("f",), dedup_sparse_features=(("f",),))
        dedup_bytes = emit(convert(as_batch(rows), spec))
        base_bytes = emit(convert(as_batch(rows), spec.without_dedup()))
        assert dedup_bytes == base_bytes + 8 * 8

    @settings(max_examples=200, deadline=None)
    @given(_emit_cases())
    def test_bytes_out_is_reference_payload_length(self, case):
        rows, spec = case
        batch = convert(as_batch(rows, spec.keys), spec)
        assert emit(batch) == batch.bytes_out == len(serialize_batch(batch))

    @pytest.mark.parametrize("clustering", ["none", "by_session"])
    def test_bytes_out_is_reference_payload_length_on_file(self, clustering, tmp_path):
        cfg = SessionConfig(num_sessions=40, samples_per_session=SampleCountDist("geometric", mean=6.0))
        specs = [
            FeatureSpec(key="seq", kind="user_sequence", avg_len=3.5, vocab_size=50, change_prob=0.3),
            FeatureSpec(key="item", kind="item", avg_len=0.5, vocab_size=50),
        ]
        table = generate_dataset(cfg, specs)
        f = write_table(table, tmp_path / "t.sesscol", stripe_rows=50, clustering=clustering)
        spec = DataloaderSpec(
            keys=("seq", "item"),
            dedup_sparse_features=(("seq",),),
            transforms=(Transform(op="mod_hash", key="item", param=7),),
            batch_size=64,
        )
        for s in (spec, spec.without_dedup()):
            batches = list(read_batches(f, s))
            assert sum(b.batch_size for b in batches) == f.row_count
            assert [b.bytes_out for b in batches] == [len(serialize_batch(b)) for b in batches]


class TestPipeline:
    def test_fill_returns_none_on_exhausted_stream(self, dataset_file):
        f = open_table(dataset_file)
        stream = scan(f, 1_000_000)
        first = fill(stream)
        assert first is not None
        second = fill(stream)
        assert second is None

    def test_read_batches_covers_dataset(self, dataset_file):
        f = open_table(dataset_file)
        spec = DataloaderSpec(
            keys=("seq", "item"),
            dedup_sparse_features=(("seq",),),
            batch_size=256,
        )
        batches = list(read_batches(open_table(dataset_file), spec))
        assert sum(b.batch_size for b in batches) == f.row_count
        for b in batches:
            assert b.bytes_in >= 0
            assert b.bytes_out > 0
            assert b.stage_timings.total_s > 0

    def test_read_batches_times_every_stage(self, dataset_file):
        spec = DataloaderSpec(
            keys=("seq", "item"),
            dedup_sparse_features=(("seq",),),
            batch_size=256,
            transforms=(Transform(op="mod_hash", key="item", param=4096),),
        )
        for b in read_batches(open_table(dataset_file), spec):
            t = b.stage_timings
            parts = (t.fill_s, t.convert_s, t.process_s, t.emit_s)
            assert all(s >= 0 for s in parts)
            assert t.emit_s > 0
            assert t.total_s == sum(parts)

    def test_read_batches_deterministic(self, dataset_file):
        spec = DataloaderSpec(
            keys=("seq", "item"),
            dedup_sparse_features=(("seq",),),
            batch_size=512,
            transforms=(Transform(op="mod_hash", key="item", param=4096),),
        )
        a = [serialize_batch(b) for b in read_batches(open_table(dataset_file), spec)]
        b = [serialize_batch(x) for x in read_batches(open_table(dataset_file), spec)]
        assert a == b

    def test_clustered_batches_dedup_well(self, dataset_file):
        spec = DataloaderSpec(
            keys=("seq", "item"),
            dedup_sparse_features=(("seq",),),
            batch_size=256,
        )
        for batch in read_batches(open_table(dataset_file), spec):
            ikjt = batch.ikjts[0]
            assert ikjt.unique_count < batch.batch_size
            break

    def test_dedup_equals_baseline_logically(self, dataset_file):
        spec = DataloaderSpec(
            keys=("seq", "item"),
            dedup_sparse_features=(("seq",),),
            batch_size=128,
        )
        base_spec = spec.without_dedup()
        for d, b in zip(
            read_batches(open_table(dataset_file), spec),
            read_batches(open_table(dataset_file), base_spec),
        ):
            np.testing.assert_array_equal(d.labels, b.labels)
            expanded = ikjt_to_kjt(d.ikjts[0])
            assert jt_equal(expanded.entries["seq"], b.kjts["seq"])
            assert jt_equal(d.kjts["item"], b.kjts["item"])

    @pytest.mark.parametrize("batch_size", [64, 256])
    def test_columnar_batches_match_records(self, dataset_file, tmp_path, batch_size):
        # stripe_rows=100 makes batches that cut stripes and span them
        path = tmp_path / "s100.sesscol"
        f = open_table(dataset_file)
        write_table(next(scan(f, f.row_count)), path, stripe_rows=100)
        spec = DataloaderSpec(
            keys=("seq", "item"),
            dedup_sparse_features=(("seq",),),
            batch_size=batch_size,
        )
        batches = list(scan(open_table(path), batch_size))
        assert len(batches) > 2
        for b in batches:
            from_records = convert(as_batch(as_records(b)), spec)
            assert serialize_batch(convert(b, spec)) == serialize_batch(from_records)

    def test_read_batches_builds_no_records(self, dataset_file, monkeypatch):
        def no_records(*args, **kwargs):
            raise AssertionError("a row object was built")

        monkeypatch.setattr(row_adapter, "ImpressionRecord", no_records)
        spec = DataloaderSpec(
            keys=("seq", "item"),
            dedup_sparse_features=(("seq",),),
            transforms=(Transform(op="mod_hash", key="item", param=4096),),
            batch_size=300,
        )
        f = open_table(dataset_file)
        assert sum(b.batch_size for b in read_batches(f, spec)) == f.row_count


def _variable_rows(n_sessions=40, seed=11):
    """Sessions of 1-12 rows with features of 0-4 IDs, where about half
    the rows repeat their session's previous row, so the file stores run
    marks, and some rows are empty."""
    rng = np.random.default_rng(seed)
    records = []
    for sid in range(n_sessions):
        row = None
        for ts in range(int(rng.integers(1, 13))):
            if row is None or rng.random() < 0.5:
                row = {k: rng.integers(0, 50, size=rng.integers(0, 5)) for k in ("a", "b", "c")}
            records.append(rec(sid, ts, row, label=int(rng.integers(0, 2))))
    return records


def _hand_batches(file, spec):
    """The four stages run by hand, one batch at a time, on this thread."""
    stream = scan(file, spec.batch_size)
    while (rows := fill(stream)) is not None:
        batch = process(convert(rows, spec), spec.transforms)
        emit(batch)
        yield batch


def _tensors(batch):
    """Every tensor of a batch as (name, values, offsets)."""
    out = [(key, jt.values, jt.offsets) for key, jt in batch.kjts.items()]
    for ikjt in batch.ikjts:
        out += [(key, jt.values, jt.offsets) for key, jt in ikjt.per_feature.items()]
    return out


class TestPipelinedReader:
    STRIPE_ROWS, BATCH = 50, 40
    SPEC = DataloaderSpec(keys=("a", "b", "c"), dedup_sparse_features=(("a", "b"),), batch_size=BATCH)

    @pytest.fixture()
    def striped(self, tmp_path):
        path = tmp_path / "v.sesscol"
        table = as_batch(_variable_rows())
        f = write_table(table, path, stripe_rows=self.STRIPE_ROWS, clustering="by_session")
        assert len(f.stripes) >= 4
        return path

    @pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "baseline"])
    @pytest.mark.parametrize("hashed", [False, True], ids=["plain", "mod_hash"])
    def test_matches_the_stages_run_by_hand(self, striped, dedup, hashed):
        f = open_table(striped)
        stripes = [read_stripe(f, i).features.entries for i in range(len(f.stripes))]
        assert any(isinstance(jt, RunJaggedTensor) for s in stripes for jt in s.values())
        assert any((expand_runs(jt).row_lengths() == 0).any() for s in stripes for jt in s.values())
        assert self.STRIPE_ROWS % self.BATCH != 0  # batches join across stripes
        spec = self.SPEC if dedup else self.SPEC.without_dedup()
        if hashed:
            spec = dataclasses.replace(
                spec, transforms=(Transform("mod_hash", "a", 7), Transform("mod_hash", "c", 5))
            )
        got = list(read_batches(f, spec))
        want = list(_hand_batches(f, spec))
        assert len(got) == len(want) == -(-f.row_count // self.BATCH)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.labels, w.labels)
            assert [k for k, *_ in _tensors(g)] == [k for k, *_ in _tensors(w)]
            for (_, gv, go), (_, wv, wo) in zip(_tensors(g), _tensors(w)):
                np.testing.assert_array_equal(gv, wv)
                np.testing.assert_array_equal(go, wo)
            assert len(g.ikjts) == len(w.ikjts) == (1 if dedup else 0)
            for gi, wi in zip(g.ikjts, w.ikjts):
                np.testing.assert_array_equal(gi.inverse_lookup, wi.inverse_lookup)
            assert (g.bytes_in, g.bytes_out) == (w.bytes_in, w.bytes_out)

    @staticmethod
    def _started_by_first_batch(it):
        before = set(threading.enumerate())
        next(it)
        return set(threading.enumerate()) - before

    def test_one_worker_gone_once_exhausted(self, striped):
        before = set(threading.enumerate())
        it = read_batches(open_table(striped), self.SPEC)
        assert set(threading.enumerate()) == before  # nothing starts until asked
        assert len(self._started_by_first_batch(it)) == 1
        rest = list(it)
        assert rest and set(threading.enumerate()) == before

    def test_one_worker_gone_once_closed(self, striped):
        before = set(threading.enumerate())
        it = read_batches(open_table(striped), self.SPEC)
        assert len(self._started_by_first_batch(it)) == 1
        it.close()
        assert set(threading.enumerate()) == before

    def test_stage_error_raised_at_its_batch_and_worker_gone(self, striped):
        row_adapter.break_values_stream(striped, 2, "b")
        f = open_table(striped)
        with pytest.raises(StorageError) as today:
            read_stripe(f, 2)
        assert str(today.value).startswith("stripe 2: feature 'b': ")
        # run by hand, batches 0 and 1 come from stripes 0 and 1, and
        # batch 2 needs stripe 2
        hand = _hand_batches(f, self.SPEC)
        assert [b.batch_size for b in (next(hand), next(hand))] == [self.BATCH] * 2
        with pytest.raises(StorageError, match=f"^{re.escape(str(today.value))}$"):
            next(hand)

        before = set(threading.enumerate())
        it = read_batches(f, self.SPEC)
        assert len(self._started_by_first_batch(it)) == 1
        assert next(it).batch_size == self.BATCH
        with pytest.raises(StorageError, match=f"^{re.escape(str(today.value))}$"):
            next(it)
        assert set(threading.enumerate()) == before
        assert next(it, None) is None  # finished, as a generator that raised
