"""Tests for the command-line interface."""

import importlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import rows as row_adapter
import sessiondedup
from sessiondedup import datagen, trainer_sim
from rows import as_records, serialize_log_records
from sessiondedup.cli import ModeTotals, _fold, main
from sessiondedup.datagen import (
    FeatureSpec,
    SampleCountDist,
    SessionConfig,
    default_config,
    save_config,
)
from sessiondedup.reader import DataloaderSpec, save_dataloader_spec
from sessiondedup.storage import open_table, scan, write_table
from sessiondedup.trainer_sim import (
    GroupConfig,
    IterationStats,
    ModelSpec,
    default_model_spec,
    save_model_spec,
)


def small_config():
    cfg = SessionConfig(
        num_sessions=150,
        samples_per_session=SampleCountDist(kind="geometric", mean=12.0),
        seed=7,
    )
    specs = [
        FeatureSpec(
            key="seq",
            kind="user_sequence",
            avg_len=12,
            vocab_size=20_000,
            change_prob=0.15,
        ),
        FeatureSpec(
            key="cart_a",
            kind="user_sequence",
            avg_len=6,
            vocab_size=20_000,
            change_prob=0.2,
            sync_group="cart",
        ),
        FeatureSpec(
            key="cart_b",
            kind="user_sequence",
            avg_len=6,
            vocab_size=20_000,
            change_prob=0.2,
            sync_group="cart",
        ),
        FeatureSpec(key="item", kind="item", avg_len=1, vocab_size=20_000),
    ]
    return cfg, specs


@pytest.fixture()
def small_config_path(tmp_path):
    path = tmp_path / "config.json"
    save_config(path, *small_config())
    return path


def run(argv):
    return main([str(a) for a in argv])


def read_all(path):
    return [r for b in scan(open_table(path), 4096) for r in as_records(b)]


class TestGen:
    def test_gen_deterministic_bytes(self, small_config_path, tmp_path):
        a = tmp_path / "a.sesscol"
        b = tmp_path / "b.sesscol"
        assert run(["gen", "--config", small_config_path, "--out", a]) == 0
        assert run(["gen", "--config", small_config_path, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_data(self, small_config_path, tmp_path):
        a = tmp_path / "a.sesscol"
        b = tmp_path / "b.sesscol"
        run(["gen", "--config", small_config_path, "--out", a])
        run(["gen", "--config", small_config_path, "--seed", 99, "--out", b])
        assert a.read_bytes() != b.read_bytes()

    def test_gen_without_config_uses_the_default(self, small_config_path, tmp_path, monkeypatch):
        # the built-in config, swapped for a small one to keep this fast
        monkeypatch.setattr(datagen, "default_config", small_config)
        a = tmp_path / "a.sesscol"
        b = tmp_path / "b.sesscol"
        assert run(["gen", "--out", a]) == 0
        assert run(["gen", "--config", small_config_path, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["gen", "--config", bad, "--out", tmp_path / "x.sesscol"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [gen]")


    def test_misspelt_config_key_exits_nonzero(self, small_config_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(small_config_path.read_text().replace('"change_prob"', '"chnage_prob"'))
        assert run(["gen", "--config", bad, "--out", tmp_path / "x.sesscol"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [gen]") and "chnage_prob" in err

    def test_non_integral_count_names_its_field(self, small_config_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        text = small_config_path.read_text()
        assert '"num_sessions": 150' in text
        bad.write_text(text.replace('"num_sessions": 150', '"num_sessions": 3.0'))
        assert run(["gen", "--config", bad, "--out", tmp_path / "x.sesscol"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [gen]: num_sessions must be an integer, got 3.0")

    def test_bool_real_value_names_its_field(self, small_config_path, tmp_path, capsys):
        # true read as 1 and generated a file
        obj = json.loads(small_config_path.read_text())
        obj["features"][0]["avg_len"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run(["gen", "--config", bad, "--out", tmp_path / "x.sesscol"]) == 1
        assert capsys.readouterr().err == "error [gen]: avg_len must be a real number, got True\n"
        assert not (tmp_path / "x.sesscol").exists()

    def test_missing_features_names_file_and_field(self, small_config_path, tmp_path, capsys):
        # the error read only: 'features'
        obj = json.loads(small_config_path.read_text())
        del obj["features"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run(["gen", "--config", bad, "--out", tmp_path / "x.sesscol"]) == 1
        assert capsys.readouterr().err == f"error [gen]: {bad}: missing required field 'features'\n"

    @pytest.mark.parametrize(
        "key, field, value, message",
        [
            ("cart_a", "change_prob", 0.3, "sync group 'cart': 'cart_b' has change_prob 0.2, 'cart_a' has 0.3"),
            ("item", "change_prob", 0.5, "item feature 'item' takes no sync_group or change_prob"),
            ("item", "sync_group", "cart", "item feature 'item' takes no sync_group or change_prob"),
            ("cart_a", "sync_group", "", "feature 'cart_a': sync_group must be a name or null, not empty"),
        ],
    )
    def test_group_check_names_group_or_key(
        self, small_config_path, tmp_path, capsys, key, field, value, message
    ):
        obj = json.loads(small_config_path.read_text())
        next(f for f in obj["features"] if f["key"] == key)[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert run(["gen", "--config", bad, "--out", tmp_path / "x.sesscol"]) == 1
        assert capsys.readouterr().err == f"error [gen]: {message}\n"
        assert not (tmp_path / "x.sesscol").exists()


    def test_gen_records_its_feature_specs(self, small_config_path, tmp_path):
        out = tmp_path / "a.sesscol"
        assert run(["gen", "--config", small_config_path, "--out", out]) == 0
        assert open_table(out).feature_specs == tuple(asdict(s) for s in small_config()[1])


class TestCluster:
    def test_cluster_copies_feature_specs(self, small_config_path, tmp_path):
        raw = tmp_path / "raw.sesscol"
        clustered = tmp_path / "c.sesscol"
        run(["gen", "--config", small_config_path, "--out", raw])
        assert run(["cluster", raw, "--out", clustered]) == 0
        assert open_table(clustered).feature_specs == open_table(raw).feature_specs
        # and a file without specs clusters into one without them
        plain = tmp_path / "plain.sesscol"
        write_table(next(scan(open_table(raw), 4096)), plain)
        assert run(["cluster", plain, "--out", clustered]) == 0
        assert open_table(clustered).feature_specs is None

    def test_cluster_is_logically_identity_on_rows(self, small_config_path, tmp_path):
        raw = tmp_path / "raw.sesscol"
        clustered = tmp_path / "c.sesscol"
        run(["gen", "--config", small_config_path, "--out", raw])
        assert run(["cluster", raw, "--out", clustered]) == 0
        raw_rows = read_all(raw)
        clustered_rows = read_all(clustered)
        key = lambda r: (r.session_id, r.timestamp)
        assert serialize_log_records(sorted(raw_rows, key=key)) == (
            serialize_log_records(clustered_rows)
        )

    def test_cluster_shrinks_default_dataset(self, small_config_path, tmp_path, capsys):
        raw = tmp_path / "raw.sesscol"
        clustered = tmp_path / "c.sesscol"
        run(["gen", "--config", small_config_path, "--out", raw])
        run(["cluster", raw, "--out", clustered])
        out = capsys.readouterr().out
        a, b = raw.stat().st_size, clustered.stat().st_size
        assert f"file bytes {a} -> {b} (ratio {a / b:.3f})" in out
        assert b < a

    def test_cluster_in_place(self, small_config_path, tmp_path, capsys):
        # the source was once measured after the output had replaced it,
        # so a successful rewrite still exited 1
        raw, clustered = tmp_path / "raw.sesscol", tmp_path / "c.sesscol"
        run(["gen", "--config", small_config_path, "--out", raw])
        capsys.readouterr()
        assert run(["cluster", raw, "--out", clustered]) == 0
        want = capsys.readouterr().out.replace(str(clustered), str(raw))
        assert run(["cluster", raw, "--out", raw]) == 0
        assert capsys.readouterr() == (want, "")
        assert raw.read_bytes() == clustered.read_bytes()

    def test_missing_input_fails_with_stage(self, tmp_path, capsys):
        assert run(["cluster", tmp_path / "nope.sesscol", "--out", tmp_path / "o"]) == 1
        assert "error [cluster]" in capsys.readouterr().err


class TestCharacterize:
    def test_csv_round_trip(self, small_config_path, tmp_path, capsys):
        ds = tmp_path / "ds.sesscol"
        csv_path = tmp_path / "stats.csv"
        run(["gen", "--config", small_config_path, "--out", ds])
        assert run(["characterize", ds, "--out", csv_path]) == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "feature,exact_dup_pct,partial_dup_pct,avg_len"
        rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
        assert set(rows) == {"seq", "cart_a", "cart_b", "item"}
        # synchronized features have identical duplication by construction
        assert rows["cart_a"] == rows["cart_b"]
        assert float(rows["seq"][0]) > 50.0
        out = capsys.readouterr().out
        assert "byte-weighted" in out

    def test_key_subset(self, small_config_path, tmp_path, capsys):
        ds = tmp_path / "ds.sesscol"
        run(["gen", "--config", small_config_path, "--out", ds])
        assert run(["characterize", ds, "--keys", "seq"]) == 0
        out = capsys.readouterr().out
        assert "seq" in out and "cart_a" not in out

    def test_unknown_key_fails(self, small_config_path, tmp_path, capsys):
        ds = tmp_path / "ds.sesscol"
        run(["gen", "--config", small_config_path, "--out", ds])
        assert run(["characterize", ds, "--keys", "zzz"]) == 1
        assert "error [characterize]" in capsys.readouterr().err

    def test_repeated_key_fails_before_output(self, small_config_path, tmp_path, capsys):
        ds = tmp_path / "ds.sesscol"
        run(["gen", "--config", small_config_path, "--out", ds])
        capsys.readouterr()
        assert run(["characterize", ds, "--keys", "seq,seq,item"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error [characterize]: feature 'seq' is listed twice in keys" in err

    def test_zero_batch_size_fails_before_output(self, small_config_path, tmp_path, capsys):
        ds = tmp_path / "ds.sesscol"
        run(["gen", "--config", small_config_path, "--out", ds])
        capsys.readouterr()
        assert run(["characterize", ds, "--batch-size", 0]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error [characterize]: batch_size must be >= 1" in err

    def test_builds_no_records(self, small_config_path, tmp_path, monkeypatch):
        ds = tmp_path / "ds.sesscol"
        run(["gen", "--config", small_config_path, "--out", ds])

        def no_records(*args, **kwargs):
            raise AssertionError("a row object was built")

        monkeypatch.setattr(row_adapter, "ImpressionRecord", no_records)
        assert run(["characterize", ds]) == 0


class TestBench:
    @pytest.fixture()
    def clustered_ds(self, small_config_path, tmp_path):
        raw = tmp_path / "raw.sesscol"
        ds = tmp_path / "ds.sesscol"
        run(["gen", "--config", small_config_path, "--out", raw])
        run(["cluster", raw, "--out", ds])
        return ds

    def test_bench_report_structure_and_ratios(self, clustered_ds, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(
            [
                "bench",
                clustered_ds,
                "--batch-size", 128,
                "--ranks", 2,
                "--mode", "both",
                "--batches", 4,
                "--out", report_path,
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["speedups"]["scores_equal"] is True
        tr = report["trainer"]
        for counter in (
            "a2a_bytes_fwd",
            "a2a_bytes_back",
            "lookup_count",
            "activation_elements",
            "pooling_mac_count",
        ):
            assert tr["dedup"][counter] <= tr["baseline"][counter]
        # published ratios must recompute from the raw counters
        assert report["speedups"]["lookup_ratio"] == pytest.approx(
            tr["baseline"]["lookup_count"] / tr["dedup"]["lookup_count"]
        )
        assert report["speedups"]["a2a_fwd_ratio"] == pytest.approx(
            tr["baseline"]["a2a_bytes_fwd"] / tr["dedup"]["a2a_bytes_fwd"]
        )
        # stored size as the benchmark measures it: whole-file bytes per row
        size, rows = clustered_ds.stat().st_size, open_table(clustered_ds).row_count
        assert report["storage"] == {"file_bytes": size, "rows": rows, "bytes_per_row": size / rows}
        rd = report["reader"]
        assert rd["dedup"]["bytes_out"] < rd["baseline"]["bytes_out"]

    def test_bench_single_mode(self, clustered_ds, tmp_path):
        report_path = tmp_path / "r.json"
        code = run(
            [
                "bench",
                clustered_ds,
                "--batch-size", 64,
                "--ranks", 1,
                "--mode", "dedup",
                "--batches", 2,
                "--out", report_path,
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["speedups"] == {}
        assert "dedup" in report["trainer"]
        assert "baseline" not in report["trainer"]

    def test_bench_deterministic_modulo_timings(self, clustered_ds, tmp_path):
        def run_once(path):
            run(
                [
                    "bench",
                    clustered_ds,
                    "--batch-size", 64,
                    "--ranks", 2,
                    "--batches", 3,
                    "--out", path,
                ]
            )
            report = json.loads(path.read_text())
            for mode_report in report.get("reader", {}).values():
                mode_report.pop("timings", None)
            return report

        a = run_once(tmp_path / "a.json")
        b = run_once(tmp_path / "b.json")
        assert a == b

    @pytest.fixture()
    def spec_files(self, tmp_path):
        """A model spec with seed 5 and dataloader specs with batch size 50."""
        model = ModelSpec(
            tables={k: 20_000 for k in ("seq", "cart_a", "cart_b", "item")},
            groups=(
                GroupConfig(keys=("seq",), pooling="sum"),
                GroupConfig(keys=("cart_a", "cart_b"), pooling="attention"),
            ),
            plain={"item": "sum"},
            seed=5,
            dim=4,
        )
        save_model_spec(tmp_path / "model.json", model)
        save_dataloader_spec(
            tmp_path / "spec.json",
            DataloaderSpec(
                keys=model.all_keys,
                dedup_sparse_features=tuple(g.keys for g in model.groups),
                batch_size=50,
            ),
        )
        # the same batch size for the model bench builds without a model
        # spec: default_model_spec of the specs the file records
        default = default_model_spec(small_config()[1])
        save_dataloader_spec(
            tmp_path / "default-spec.json",
            DataloaderSpec(
                keys=default.all_keys,
                dedup_sparse_features=tuple(g.keys for g in default.groups),
                batch_size=50,
            ),
        )
        return {
            name: tmp_path / f"{name.lower()}.json" for name in ("SPEC", "MODEL", "DEFAULT-SPEC")
        }

    def test_config_states_spec_batch_size_and_model_seed(self, clustered_ds, tmp_path, spec_files):
        # a dataloader spec brings its own batch size and a model spec its
        # own seed; the report states what ran, not the flag defaults
        report_path = tmp_path / "r.json"
        code = run(
            [
                "bench",
                clustered_ds,
                "--spec", spec_files["SPEC"],
                "--model-spec", spec_files["MODEL"],
                "--batches", 3,
                "--out", report_path,
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["batch_size"] == 50
        assert report["config"]["seed"] == 5
        assert report["reader"]["dedup"]["rows"] == 150
        assert report["reader"]["baseline"]["rows"] == 150

    @pytest.mark.parametrize(
        "flag, value, spec_flag",
        [("--batch-size", 64, "--spec"), ("--seed", 3, "--model-spec")],
    )
    def test_flag_a_spec_overrides_rejected_before_reading(
        self, tmp_path, capsys, flag, value, spec_flag
    ):
        capsys.readouterr()
        # neither the dataset nor the spec exists: the check comes first
        spec = tmp_path / "spec.json"
        argv = ["bench", tmp_path / "ghost.sesscol", spec_flag, spec, flag, value]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error [bench]: {flag} cannot be used with {spec_flag} {spec}" in err

    @pytest.mark.parametrize(
        "extra, batch_size, seed",
        [
            ([], 4096, 0),
            (["--batch-size", 40, "--seed", 9], 40, 9),
            (["--spec", "DEFAULT-SPEC", "--seed", 9], 50, 9),
            (["--model-spec", "MODEL", "--batch-size", 40], 40, 5),
        ],
        ids=["defaults", "both-flags", "spec-and-seed", "model-spec-and-batch-size"],
    )
    def test_flags_apply_where_no_spec_overrides_them(
        self, clustered_ds, tmp_path, spec_files, extra, batch_size, seed
    ):
        report_path = tmp_path / "r.json"
        argv = ["bench", clustered_ds, "--batches", 2, "--out", report_path]
        assert run(argv + [spec_files.get(a, a) for a in extra]) == 0
        config = json.loads(report_path.read_text())["config"]
        assert (config["batch_size"], config["seed"]) == (batch_size, seed)

    def test_negative_batches_rejected_before_reading(self, tmp_path, capsys):
        capsys.readouterr()
        # the dataset does not exist: the check comes before any read
        assert run(["bench", tmp_path / "ghost.sesscol", "--batches", -1]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error [bench]: --batches must be >= 0" in err

    def test_model_follows_the_files_feature_specs(self, tmp_path):
        # A file with the default keys once got the built-in default model
        # whatever vocabulary made it: viewed_ids drawn from 10^6 IDs then
        # failed with "ID ... out of range [0, 200000)".
        cfg, specs = default_config(num_sessions=20)
        specs[0] = replace(specs[0], vocab_size=10**6)
        config = tmp_path / "config.json"
        save_config(config, cfg, specs)
        ds = tmp_path / "ds.sesscol"
        assert run(["gen", "--config", config, "--out", ds]) == 0
        report_path = tmp_path / "r.json"
        argv = ["bench", ds, "--ranks", 4, "--batch-size", 64, "--batches", 2, "--out", report_path]
        assert run(argv) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["model_groups"] == [
            list(g.keys) for g in default_model_spec(specs).groups
        ]
        assert report["speedups"]["scores_equal"] is True

    def test_file_without_specs_needs_model_spec(self, clustered_ds, tmp_path, capsys):
        plain = tmp_path / "plain.sesscol"
        write_table(next(scan(open_table(clustered_ds), 4096)), plain)
        capsys.readouterr()
        assert run(["bench", plain]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error [bench]: {plain} records no feature specs: pass --model-spec\n"

    def test_model_spec_without_tables_rejected(self, clustered_ds, tmp_path, capsys):
        # once printed "error [bench]: " with an empty message
        path = tmp_path / "model.json"
        path.write_text('{"tables": {}, "groups": []}')
        capsys.readouterr()
        assert run(["bench", clustered_ds, "--model-spec", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error [bench]: model spec has no tables\n"

    def test_fold_follows_each_fields_rule(self):
        # activation_elements declares itself a peak; every other count adds
        one = ModeTotals(1, 10, stats=IterationStats(lookup_count=3, activation_elements=7))
        two = ModeTotals(1, 5, stats=IterationStats(lookup_count=4, activation_elements=5))
        total = _fold(one, two)
        assert (total.batches, total.rows) == (2, 15)
        assert total.stats == IterationStats(lookup_count=7, activation_elements=7)

    def test_spec_key_missing_from_the_file_named(self, clustered_ds, tmp_path, capsys):
        # printed only "error [bench]: 'zz'"
        spec = tmp_path / "spec.json"
        save_dataloader_spec(spec, DataloaderSpec(keys=("seq", "zz"), dedup_sparse_features=()))
        capsys.readouterr()
        assert run(["bench", clustered_ds, "--spec", spec]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error [bench]: feature 'zz' is not in the batch, which has "
            "['seq', 'cart_a', 'cart_b', 'item']\n"
        )

    def test_diverged_scores_fail(self, clustered_ds, monkeypatch, capsys):
        forward = trainer_sim.forward_iteration

        def perturbed(batch, spec, plan, mode, tables):
            scores, stats = forward(batch, spec, plan, mode, tables)
            if mode == "dedup":
                scores = scores.copy()
                scores[0] = np.nextafter(scores[0], np.float32(2))
            return scores, stats

        monkeypatch.setattr(trainer_sim, "forward_iteration", perturbed)
        capsys.readouterr()
        assert run(["bench", clustered_ds, "--batches", 1]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error [bench]: dedup and baseline scores diverged; this build is broken\n"

    def test_report_printed_without_out(self, clustered_ds, capsys):
        capsys.readouterr()
        assert run(["bench", clustered_ds, "--batches", 2, "--batch-size", 64]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["batches"] == 2
        assert report["reader"]["dedup"]["rows"] == 128
        assert report["speedups"]["scores_equal"] is True

    def test_zero_ranks_rejected(self, clustered_ds, capsys):
        capsys.readouterr()
        assert run(["bench", clustered_ds, "--ranks", 0]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error [bench]: num_ranks must be >= 1" in err

    def test_bench_scores_short_tail(self, clustered_ds, tmp_path):
        # one full batch, then a 1-row tail with fewer rows than ranks
        rows = open_table(clustered_ds).row_count
        report_path = tmp_path / "r.json"
        code = run(
            [
                "bench",
                clustered_ds,
                "--batch-size", rows - 1,
                "--ranks", 2,
                "--out", report_path,
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["batches"] == 2
        assert "skipped_rows" not in report["config"]
        assert report["reader"]["dedup"]["rows"] == rows
        assert report["reader"]["baseline"]["rows"] == rows
        # bench raises when any batch's dedup and baseline scores differ
        assert report["speedups"]["scores_equal"] is True

    def test_prefetched_error_raised_only_for_its_batch(self, clustered_ds, tmp_path, capsys):
        # two 128-row stripes, the last one corrupt: the reader prepares
        # batch 1 while batch 0 runs, so that batch's error exists early
        f = open_table(clustered_ds)
        table = next(scan(f, 256))
        path = tmp_path / "broken.sesscol"
        write_table(table, path, stripe_rows=128, feature_specs=f.feature_specs)
        row_adapter.break_values_stream(path, 1, "cart_a")
        capsys.readouterr()
        assert run(["bench", path, "--batch-size", 128, "--batches", 1]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["batches"] == 1
        assert report["reader"]["dedup"]["rows"] == 128
        assert run(["bench", path, "--batch-size", 128]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error \[bench\]: stripe 1: feature 'cart_a': corrupt stream: .+\n", err)

    def test_plotdata_from_report(self, clustered_ds, tmp_path):
        report_path = tmp_path / "report.json"
        run(
            [
                "bench",
                clustered_ds,
                "--batch-size", 64,
                "--ranks", 1,
                "--batches", 2,
                "--out", report_path,
            ]
        )
        plots = tmp_path / "plots"
        assert run(["plotdata", report_path, "--out", plots]) == 0
        counters = (plots / "counters.dat").read_text()
        assert counters.startswith("# counter baseline dedup ratio")
        assert "lookup_count" in counters
        stages = (plots / "stages.dat").read_text().splitlines()
        assert stages[0] == "# stage baseline_s dedup_s"
        for stage in ("fill_s", "convert_s", "process_s", "emit_s"):
            assert sum(line.split()[0] == stage for line in stages) == 1, stage


class TestDataDirEnv:
    def test_relative_paths_resolve_via_env(self, small_config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SESSIONDEDUP_DATA_DIR", str(tmp_path))
        assert run(["gen", "--config", small_config_path, "--out", "ds.sesscol"]) == 0
        assert (tmp_path / "ds.sesscol").exists()
        # input resolution finds it by bare name from anywhere
        assert run(["characterize", "ds.sesscol", "--keys", "item"]) == 0
        assert run(
            ["bench", "ds.sesscol", "--batch-size", 64, "--batches", 1,
             "--out", "report.json"]
        ) == 0
        assert (tmp_path / "report.json").exists()
        # report inputs resolve the same way dataset inputs do
        assert run(["plotdata", "report.json", "--out", "plots"]) == 0
        assert (tmp_path / "plots" / "counters.dat").exists()

    def test_missing_dataset_reports_both_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SESSIONDEDUP_DATA_DIR", str(tmp_path))
        assert run(["characterize", "ghost.sesscol"]) == 1
        err = capsys.readouterr().err
        assert "ghost.sesscol" in err


def _run_command(cmd, cwd, **kwargs):
    """Run ``cmd`` with the imported package's source tree first on PYTHONPATH."""
    src = str(Path(sessiondedup.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.pop("SESSIONDEDUP_DATA_DIR", None)
    return subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=60, **kwargs
    )


def _run_capped(argv, cwd, limit=1 << 30):
    """Run the CLI on ``argv`` in a child process whose address space is
    capped at ``limit`` bytes, so an input that crashes the CLI or makes
    it allocate without bound fails one test, not the whole test run or
    the host."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    cmd = [sys.executable, "-m", "sessiondedup", *map(str, argv)]
    return _run_command(cmd, cwd, preexec_fn=cap)


class TestWrappedRowLengths:
    """Row lengths that wrap in int64 (see ``rows.WRAPPED_LENGTHS``) once
    read past ``read_stripe`` and crashed ``characterize`` and an
    attention ``bench`` with SIGSEGV. Each command now stops with its
    stage's error."""

    @pytest.fixture()
    def wrapped(self, tmp_path):
        path = tmp_path / "wrapped.sesscol"
        row_adapter.write_raw_stripe(path, row_adapter.WRAPPED_LENGTHS, range(5))
        return path

    def test_characterize_fails_cleanly(self, wrapped, tmp_path):
        done = _run_capped(["characterize", wrapped], tmp_path)
        assert done.returncode == 1, done
        assert "error [characterize]: stripe 0: feature 'f'" in done.stderr

    def test_attention_bench_fails_cleanly(self, wrapped, tmp_path):
        model = ModelSpec(
            tables={"f": 8},
            groups=(GroupConfig(keys=("f",), pooling="attention"),),
            plain={},
            dim=4,
        )
        save_model_spec(tmp_path / "model.json", model)
        argv = ["bench", wrapped, "--mode", "baseline", "--model-spec", tmp_path / "model.json"]
        done = _run_capped(argv, tmp_path)
        assert done.returncode == 1, done
        assert "error [bench]: stripe 0: feature 'f'" in done.stderr


class TestEntryPoint:
    def test_console_script_installed(self, tmp_path):
        """The declared `sessiondedup` command exists and runs `cli.main`.

        Checks the `[project.scripts]` declaration, runs its `python -m`
        form from the source tree, and, where an installed script is on
        PATH, checks that it prints the same help."""
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert "sessiondedup" in scripts
        module_name, _, attr = scripts["sessiondedup"].partition(":")
        target = getattr(importlib.import_module(module_name), attr, None)
        assert target is main

        module_cmd = [sys.executable, "-m", "sessiondedup"]
        help_run = _run_command(module_cmd + ["--help"], tmp_path)
        assert help_run.returncode == 0, help_run.stderr
        assert help_run.stdout.startswith("usage: sessiondedup")
        for name in ("gen", "cluster", "characterize", "bench", "plotdata"):
            assert re.search(rf"^\s+{name}\s", help_run.stdout, re.MULTILINE)

        # main's return value is the process exit code
        failed = _run_command(module_cmd + ["characterize", "ghost.sesscol"], tmp_path)
        assert failed.returncode == 1
        assert "error [characterize]" in failed.stderr

        script = shutil.which("sessiondedup")
        if script is not None:
            script_run = _run_command([script, "--help"], tmp_path)
            assert script_run.returncode == 0, script_run.stderr
            assert script_run.stdout == help_run.stdout

    def test_no_command_shows_usage(self, capsys):
        with pytest.raises(SystemExit):
            main([])
