"""Tests for the synthetic impression log generator."""

import json
import math

import numpy as np
import pytest

from rows import as_batch, as_records, column_digest, serialize_log_records

from sessiondedup.datagen import (
    FeatureSpec,
    SampleCountDist,
    SessionConfig,
    default_config,
    generate_dataset,
    load_config,
    save_config,
    shard_logs,
    splitmix64,
    sync_groups,
)
from sessiondedup.trainer_sim import GroupConfig, ModelSpec, default_model_spec


def small_config(seed=0, num_sessions=100, mean_s=8.0):
    cfg = SessionConfig(
        num_sessions=num_sessions,
        samples_per_session=SampleCountDist(kind="geometric", mean=mean_s),
        seed=seed,
    )
    specs = [
        FeatureSpec(
            key="seq",
            kind="user_sequence",
            avg_len=12,
            vocab_size=10_000,
            change_prob=0.2,
        ),
        FeatureSpec(key="item", kind="item", avg_len=1, vocab_size=10_000),
    ]
    return cfg, specs


def mixed_config():
    """Every grouping the generator resolves, over an empirical S: a
    two-member named group, a one-member named group, lone sequences and
    fractional-length items, interleaved in spec order."""
    user = dict(kind="user_sequence", vocab_size=300)
    specs = [
        FeatureSpec("lone_a", avg_len=6.5, change_prob=0.2, **user),
        FeatureSpec("pair_x", avg_len=4, change_prob=0.4, sync_group="pair", **user),
        FeatureSpec("item_f", kind="item", avg_len=1.5, vocab_size=50),
        FeatureSpec("single", avg_len=3.25, change_prob=0.6, sync_group="single", **user),
        FeatureSpec("pair_y", avg_len=2.5, change_prob=0.4, sync_group="pair", **user),
        FeatureSpec("lone_b", avg_len=5, change_prob=0.1, **user),
        FeatureSpec("item_g", kind="item", avg_len=0.6, vocab_size=20),
    ]
    dist = SampleCountDist(kind="empirical", histogram={1: 1.0, 4: 2.0, 9: 1.0})
    return SessionConfig(num_sessions=80, samples_per_session=dist, seed=7), specs


# sha256 of the mixed config's generated columns, recorded before the
# generator read its groups from ``sync_groups``.
MIXED_COLUMNS_SHA256 = "b6f33103569edd18fdc79d847ff0ba5fc8ac21357c41df0bdf7379704b910631"


def change_rows(records, key):
    """(session, impression) pairs where ``key``'s list differs from the
    session's previous impression."""
    return {
        (sid, i)
        for sid, recs in by_session(records).items()
        for i in range(1, len(recs))
        if not np.array_equal(recs[i - 1].features[key], recs[i].features[key])
    }


def by_session(records):
    out = {}
    for r in records:
        out.setdefault(r.session_id, []).append(r)
    return out


class TestSampleCountDist:
    def test_fixed(self):
        dist = SampleCountDist(kind="fixed", mean=5)
        rng = np.random.default_rng(0)
        assert [dist.sample(rng) for _ in range(10)] == [5] * 10

    def test_fixed_requires_integer_mean(self):
        with pytest.raises(ValueError):
            SampleCountDist(kind="fixed", mean=2.5)

    def test_geometric_mean(self):
        dist = SampleCountDist(kind="geometric", mean=16.0)
        rng = np.random.default_rng(1)
        draws = [dist.sample(rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(16.0, rel=0.05)
        assert min(draws) >= 1

    def test_empirical_mean_from_histogram(self):
        dist = SampleCountDist(kind="empirical", histogram={16: 1.0, 17: 1.0})
        assert dist.mean == 16.5
        rng = np.random.default_rng(2)
        draws = {dist.sample(rng) for _ in range(200)}
        assert draws == {16, 17}

    def test_empirical_validation(self):
        with pytest.raises(ValueError):
            SampleCountDist(kind="empirical", histogram={})
        with pytest.raises(ValueError):
            SampleCountDist(kind="empirical", histogram={0: 1.0})
        with pytest.raises(ValueError):
            SampleCountDist(kind="empirical", histogram={2: -1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda x: FeatureSpec("a", "item", x, 10), "avg_len"),
            (lambda x: SampleCountDist(kind="geometric", mean=x), "mean samples per session"),
            (lambda x: SampleCountDist(kind="fixed", mean=x), "mean samples per session"),
            (lambda x: SampleCountDist(kind="empirical", histogram={2: 1.0, 3: x}), "histogram weights"),
        ],
        ids=["avg_len", "geometric-mean", "fixed-mean", "histogram-weight"],
    )
    def test_non_finite_number_rejected(self, build, field, bad):
        # nan passed the > 0 and >= 1 checks and inf passed all of them,
        # so sample() or gen failed later naming no field
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            build(bad)

    @pytest.mark.parametrize("key", [2.7, 2.0, "2.7", "two", "-2", None])
    def test_empirical_key_must_be_an_integer(self, key):
        # int() read the keys 2.7 and 2.0 as the count 2
        with pytest.raises(TypeError, match="histogram key must be an integer"):
            SampleCountDist(kind="empirical", histogram={key: 1.0})

    def test_empirical_decimal_string_keys_read_as_counts(self):
        dist = SampleCountDist(kind="empirical", histogram={"3": 1.0, 5: 1.0})
        assert dist.histogram == {3: 1.0, 5: 1.0}

    def test_empirical_given_mean_must_match_histogram(self):
        # A given mean was silently replaced by the histogram's.
        with pytest.raises(ValueError, match="^empirical mean 99.0 differs from its histogram's mean 2.0"):
            SampleCountDist(kind="empirical", mean=99.0, histogram={2: 1.0})
        hist = {1: 0.1, 2: 0.2, 7: 0.3}
        mean = (1 * 0.1 + 2 * 0.2 + 7 * 0.3) / (0.1 + 0.2 + 0.3)
        assert SampleCountDist(kind="empirical", mean=mean, histogram=hist).mean == mean
        # equal within float rounding: the histogram's own mean is kept
        nudged = SampleCountDist(kind="empirical", mean=mean * (1 + 1e-12), histogram=hist)
        assert nudged.mean == mean
        assert SampleCountDist(kind="empirical", histogram=hist).mean == mean

    def test_omitted_mean_is_one_for_fixed_and_geometric(self):
        assert SampleCountDist(kind="fixed").mean == 1.0
        assert SampleCountDist(kind="geometric").mean == 1.0

    @pytest.mark.parametrize("kind, mean", [("fixed", 4), ("geometric", 4.0)])
    def test_histogram_only_for_empirical(self, kind, mean):
        with pytest.raises(ValueError, match=f"{kind} distribution takes no histogram"):
            SampleCountDist(kind=kind, mean=mean, histogram={2: 1.0})
        with pytest.raises(ValueError, match="takes no histogram"):
            SampleCountDist(kind=kind, mean=mean, histogram={})
        assert SampleCountDist(kind=kind, mean=mean, histogram=None).histogram is None


class TestGenerateDataset:
    def test_deterministic(self):
        cfg, specs = small_config(seed=42)
        a = as_records(generate_dataset(cfg, specs))
        b = as_records(generate_dataset(cfg, specs))
        assert serialize_log_records(a) == serialize_log_records(b)

    def test_seed_changes_stream(self):
        cfg_a, specs = small_config(seed=1)
        cfg_b, _ = small_config(seed=2)
        assert serialize_log_records(as_records(generate_dataset(cfg_a, specs))) != (
            serialize_log_records(as_records(generate_dataset(cfg_b, specs)))
        )

    def test_session_content_independent_of_population(self):
        # adding sessions must not perturb existing ones (timestamps are
        # drawn over a population-wide horizon, so compare content only)
        cfg_small, specs = small_config(num_sessions=10)
        cfg_big, _ = small_config(num_sessions=40)
        small = by_session(as_records(generate_dataset(cfg_small, specs)))
        big = by_session(as_records(generate_dataset(cfg_big, specs)))
        for sid, recs in small.items():
            assert len(recs) == len(big[sid])
            for a, b in zip(recs, big[sid]):
                assert a.label == b.label
                for key in a.features:
                    np.testing.assert_array_equal(a.features[key], b.features[key])

    def test_interleaved_by_timestamp(self):
        cfg, specs = small_config()
        records = as_records(generate_dataset(cfg, specs))
        ts = [r.timestamp for r in records]
        assert ts == sorted(ts)
        # a clustered stream would have ~1 boundary per session
        boundaries = sum(
            1
            for a, b in zip(records, records[1:])
            if a.session_id != b.session_id
        )
        assert boundaries > 2 * cfg.num_sessions

    def test_timestamps_strictly_increase_within_session(self):
        cfg, specs = small_config()
        for recs in by_session(as_records(generate_dataset(cfg, specs))).values():
            ts = [r.timestamp for r in recs]
            assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_unchanged_rate_matches_change_prob(self):
        cfg, specs = small_config(num_sessions=400, mean_s=10)
        records = as_records(generate_dataset(cfg, specs))
        same = total = 0
        for recs in by_session(records).values():
            for a, b in zip(recs, recs[1:]):
                total += 1
                same += np.array_equal(a.features["seq"], b.features["seq"])
        assert same / total == pytest.approx(0.8, abs=0.02)

    def test_mutation_is_shift_by_one(self):
        cfg, specs = small_config(num_sessions=50)
        for recs in by_session(as_records(generate_dataset(cfg, specs))).values():
            for a, b in zip(recs, recs[1:]):
                fa, fb = a.features["seq"], b.features["seq"]
                if np.array_equal(fa, fb):
                    continue
                np.testing.assert_array_equal(fa[1:], fb[:-1])

    def test_sync_group_mutates_together(self):
        cfg = SessionConfig(
            num_sessions=60,
            samples_per_session=SampleCountDist(kind="fixed", mean=12),
            seed=3,
        )
        specs = [
            FeatureSpec(
                key="cart_items",
                kind="user_sequence",
                avg_len=6,
                vocab_size=1000,
                change_prob=0.5,
                sync_group="cart",
            ),
            FeatureSpec(
                key="cart_sellers",
                kind="user_sequence",
                avg_len=6,
                vocab_size=1000,
                change_prob=0.5,
                sync_group="cart",
            ),
        ]
        saw_change = False
        for recs in by_session(as_records(generate_dataset(cfg, specs))).values():
            for a, b in zip(recs, recs[1:]):
                items_same = np.array_equal(
                    a.features["cart_items"], b.features["cart_items"]
                )
                sellers_same = np.array_equal(
                    a.features["cart_sellers"], b.features["cart_sellers"]
                )
                assert items_same == sellers_same
                saw_change = saw_change or not items_same
        assert saw_change

    def test_item_features_redrawn(self):
        cfg, specs = small_config(num_sessions=200)
        dup = total = 0
        for recs in by_session(as_records(generate_dataset(cfg, specs))).values():
            for a, b in zip(recs, recs[1:]):
                total += 1
                dup += np.array_equal(a.features["item"], b.features["item"])
        assert dup / total < 0.01

    def test_ids_within_vocab(self):
        cfg, specs = small_config()
        for rec in as_records(generate_dataset(cfg, specs)):
            for spec in specs:
                vals = rec.features[spec.key]
                assert vals.dtype == np.int64
                if vals.size:
                    assert vals.min() >= 0
                    assert vals.max() < spec.vocab_size

    def test_avg_len_honored(self):
        cfg, specs = small_config(num_sessions=300)
        lens = [len(r.features["seq"]) for r in as_records(generate_dataset(cfg, specs))]
        assert np.mean(lens) == pytest.approx(12, rel=0.05)

    def test_fractional_avg_len(self):
        cfg = SessionConfig(
            num_sessions=500,
            samples_per_session=SampleCountDist(kind="fixed", mean=4),
            seed=5,
        )
        specs = [
            FeatureSpec(key="f", kind="item", avg_len=2.5, vocab_size=100)
        ]
        lens = [len(r.features["f"]) for r in as_records(generate_dataset(cfg, specs))]
        assert set(lens) == {2, 3}
        assert np.mean(lens) == pytest.approx(2.5, abs=0.05)

    def test_duplicate_keys_rejected(self):
        cfg, _ = small_config()
        spec = FeatureSpec(key="f", kind="item", avg_len=1, vocab_size=10)
        with pytest.raises(ValueError, match="duplicate"):
            generate_dataset(cfg, [spec, spec])

    def test_label_rate(self):
        cfg, specs = small_config(num_sessions=800)
        labels = [r.label for r in as_records(generate_dataset(cfg, specs))]
        assert set(labels) <= {0, 1}
        assert np.mean(labels) == pytest.approx(0.1, abs=0.02)


class TestSyncGroups:
    def test_order_and_naming(self):
        _, specs = mixed_config()
        spec = {s.key: s for s in specs}
        assert sync_groups(specs) == [
            (None, (spec["lone_a"],)),
            ("pair", (spec["pair_x"], spec["pair_y"])),
            ("single", (spec["single"],)),
            (None, (spec["lone_b"],)),
        ]

    def test_no_user_sequences(self):
        assert sync_groups([FeatureSpec("i", "item", 1, 5)]) == []

    def test_default_config_groups(self):
        _, specs = default_config()
        assert [(name, [s.key for s in members]) for name, members in sync_groups(specs)] == [
            (None, ["viewed_ids"]),
            (None, ["liked_ids"]),
            (None, ["clicked_ids"]),
            ("cart", ["cart_item_ids", "cart_seller_ids"]),
        ]

    def test_group_named_like_another_feature_keeps_its_own_coins(self):
        # A group once keyed by name shared the string "_solo_<key>" with
        # feature <key>'s own coins, so a group named "_solo_x" changed on
        # exactly x's impressions.
        user = dict(kind="user_sequence", avg_len=4, vocab_size=1000, change_prob=0.3)
        specs = [FeatureSpec("x", **user), FeatureSpec("y", sync_group="_solo_x", **user)]
        assert [name for name, _ in sync_groups(specs)] == [None, "_solo_x"]
        cfg = SessionConfig(50, SampleCountDist(kind="fixed", mean=20), seed=0)
        records = as_records(generate_dataset(cfg, specs))
        x, y = change_rows(records, "x"), change_rows(records, "y")
        assert x and y
        assert x != y
        assert len(x & y) < 0.5 * min(len(x), len(y))

    def test_members_must_agree_on_change_prob(self):
        user = dict(kind="user_sequence", avg_len=4, vocab_size=10, sync_group="cart")
        specs = [FeatureSpec("a", change_prob=0.2, **user), FeatureSpec("b", change_prob=0.3, **user)]
        with pytest.raises(ValueError, match="^sync group 'cart': 'b' has change_prob 0.3, 'a' has 0.2"):
            sync_groups(specs)
        cfg, _ = small_config()
        with pytest.raises(ValueError, match="sync group 'cart'"):
            generate_dataset(cfg, specs)

    @pytest.mark.parametrize(
        "extra", [dict(sync_group="cart"), dict(change_prob=0.1), dict(sync_group="cart", change_prob=0.1)]
    )
    def test_item_takes_no_sync_group_or_change_prob(self, extra):
        specs = [FeatureSpec("i", "item", 1, 10, **extra)]
        with pytest.raises(ValueError, match="^item feature 'i' takes no sync_group or change_prob"):
            sync_groups(specs)
        cfg, _ = small_config()
        with pytest.raises(ValueError, match="item feature 'i'"):
            generate_dataset(cfg, specs)

    def test_mixed_config_columns_unchanged(self):
        cfg, specs = mixed_config()
        table = generate_dataset(cfg, specs)
        assert len(table) == 347
        assert column_digest(table) == MIXED_COLUMNS_SHA256

    def test_mixed_config_model_spec(self):
        # The model reads the same groups: named ones (a one-member group
        # too) pool by attention, lone sequences cycle sum, max and avg.
        _, specs = mixed_config()
        assert default_model_spec(specs) == ModelSpec(
            tables={
                "lone_a": 300,
                "pair_x": 300,
                "item_f": 50,
                "single": 300,
                "pair_y": 300,
                "lone_b": 300,
                "item_g": 20,
            },
            groups=(
                GroupConfig(("pair_x", "pair_y"), "attention"),
                GroupConfig(("single",), "attention"),
                GroupConfig(("lone_a",), "sum"),
                GroupConfig(("lone_b",), "max"),
            ),
            plain={"item_f": "sum", "item_g": "sum"},
            seed=0,
        )

    def test_model_spec_runs_the_group_checks(self):
        user = dict(kind="user_sequence", avg_len=4, vocab_size=10, sync_group="g")
        specs = [FeatureSpec("a", change_prob=0.2, **user), FeatureSpec("b", change_prob=0.5, **user)]
        with pytest.raises(ValueError, match="^sync group 'g'"):
            default_model_spec(specs)


class TestShardLogs:
    def test_session_keying_keeps_sessions_whole(self):
        cfg, specs = small_config(num_sessions=64)
        records = as_records(generate_dataset(cfg, specs))
        shards = shard_logs(as_batch(records), 8, key="session_id")
        assert sum(len(s) for s in shards) == len(records)
        owner = {}
        for i, shard in enumerate(shards):
            for rec in as_records(shard):
                assert owner.setdefault(rec.session_id, i) == i

    def test_hash_keying_scatters_sessions(self):
        cfg, specs = small_config(num_sessions=64, mean_s=16)
        records = as_records(generate_dataset(cfg, specs))
        shards = shard_logs(as_batch(records), 8, key="random_hash")
        spread = {}
        for i, shard in enumerate(shards):
            for rec in as_records(shard):
                spread.setdefault(rec.session_id, set()).add(i)
        multi = sum(1 for s in spread.values() if len(s) > 1)
        assert multi > len(spread) * 0.5

    def test_shard_order_preserved(self):
        cfg, specs = small_config()
        records = as_records(generate_dataset(cfg, specs))
        pos = {(r.session_id, r.timestamp): i for i, r in enumerate(records)}
        for shard in shard_logs(as_batch(records), 4, key="random_hash"):
            idx = [pos[r.session_id, r.timestamp] for r in as_records(shard)]
            assert idx == sorted(idx)

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            shard_logs([], 0)
        with pytest.raises(ValueError):
            shard_logs([], 2, key="round_robin")

    def test_splitmix64_reference_values(self):
        # reference outputs of the standard finalizer
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1


class TestConfigIO:
    def test_roundtrip(self, tmp_path):
        cfg, specs = small_config(seed=9)
        path = tmp_path / "config.json"
        save_config(path, cfg, specs)
        cfg2, specs2 = load_config(path)
        assert cfg2 == cfg
        assert specs2 == specs
        assert serialize_log_records(as_records(generate_dataset(cfg2, specs2))) == (
            serialize_log_records(as_records(generate_dataset(cfg, specs)))
        )

    def test_roundtrip_empirical_histogram(self, tmp_path):
        cfg = SessionConfig(
            num_sessions=5,
            samples_per_session=SampleCountDist(
                kind="empirical", histogram={16: 1.0, 17: 1.0}
            ),
            seed=0,
        )
        specs = [FeatureSpec(key="f", kind="item", avg_len=1, vocab_size=10)]
        path = tmp_path / "config.json"
        save_config(path, cfg, specs)
        cfg2, _ = load_config(path)
        assert cfg2.samples_per_session.histogram == {16: 1.0, 17: 1.0}
        assert cfg2.samples_per_session.mean == 16.5

    def test_roundtrip_empirical_mean_with_rounding(self, tmp_path):
        # save_config writes the histogram's mean, which need not be exact
        dist = SampleCountDist(kind="empirical", histogram={1: 0.1, 2: 0.2, 7: 0.3})
        cfg = SessionConfig(num_sessions=5, samples_per_session=dist)
        specs = [FeatureSpec(key="f", kind="item", avg_len=1, vocab_size=10)]
        path = tmp_path / "config.json"
        save_config(path, cfg, specs)
        assert json.loads(path.read_text())["samples_per_session"]["mean"] == dist.mean
        assert load_config(path) == (cfg, specs)

    def test_config_is_plain_json(self, tmp_path):
        cfg, specs = small_config()
        path = tmp_path / "config.json"
        save_config(path, cfg, specs)
        obj = json.loads(path.read_text())
        assert obj["num_sessions"] == cfg.num_sessions

    def test_geometric_json_without_histogram_loads(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            """{"seed": 4, "num_sessions": 3,
            "samples_per_session": {"kind": "geometric", "mean": 16.0},
            "features": [{"key": "v", "kind": "user_sequence", "avg_len": 48.0,
                          "vocab_size": 200000, "change_prob": 0.15, "sync_group": "g"}]}"""
        )
        assert load_config(path) == (
            SessionConfig(3, SampleCountDist("geometric", 16.0), seed=4),
            [FeatureSpec("v", "user_sequence", 48, 200_000, 0.15, "g")],
        )

    def test_empirical_json_without_mean_loads(self, tmp_path):
        # Optional keys left out take the dataclass defaults.
        path = tmp_path / "config.json"
        path.write_text(
            """{"num_sessions": 5,
            "samples_per_session": {"kind": "empirical", "histogram": {"16": 1.0, "17": 3.0}},
            "features": [{"key": "f", "kind": "item", "avg_len": 1.5, "vocab_size": 10}]}"""
        )
        cfg, specs = load_config(path)
        assert cfg == SessionConfig(5, SampleCountDist("empirical", histogram={16: 1.0, 17: 3.0}))
        assert cfg.samples_per_session.mean == 16.75
        assert specs == [FeatureSpec("f", "item", 1.5, 10)]

    @pytest.mark.parametrize("key", ["num_sessions", "mean", "change_prob"])
    def test_misspelt_key_rejected(self, tmp_path, key):
        cfg, specs = small_config()
        path = tmp_path / "config.json"
        save_config(path, cfg, specs)
        path.write_text(path.read_text().replace(f'"{key}"', f'"{key}x"', 1))
        with pytest.raises(TypeError, match=f"{key}x"):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"num_sessions": 100', '"num_sessions": 100.0'),
            ('"vocab_size": 10000', '"vocab_size": "10000"'),
        ],
    )
    def test_non_integral_count_rejected(self, tmp_path, old, new):
        cfg, specs = small_config()
        path = tmp_path / "config.json"
        save_config(path, cfg, specs)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        field = old.split('"')[1]
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got"):
            load_config(path)

    @pytest.mark.parametrize("field", ["num_sessions", "vocab_size"])
    def test_count_below_one_names_its_field(self, field):
        cfg, specs = small_config()
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0"):
            if field == "num_sessions":
                SessionConfig(0, cfg.samples_per_session)
            else:
                FeatureSpec("f", "item", 1, 0)

    def test_saved_null_histogram_loads(self, tmp_path):
        cfg, specs = small_config()
        path = tmp_path / "config.json"
        save_config(path, cfg, specs)
        assert json.loads(path.read_text())["samples_per_session"]["histogram"] is None
        assert load_config(path) == (cfg, specs)

    def test_default_config_shape(self):
        cfg, specs = default_config(seed=0)
        keys = {s.key for s in specs}
        assert "viewed_ids" in keys
        assert cfg.samples_per_session.mean == 16.0
        sync = {s.sync_group for s in specs if s.sync_group}
        assert sync == {"cart"}
        user = [s for s in specs if s.kind == "user_sequence"]
        assert all(s.change_prob == pytest.approx(0.15) for s in user)
