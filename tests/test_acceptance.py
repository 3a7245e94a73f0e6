"""End-to-end acceptance suite.

Seven criteria, each printing one scannable verdict line:

    [ACCEPTANCE n] <name>: PASS|FAIL

1. Worked micro-examples, exact.
2. Dedup/baseline forward equivalence over >= 1000 random batches, exact.
3. Analytical dedup model vs measured factors, +-10%.
4. Resource-counter dominance and values-stream byte shrink, exact.
5. Storage: session clustering and session-keyed sharding compress better.
6. Duplication statistics equal a quadratic brute-force recount, exact.
7. jagged_index_select equals a pad/select/unpad oracle on 1e4 instances.
"""

import math

import numpy as np

from sessiondedup.characterize import (
    byte_weighted,
    exact_dup_pct,
    partial_dup_pct,
)
from rows import ImpressionRecord, as_batch, as_records
from sessiondedup.datagen import (
    FeatureSpec,
    SampleCountDist,
    SessionConfig,
    default_config,
    generate_dataset,
    shard_logs,
)
from sessiondedup.reader import DataloaderSpec, Transform, convert, process
from sessiondedup.storage import stream_sizes, write_table
from sessiondedup.tensors import (
    DedupeModel,
    JaggedTensor,
    build_ikjt,
    build_kjt,
    build_partial_ikjt,
    dedupe_factor,
    dedupe_len,
    ikjt_to_kjt,
    jagged_index_select,
    jt_equal,
    measured_dedupe_factor,
)
from sessiondedup.trainer_sim import (
    EmbeddingTable,
    GroupConfig,
    ModelSpec,
    PoolingUnit,
    ShardingPlan,
    activation_bytes,
    build_tables,
    embedding_lookup,
    forward_iteration,
    make_round_robin_plan,
    pool,
    sdd,
)


def run_criterion(n, name, capsys, body):
    """Run one criterion body, print its verdict line, then fail loudly."""
    failures: list[str] = []
    err: BaseException | None = None
    try:
        body(failures)
    except BaseException as e:  # a crash is a FAIL, not a missing line
        err = e
    ok = not failures and err is None
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {n}] {name}: {'PASS' if ok else 'FAIL'}")
    if err is not None:
        raise err
    assert not failures, f"criterion {n}: " + "; ".join(failures[:10])


def rec(sid, ts, feats, label=0):
    return ImpressionRecord(
        session_id=sid,
        timestamp=ts,
        features={k: np.asarray(v, dtype=np.int64) for k, v in feats.items()},
        label=label,
    )


def session_like_rows(rng, batch_size, keys, dup_rate, max_len=6, vocab=1000):
    """Rows where consecutive rows keep their feature lists with
    probability ~dup_rate, mimicking a session-clustered batch."""
    rows = []
    sid = 0
    state = None
    for i in range(batch_size):
        if state is None or (rows and rng.random() > dup_rate):
            sid += 1
            state = {
                k: rng.integers(0, vocab, size=rng.integers(0, max_len + 1)).tolist()
                for k in keys
            }
        rows.append(rec(sid, i, dict(state), label=int(rng.random() < 0.2)))
    return rows


def test_acceptance_1_worked_examples(capsys):
    def body(failures):
        # analytical model: S=3, B=3, l=3, d=0.5
        model = DedupeModel(
            samples_per_session=3, batch_size=3, avg_len=3, unchanged_prob=0.5
        )
        if dedupe_len(model) != 6.0:
            failures.append(f"DedupeLen {dedupe_len(model)} != 6.0")
        if dedupe_factor(model) != 1.5:
            failures.append(f"DedupeFactor {dedupe_factor(model)} != 1.5")

        # shifted-session partial encoding
        rows_b = [
            rec(0, 0, {"b": [3, 4, 5]}),
            rec(0, 1, {"b": [4, 5, 6]}),
            rec(0, 2, {"b": [3, 4, 5]}),
        ]
        pikjt = build_partial_ikjt(as_batch(rows_b), "b")
        if pikjt.values.tolist() != [3, 4, 5, 6]:
            failures.append(f"partial values {pikjt.values.tolist()}")
        if pikjt.windows.tolist() != [[0, 3], [1, 3], [0, 3]]:
            failures.append(f"partial windows {pikjt.windows.tolist()}")

        # exact dedup of the same rows: inverse [0, 1, 0], 9 -> 6 IDs
        ikjt_b = build_ikjt(as_batch(rows_b), ["b"])
        if ikjt_b.inverse_lookup.tolist() != [0, 1, 0]:
            failures.append(f"inverse {ikjt_b.inverse_lookup.tolist()}")
        factor = measured_dedupe_factor(ikjt_b, build_kjt(as_batch(rows_b), ["b"]))
        if factor != {"b": 1.5}:
            failures.append(f"measured factor {factor}")

        # grouped {c, d} dedup rows pool (sum, identity dim=1 embeddings)
        # to [24, 21], expanding to [24, 24, 21]
        rows_cd = [
            rec(0, 0, {"c": [7, 8], "d": [9]}),
            rec(0, 1, {"c": [7, 8], "d": [9]}),
            rec(0, 2, {"c": [10], "d": [11]}),
        ]
        ikjt = build_ikjt(as_batch(rows_cd), ["c", "d"])
        if ikjt.inverse_lookup.tolist() != [0, 0, 1]:
            failures.append(f"group inverse {ikjt.inverse_lookup.tolist()}")
        table = EmbeddingTable(
            key="cd",
            weights=np.arange(12, dtype=np.float32).reshape(-1, 1),
        )
        seq = JaggedTensor.from_rows(
            [
                np.concatenate(
                    [ikjt.per_feature["c"].row(i), ikjt.per_feature["d"].row(i)]
                )
                for i in range(ikjt.unique_count)
            ]
        )
        pooled = pool(embedding_lookup(seq, table), seq.offsets, "sum")
        if pooled.ravel().tolist() != [24.0, 21.0]:
            failures.append(f"pooled {pooled.ravel().tolist()}")
        expanded = pooled[ikjt.inverse_lookup]
        if expanded.ravel().tolist() != [24.0, 24.0, 21.0]:
            failures.append(f"expanded {expanded.ravel().tolist()}")

        # partial duplication of a 100-ID list shifted by one: 99/200
        shift_rows = [
            rec(0, 0, {"f": list(range(100))}),
            rec(0, 1, {"f": list(range(1, 101))}),
        ]
        got = partial_dup_pct(as_batch(shift_rows), "f")
        if got != 100.0 * 99 / 200:
            failures.append(f"partial dup {got} != 49.5")

        # max exact duplication at S=16.5 (16/17 sample sessions, never
        # updated): (16.5 - 1)/16.5
        never = []
        for s in range(20):
            n = 16 if s % 2 == 0 else 17
            never.extend(rec(s, t, {"f": [s]}) for t in range(n))
        got = exact_dup_pct(as_batch(never), "f")
        if got != 100.0 * 15.5 / 16.5:
            failures.append(f"exact dup {got} != {100.0 * 15.5 / 16.5}")

        # activation memory accounting for l=1000, B=4096, dim=128
        if activation_bytes(4096, 1000, 128, 4) != 4096 * 1000 * 128 * 4:
            failures.append("activation bytes mismatch")

    run_criterion(1, "worked examples (exact)", capsys, body)


def _random_model(rng, all_keys, group_keys, plain_keys, dim, seed):
    poolings = ["attention", "sum", "avg", "max"]
    groups = tuple(
        GroupConfig(keys=tuple(g), pooling=poolings[i % 4])
        for i, g in enumerate(group_keys)
    )
    return ModelSpec(
        tables={k: 1000 for k in all_keys},
        groups=groups,
        plain={k: "sum" for k in plain_keys},
        seed=seed,
        dim=dim,
    )


def _one_equivalence_case(i, failures, coverage):
    rng = np.random.default_rng(10_000 + i)
    if i % 200 == 199:
        batch_size = 4096  # the full-size case
        n_groups = int(rng.integers(1, 4))
    else:
        batch_size = int(rng.choice([8, 16, 32, 64, 128, 256]))
        n_groups = int(rng.integers(1, 9))
    group_keys = []
    k = 0
    for g in range(n_groups):
        width = int(rng.integers(1, 3))
        group_keys.append([f"g{k + j}" for j in range(width)])
        k += width
    plain_keys = ["p0"] if rng.random() < 0.5 else []
    all_keys = [key for g in group_keys for key in g] + plain_keys
    ranks = int(rng.choice([1, 2, 4, 8]))
    ranks = min(ranks, batch_size)
    transforms = ()
    if rng.random() < 0.25:
        transforms = (Transform(op="mod_hash", key=all_keys[0], param=997),)

    rows = session_like_rows(
        rng,
        batch_size,
        all_keys,
        dup_rate=float(rng.uniform(0.3, 0.95)),
        max_len=int(rng.integers(1, 7)),
    )
    reader_spec = DataloaderSpec(
        keys=tuple(all_keys),
        dedup_sparse_features=tuple(tuple(g) for g in group_keys),
        transforms=transforms,
        batch_size=batch_size,
    )
    dedup_batch = process(convert(as_batch(rows), reader_spec), transforms)
    base_batch = process(convert(as_batch(rows), reader_spec.without_dedup()), transforms)

    # every processed IKJT must expand to the processed baseline KJT
    for ikjt in dedup_batch.ikjts:
        expanded = ikjt_to_kjt(ikjt)
        for key in ikjt.group_keys:
            if not jt_equal(expanded.entries[key], base_batch.kjts[key]):
                failures.append(f"case {i}: expansion mismatch on {key}")
                return

    model = _random_model(rng, all_keys, group_keys, plain_keys, dim=4, seed=i)
    plan = make_round_robin_plan(model, ranks)
    tables = build_tables(model)
    d_scores, d_stats = forward_iteration(dedup_batch, model, plan, "dedup", tables)
    b_scores, b_stats = forward_iteration(base_batch, model, plan, "baseline", tables)
    if not np.array_equal(d_scores, b_scores):
        failures.append(f"case {i}: scores diverge (R={ranks}, B={batch_size})")
    if not d_stats.dominated_by(b_stats):
        failures.append(f"case {i}: dedup stats not dominated by baseline")
    coverage["b"].add(batch_size)
    coverage["r"].add(ranks)
    coverage["g"].add(n_groups)


def test_acceptance_2_equivalence_oracle(capsys):
    def body(failures):
        coverage = {"b": set(), "r": set(), "g": set()}
        for i in range(1000):
            _one_equivalence_case(i, failures, coverage)
            if len(failures) > 5:
                return
        # the sweep must actually exercise the advertised envelope
        if max(coverage["b"]) != 4096:
            failures.append("never reached B=4096")
        if coverage["r"] != {1, 2, 4, 8}:
            failures.append(f"rank coverage {sorted(coverage['r'])}")
        if max(coverage["g"]) != 8:
            failures.append("never reached 8 feature groups")

    run_criterion(2, "dedup/baseline equivalence, 1000 batches (exact)", capsys, body)


def test_acceptance_3_analytical_model(capsys):
    def body(failures):
        worst = 0.0
        for s in (2, 8, 16):
            for d in (0.5, 0.8, 0.95):
                for l in (10, 100):
                    batch_size = 100 * s  # >= 50*S
                    n_batches = 6
                    sessions = math.ceil(batch_size * n_batches / s) + 8
                    cfg = SessionConfig(
                        num_sessions=sessions,
                        samples_per_session=SampleCountDist(kind="fixed", mean=s),
                        seed=s * 10_000 + int(d * 100) * 10 + l,
                    )
                    specs = [
                        FeatureSpec(
                            key="f",
                            kind="user_sequence",
                            avg_len=l,
                            vocab_size=1_000_000,
                            change_prob=1.0 - d,
                        )
                    ]
                    records = as_records(generate_dataset(cfg, specs))
                    records.sort(key=lambda r: (r.session_id, r.timestamp))
                    base_n = dedup_n = 0
                    for b in range(n_batches):
                        batch = records[b * batch_size : (b + 1) * batch_size]
                        if len(batch) < batch_size:
                            failures.append(f"S={s} ran out of records")
                            return
                        base_n += build_kjt(as_batch(batch), ["f"]).entries["f"].values.size
                        dedup_n += (
                            build_ikjt(as_batch(batch), ["f"]).per_feature["f"].values.size
                        )
                    measured = base_n / dedup_n
                    predicted = dedupe_factor(
                        DedupeModel(
                            samples_per_session=s,
                            batch_size=batch_size,
                            avg_len=l,
                            unchanged_prob=d,
                        )
                    )
                    err = abs(measured - predicted) / predicted
                    worst = max(worst, err)
                    if err > 0.10:
                        failures.append(
                            f"S={s} d={d} l={l}: measured {measured:.3f} vs "
                            f"predicted {predicted:.3f} ({100 * err:.1f}% off)"
                        )

    run_criterion(3, "analytical dedup model (+-10%)", capsys, body)


def test_acceptance_4_byte_dominance(capsys):
    def body(failures):
        shrink_checked = 0
        for i in range(150):
            rng = np.random.default_rng(40_000 + i)
            batch_size = int(rng.choice([32, 64, 128, 256]))
            keys = ["u", "v"]
            rows = session_like_rows(
                rng, batch_size, keys, dup_rate=float(rng.uniform(0.5, 0.95)),
                max_len=5,
            )
            reader_spec = DataloaderSpec(
                keys=("u", "v"),
                dedup_sparse_features=(("u",), ("v",)),
                batch_size=batch_size,
            )
            dedup_batch = convert(as_batch(rows), reader_spec)
            base_batch = convert(as_batch(rows), reader_spec.without_dedup())
            model = ModelSpec(
                tables={"u": 1000, "v": 1000},
                groups=(
                    GroupConfig(keys=("u",), pooling="attention"),
                    GroupConfig(keys=("v",), pooling="sum"),
                ),
                plain={},
                seed=i,
                dim=8,
            )
            ranks = int(rng.choice([1, 2, 4, 8]))
            ranks = min(ranks, batch_size)
            plan = make_round_robin_plan(model, ranks)
            tables = build_tables(model)
            _, d_stats = forward_iteration(dedup_batch, model, plan, "dedup", tables)
            _, b_stats = forward_iteration(
                base_batch, model, plan, "baseline", tables
            )
            for counter in (
                "a2a_bytes_fwd",
                "a2a_bytes_back",
                "lookup_count",
                "activation_elements",
                "pooling_mac_count",
            ):
                if getattr(d_stats, counter) > getattr(b_stats, counter):
                    failures.append(f"case {i}: {counter} grew under dedup")

            # values-stream shrink vs the whole-batch measured factor,
            # exchanged at R=1 so the transmitted slices are the batch
            # encodings themselves
            plan1 = ShardingPlan(num_ranks=1, assignment={"u": 0, "v": 0})
            dedup_slices = {
                ik.group_keys[0]: ik.per_feature[ik.group_keys[0]]
                for ik in dedup_batch.ikjts
            }
            base_slices = {k: base_batch.kjts[k] for k in keys}
            d_sdd = sdd([PoolingUnit({k: jt}, None, np.array([0, jt.row_count])) for k, jt in dedup_slices.items()], plan1)
            b_sdd = sdd([PoolingUnit({k: jt}, None, np.array([0, jt.row_count])) for k, jt in base_slices.items()], plan1)
            for ik in dedup_batch.ikjts:
                key = ik.group_keys[0]
                factor = measured_dedupe_factor(
                    ik, build_kjt(as_batch(rows), [key])
                )[key]
                if factor < 1.5:
                    continue
                shrink_checked += 1
                db = d_sdd.values_bytes_by_key[key]
                bb = b_sdd.values_bytes_by_key[key]
                if db == 0 or bb / db < factor:
                    failures.append(
                        f"case {i}: {key} bytes {bb}->{db}, factor {factor:.2f}"
                    )
            if len(failures) > 5:
                return
        if shrink_checked < 20:
            failures.append(
                f"only {shrink_checked} group encodings reached factor 1.5"
            )

    run_criterion(4, "resource dominance and byte shrink (exact)", capsys, body)


def test_acceptance_5_storage_direction(capsys, tmp_path):
    def body(failures):
        cfg, specs = default_config(seed=0)
        records = generate_dataset(cfg, specs)
        plain_path = tmp_path / "plain.sesscol"
        clustered_path = tmp_path / "clustered.sesscol"
        write_table(records, plain_path, clustering="none")
        write_table(records, clustered_path, clustering="by_session")
        plain_size = plain_path.stat().st_size
        clustered_size = clustered_path.stat().st_size
        if clustered_size > plain_size / 1.3:
            failures.append(
                f"clustered file {clustered_size} > {plain_size}/1.3"
            )

        # session-keyed sharding must out-compress hash-keyed sharding
        def shard_ratio(key):
            raw = comp = 0
            for si, shard in enumerate(shard_logs(records, 32, key=key)):
                if not shard:
                    continue
                path = tmp_path / f"{key}_{si}.sesscol"
                f = write_table(shard, path, clustering="none")
                r, c = stream_sizes(f)
                raw += r
                comp += c
            return raw / comp

        session_ratio = shard_ratio("session_id")
        hash_ratio = shard_ratio("random_hash")
        if session_ratio <= hash_ratio:
            failures.append(
                f"session sharding ratio {session_ratio:.3f} <= "
                f"hash ratio {hash_ratio:.3f}"
            )

    run_criterion(5, "storage clustering direction", capsys, body)


def brute_exact(records, key):
    """A record is an exact duplicate when an earlier record of the same
    session carries an identical list. Quadratic within each session."""
    records = list(records)
    sessions: dict[int, list] = {}
    for r in records:
        sessions.setdefault(r.session_id, []).append(r.features[key])
    dup = 0
    for lists in sessions.values():
        for i, a in enumerate(lists):
            if any(np.array_equal(a, b) for b in lists[:i]):
                dup += 1
    return 100.0 * dup / len(records)


def brute_partial(records, key):
    from collections import Counter

    sessions: dict[int, list] = {}
    for r in records:
        sessions.setdefault(r.session_id, []).append(r.features[key])
    total = dup = 0
    for lists in sessions.values():
        counters = [Counter(arr.tolist()) for arr in lists]
        total += sum(sum(c.values()) for c in counters)
        for v in set().union(*counters):
            occ = [c[v] for c in counters]
            dup += sum(occ) - max(occ)
    return 100.0 * dup / total


def test_acceptance_6_characterization_oracle(capsys):
    def body(failures):
        cfg = SessionConfig(
            num_sessions=580,
            samples_per_session=SampleCountDist(kind="geometric", mean=16.0),
            seed=60,
        )
        specs = [
            FeatureSpec(
                key="seq",
                kind="user_sequence",
                avg_len=10,
                vocab_size=4000,
                change_prob=0.15,
            ),
            FeatureSpec(
                key="cart",
                kind="user_sequence",
                avg_len=4,
                vocab_size=4000,
                change_prob=0.3,
            ),
            FeatureSpec(key="item", kind="item", avg_len=2, vocab_size=4000),
        ]
        records = as_records(generate_dataset(cfg, specs))
        if len(records) > 10_000:
            records = records[:10_000]
        keys = ["seq", "cart", "item"]
        for key in keys:
            got_e = exact_dup_pct(as_batch(records), key)
            want_e = brute_exact(records, key)
            if got_e != want_e:
                failures.append(f"{key} exact {got_e} != brute {want_e}")
            got_p = partial_dup_pct(as_batch(records), key)
            want_p = brute_partial(records, key)
            if got_p != want_p:
                failures.append(f"{key} partial {got_p} != brute {want_p}")
        # byte-weighted: same blend arithmetic over brute-force inputs
        weights = [
            sum(r.features[k].size for r in records) / len(records) for k in keys
        ]
        wsum = sum(weights)
        want_we = sum(w * brute_exact(records, k) for w, k in zip(weights, keys)) / wsum
        want_wp = (
            sum(w * brute_partial(records, k) for w, k in zip(weights, keys)) / wsum
        )
        got_we, got_wp = byte_weighted(as_batch(records), keys)
        if got_we != want_we:
            failures.append(f"byte-weighted exact {got_we} != {want_we}")
        if got_wp != want_wp:
            failures.append(f"byte-weighted partial {got_wp} != {want_wp}")

    run_criterion(6, "characterization brute-force oracle (exact)", capsys, body)


def test_acceptance_7_jagged_index_select_oracle(capsys):
    def body(failures):
        rng = np.random.default_rng(70)
        pad = -1
        for i in range(10_000):
            n_rows = int(rng.integers(1, 11))
            rows = [
                rng.integers(0, 100, size=rng.integers(0, 7)).tolist()
                for _ in range(n_rows)
            ]
            jt = JaggedTensor.from_rows(rows)
            idx = rng.integers(0, n_rows, size=int(rng.integers(0, 17)))
            got = jagged_index_select(jt, idx).to_pylists()
            width = max(len(r) for r in rows)
            dense = np.full((n_rows, width + 1), pad, dtype=np.int64)
            for r, row in enumerate(rows):
                dense[r, : len(row)] = row
            want = [[int(v) for v in row if v != pad] for row in dense[idx]]
            if got != want:
                failures.append(f"instance {i}: {got} != {want}")
                return

    run_criterion(7, "jagged_index_select oracle, 1e4 instances (exact)", capsys, body)
