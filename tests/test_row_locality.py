"""Row locality: a row's score depends on the row alone, whatever path
carried it from the generator through a stored file and the reader to
the trainer."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sessiondedup.datagen import FeatureSpec, SampleCountDist, SessionConfig, generate_dataset
from sessiondedup.reader import DataloaderSpec, Transform, read_batches
from sessiondedup.storage import scan, write_table
from sessiondedup.trainer_sim import build_tables, default_model_spec, forward_iteration, make_round_robin_plan

# (clustering, stripe_rows, batch_size, ranks, mode)
PIPELINES = st.tuples(
    st.sampled_from(["none", "by_session"]),
    st.sampled_from([777, 4096]),
    st.sampled_from([2000, 1000, 333]),
    st.sampled_from([1, 3]),
    st.sampled_from(["dedup", "baseline"]),
)


@st.composite
def generator_configs(draw):
    """Sessions of mean length S down to 1, user sequences that change on
    up to every impression with a fractional mean length, a two-member
    sync group, and an item feature with empty rows."""
    cfg = SessionConfig(
        num_sessions=draw(st.integers(150, 400)),
        samples_per_session=SampleCountDist(kind="geometric", mean=draw(st.floats(1.0, 16.0))),
        seed=draw(st.integers(0, 2**16)),
    )
    cart_change = draw(st.floats(0.0, 1.0))
    specs = [
        FeatureSpec(
            key="viewed_ids",
            kind="user_sequence",
            avg_len=draw(st.integers(1, 8)) + 0.5,
            vocab_size=300,
            change_prob=draw(st.floats(0.0, 1.0)),
        ),
        *(
            FeatureSpec(
                key=key,
                kind="user_sequence",
                avg_len=draw(st.floats(1.0, 6.0)),
                vocab_size=vocab,
                change_prob=cart_change,
                sync_group="cart",
            )
            for key, vocab in (("cart_item_ids", 200), ("cart_seller_ids", 50))
        ),
        FeatureSpec(key="item_id", kind="item", avg_len=draw(st.floats(0.1, 0.9)), vocab_size=200),
    ]
    return cfg, specs


def _row_scores(table, pipeline, model, tables, transforms, path) -> dict:
    """Each row's float32 score bits, keyed by (session_id, timestamp),
    after ``table`` is written to ``path``, read and scored along
    ``pipeline``."""
    clustering, stripe_rows, batch_size, ranks, mode = pipeline
    f = write_table(table, path, stripe_rows=stripe_rows, clustering=clustering)
    spec = DataloaderSpec(
        keys=model.all_keys,
        dedup_sparse_features=tuple(g.keys for g in model.groups),
        transforms=transforms,
        batch_size=batch_size,
    )
    plan = make_round_robin_plan(model, ranks)
    batches = list(read_batches(f, spec if mode == "dedup" else spec.without_dedup()))
    assert all(b.batch_size > 1 for b in batches)
    scores = np.concatenate([forward_iteration(b, model, plan, mode, tables)[0] for b in batches])
    rows = next(scan(f, f.row_count))
    keys = zip(rows.session_ids.tolist(), rows.timestamps.tolist())
    return dict(zip(keys, scores.view(np.uint32).tolist()))


@settings(max_examples=12, deadline=None)
@given(generator_configs(), PIPELINES, PIPELINES, st.booleans())
def test_row_scores_do_not_depend_on_the_path(tmp_path_factory, config, first, second, hashed):
    """Two pipelines that differ in clustering, stripe size, batch size,
    rank count or mode give every row the same float32 score, bit for
    bit: pooling and attention reduce each row alone, and the interaction
    stub dots each row's blocks.

    No batch of one row is scored: there the stub's mean adds a row's
    pairs pairwise rather than left to right, so a row's score changes
    when it is alone in its batch
    (``TestInteractionStub::test_single_row_adds_pairs_pairwise``). A
    drawn config whose row count would leave a one-row last batch is
    rejected."""
    cfg, specs = config
    table = generate_dataset(cfg, specs)
    assume(all(len(table) % batch_size != 1 for _, _, batch_size, _, _ in (first, second)))
    model = default_model_spec(specs)
    tables = build_tables(model)
    hashes = (Transform(op="mod_hash", key=s.key, param=s.vocab_size // 2) for s in specs)
    transforms = tuple(hashes) if hashed else ()
    directory = tmp_path_factory.mktemp("locality")
    a, b = (
        _row_scores(table, p, model, tables, transforms, directory / f"{i}.sesscol")
        for i, p in enumerate((first, second))
    )
    assert len(a) == len(table)
    assert a == b
