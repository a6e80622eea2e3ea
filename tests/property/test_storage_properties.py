"""Property-based tests for namespace and quota accounting."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FileExistsInStorageError,
    FileNotFoundInStorageError,
    QuotaExceededError,
    StorageError,
    ValidationError,
)
from repro.storage import SimulatedFileSystem
from repro.storage.namenode import NameNode

path_segment = st.text(alphabet="abcdef", min_size=1, max_size=4)
path_strategy = st.builds(
    lambda parts: "/" + "/".join(parts),
    st.lists(path_segment, min_size=1, max_size=4),
)

operation_strategy = st.lists(
    st.tuples(
        st.sampled_from(["create", "delete"]),
        path_strategy,
        st.integers(min_value=0, max_value=10**9),
    ),
    min_size=1,
    max_size=40,
)


class TestNamespaceProperties:
    @given(operations=operation_strategy)
    @settings(max_examples=60)
    def test_accounting_matches_shadow_model(self, operations):
        node = NameNode()
        shadow: dict[str, int] = {}
        for kind, path, size in operations:
            if kind == "create":
                try:
                    node.create(path, size, created_at=0.0)
                    shadow[node.lookup(path).path] = size
                except FileExistsInStorageError:
                    pass
            else:
                normalized = "/" + "/".join(p for p in path.split("/") if p)
                try:
                    node.delete(path)
                    shadow.pop(normalized, None)
                except FileNotFoundInStorageError:
                    assert normalized not in shadow
        assert node.file_count == len(shadow)
        assert node.total_bytes == sum(shadow.values())

    @given(operations=operation_strategy, limit=st.integers(min_value=1, max_value=30))
    @settings(max_examples=60)
    def test_quota_usage_never_exceeds_limit(self, operations, limit):
        node = NameNode()
        node.set_quota("/q", limit)
        for kind, path, size in operations:
            scoped = "/q" + path
            try:
                if kind == "create":
                    node.create(scoped, size, created_at=0.0)
                else:
                    node.delete(scoped)
            except (
                FileExistsInStorageError,
                FileNotFoundInStorageError,
                QuotaExceededError,
            ):
                pass
            used, cap = node.quota_usage("/q")
            assert 0 <= used <= cap

    @given(operations=operation_strategy)
    @settings(max_examples=40)
    def test_quota_used_matches_recount(self, operations):
        """Incremental quota charges agree with a from-scratch recount."""
        node = NameNode()
        node.set_quota("/q", 10_000)
        for kind, path, size in operations:
            scoped = "/q" + path
            try:
                if kind == "create":
                    node.create(scoped, size, created_at=0.0)
                else:
                    node.delete(scoped)
            except (FileExistsInStorageError, FileNotFoundInStorageError):
                pass
        used, _ = node.quota_usage("/q")
        # Recount from scratch: files plus (never-garbage-collected)
        # directories, matching HDFS namespace-quota semantics.
        recount = len(node.files_under("/q")) + sum(d.startswith("/q/") for d in node._dirs)
        assert recount == used


# --- batch oracle: create_files/delete_files == the same single calls ----------

segment = st.sampled_from(["a", "b", "ab"])
directory_strategy = st.builds(
    lambda parts: "/".join(["/q", *parts]), st.lists(segment, min_size=0, max_size=2)
)
batch_strategy = st.one_of(
    st.tuples(
        st.just("create"),
        directory_strategy,
        st.lists(st.tuples(segment, st.integers(min_value=-1, max_value=5)), max_size=6),
    ),
    st.tuples(
        st.just("delete"),
        st.lists(
            st.builds(lambda d, name: f"{d}/{name}", directory_strategy, segment), max_size=6
        ),
    ),
)


def _outcome(call):
    try:
        call()
    except (ValidationError, StorageError) as error:
        return type(error), error.args
    return None


def _sequential(fs: SimulatedFileSystem, batch) -> None:
    if batch[0] == "create":
        _, directory, entries = batch
        for name, size in entries:
            fs.create_file(f"{directory}/{name}", size)
    else:
        for path in batch[1]:
            fs.delete_file(path)


def _batched(fs: SimulatedFileSystem, batch) -> None:
    if batch[0] == "create":
        fs.create_files(batch[1], batch[2])
    else:
        fs.delete_files(batch[1])


def _state(fs: SimulatedFileSystem):
    node = fs.namenode
    return (
        node._files,
        node._dirs,
        {d: node.quota_usage(d) for d in sorted(node._quotas)},
        node.total_bytes,
        fs.telemetry.counters_with_prefix("storage.rpc."),
    )


class TestBatchOracle:
    @given(
        batches=st.lists(batch_strategy, min_size=1, max_size=12),
        outer=st.integers(min_value=1, max_value=14),
        inner=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=150)
    def test_batches_match_the_same_single_calls(self, batches, outer, inner):
        """Quota overflow, duplicate names, file-valued ancestors, missing
        deletes and negative sizes part-way through a batch leave the same
        namespace, quota usage, bytes, RPC counts and error as the single
        calls up to and including the failing one."""
        single, batched = SimulatedFileSystem(), SimulatedFileSystem()
        for fs in (single, batched):
            fs.set_quota("/q", outer)
            fs.set_quota("/q/a", inner)
        for batch in batches:
            expected = _outcome(lambda: _sequential(single, batch))
            assert _outcome(lambda: _batched(batched, batch)) == expected
            assert _state(batched) == _state(single)
            # The shared one-file path must be right too, not just agree.
            node = batched.namenode
            assert not node._files.keys() & node._dirs
            for directory in node._quotas:
                inside = sum(d.startswith(directory + "/") for d in node._dirs)
                recount = len(node.files_under(directory)) + inside
                assert node.quota_usage(directory)[0] == recount
