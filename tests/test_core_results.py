"""Tests for clustering result objects (repro.core.results)."""

from repro.core.results import ClusterInfo, ClusteringResult, build_result
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath


def transaction(tid: str):
    return make_transaction(tid, [make_synthetic_item(XMLPath.parse("r.a.S"), tid)])


def sample_result():
    rep0 = transaction("rep0")
    rep1 = transaction("rep1")
    members = [[transaction("a"), transaction("b")], [transaction("c")]]
    trash = [transaction("t")]
    return build_result(
        representatives=[rep0, rep1],
        members=members,
        trash_members=trash,
        iterations=4,
        converged=True,
        elapsed_seconds=1.5,
        simulated_seconds=0.7,
        network={"messages": 10.0},
        metadata={"algorithm": "CXK-means", "peers": 3},
    )


class TestClusterInfo:
    def test_size_and_member_ids(self):
        info = ClusterInfo(0, transaction("rep"), [transaction("a"), transaction("b")])
        assert info.size() == 2
        assert info.member_ids() == ["a", "b"]


class TestClusteringResult:
    def test_counts(self):
        result = sample_result()
        assert result.k == 2
        assert [len(cluster) for cluster in result.partition()] == [2, 1]
        assert result.trash_size() == 1

    def test_assignments_with_and_without_trash(self):
        result = sample_result()
        assignments = result.assignments()
        assert assignments == {"a": 0, "b": 0, "c": 1}
        with_trash = result.assignments(include_trash=True)
        assert with_trash["t"] == -1

    def test_partition_layout(self):
        result = sample_result()
        assert result.partition() == [["a", "b"], ["c"]]
        assert result.partition(include_trash=True)[-1] == ["t"]

    def test_representatives_are_exposed(self):
        result = sample_result()
        reps = result.representatives()
        assert [r.transaction_id for r in reps] == ["rep0", "rep1"]

    def test_network_and_timing_are_kept(self):
        result = sample_result()
        assert result.iterations == 4
        assert result.converged is True
        assert result.elapsed_seconds == 1.5
        assert result.simulated_seconds == 0.7
        assert result.network == {"messages": 10.0}

    def test_metadata_is_preserved(self):
        result = sample_result()
        assert result.metadata["algorithm"] == "CXK-means"
        assert result.metadata["peers"] == 3
