"""Tests for transactions and the dataset builder (repro.transactions)."""

import pytest

from repro.transactions.builder import BuilderConfig, TransactionDatasetBuilder, build_dataset
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import Transaction, make_transaction, union_size
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.paths import XMLPath


class TestTransactionObject:
    def test_make_transaction_sorts_items_by_path(self):
        items = [
            make_synthetic_item(XMLPath.parse("z.b.S"), "2"),
            make_synthetic_item(XMLPath.parse("a.b.S"), "1"),
        ]
        transaction = make_transaction("t", items)
        assert [str(item.path) for item in transaction.items] == ["a.b.S", "z.b.S"]

    def test_container_protocol(self):
        item = make_synthetic_item(XMLPath.parse("a.b.S"), "1")
        transaction = make_transaction("t", [item])
        assert len(transaction) == 1
        assert item in transaction
        assert list(transaction) == [item]
        assert not transaction.is_empty()
        assert Transaction("empty", ()).is_empty()

    def test_union_size_merges_equal_items(self):
        shared = make_synthetic_item(XMLPath.parse("a.b.S"), "same")
        only_first = make_synthetic_item(XMLPath.parse("a.c.S"), "x")
        only_second = make_synthetic_item(XMLPath.parse("a.d.S"), "y")
        tr1 = make_transaction("t1", [shared, only_first])
        tr2 = make_transaction("t2", [shared, only_second])
        assert union_size(tr1, tr2) == 3

    def test_with_items_keeps_metadata(self):
        transaction = make_transaction("t", [], doc_id="d", tuple_id="tt")
        updated = transaction.with_items([make_synthetic_item(XMLPath.parse("a.S"), "1")])
        assert updated.doc_id == "d" and updated.tuple_id == "tt"
        assert len(updated) == 1


class TestBuilderOnPaperExample:
    def test_transaction_and_item_counts_match_figure4(self, paper_tree):
        dataset = build_dataset("paper", [paper_tree])
        # Fig. 4(c): three transactions of six items each over eleven items
        assert len(dataset) == 3
        assert all(len(transaction) == 6 for transaction in dataset)
        assert dataset.item_count() == 11

    def test_shared_items_have_same_identity(self, paper_tree):
        dataset = build_dataset("paper", [paper_tree])
        booktitle = XMLPath.parse("dblp.inproceedings.booktitle.S")
        ids = {
            item.item_id for transaction in dataset for item in transaction if item.path == booktitle
        }
        # item e5 ('KDD') is shared by all three transactions
        assert len(ids) == 1

    def test_distinct_answers_get_distinct_items(self, paper_tree):
        dataset = build_dataset("paper", [paper_tree])
        author = XMLPath.parse("dblp.inproceedings.author.S")
        answers = {
            item.answer for transaction in dataset for item in transaction if item.path == author
        }
        assert answers == {"M.J. Zaki", "C.C. Aggarwal"}

    def test_transaction_provenance(self, paper_tree):
        dataset = build_dataset("paper", [paper_tree])
        assert {transaction.doc_id for transaction in dataset} == {"dblp-example"}
        assert all(
            transaction.transaction_id == transaction.tuple_id for transaction in dataset
        )

    def test_summary_figures(self, paper_tree):
        dataset = build_dataset("paper", [paper_tree])
        summary = dataset.summary()
        assert summary["documents"] == 1
        assert summary["transactions"] == 3
        assert summary["distinct_items"] == 11
        assert summary["max_transaction_length"] == 6
        assert summary["vocabulary"] > 0


class TestBuilderBehaviour:
    def test_doc_labels_are_projected_onto_transactions(self, mini_corpus):
        trees, labels = mini_corpus
        dataset = build_dataset("mini", trees, doc_labels=labels)
        content = dataset.labels_for("content")
        assert set(content) == {t.transaction_id for t in dataset}
        sample = dataset.transactions[0]
        assert content[sample.transaction_id] == labels["content"][sample.doc_id]

    def test_items_carry_ttf_itf_vectors(self, mini_dataset):
        vectored = [
            item
            for transaction in mini_dataset
            for item in transaction.items
            if len(item.vector) > 0
        ]
        assert vectored, "at least some items must have non-empty TCU vectors"

    def test_shared_item_vector_is_average_of_occurrences(self):
        # the same (path, answer) appears in two documents with different
        # ttf.itf contexts; the stored vector must be the occurrence average
        xml_a = "<r><t>alpha beta</t><u>gamma</u></r>"
        xml_b = "<r><t>alpha beta</t><u>delta epsilon zeta</u></r>"
        dataset = build_dataset(
            "shared", [parse_xml(xml_a, doc_id="a"), parse_xml(xml_b, doc_id="b")]
        )
        path = XMLPath.parse("r.t.S")
        assert len(dataset.transactions) == 2
        # both transactions reference the same averaged item object
        first, second = [item for tr in dataset for item in tr.items if item.path == path]
        assert first.answer == "alpha beta"
        assert first is second is dataset.item_domain.get(first.item_id)

    def test_max_tuples_per_document_limit(self):
        xml = "<r>" + "".join(f"<a>v{i}</a>" for i in range(5)) + "".join(
            f"<b>w{i}</b>" for i in range(5)
        ) + "</r>"
        config = BuilderConfig(max_tuples_per_document=4)
        dataset = TransactionDatasetBuilder("limited", config).build(
            [parse_xml(xml, doc_id="big")]
        )
        assert len(dataset) == 4

    def test_empty_transactions_are_dropped_by_default(self):
        # a document whose only leaves produce no index terms (pure numbers)
        dataset = build_dataset("empty", [parse_xml("<r><n>123</n></r>", doc_id="d")])
        assert len(dataset) == 1  # transaction kept: it still has the item
        # but a truly leafless document cannot exist (parser requires content)

    def test_split_wraps_chunks(self, mini_dataset):
        chunks = [mini_dataset.transactions[:2], mini_dataset.transactions[2:5]]
        parts = mini_dataset.split(chunks)
        assert [len(p) for p in parts] == [2, 3]
        assert parts[0].statistics is mini_dataset.statistics

    def test_document_ids_order(self, mini_dataset):
        doc_ids = mini_dataset.document_ids()
        assert doc_ids[0] == "doc000"
        assert len(doc_ids) == 16
