"""Tests for tokenization, stopwords and the Porter stemmer (repro.text)."""

import pytest

from repro.text.preprocess import PreprocessingConfig, TextPreprocessor
from repro.text.stemmer import PorterStemmer, stem
from repro.text.stopwords import ENGLISH_STOPWORDS, default_stopwords, remove_stopwords
from repro.text.tokenize import tokenize


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_punctuation_is_dropped(self):
        assert tokenize("XRules: an effective, structural classifier!") == [
            "xrules", "an", "effective", "structural", "classifier",
        ]

    def test_numbers_are_dropped_by_default(self):
        assert tokenize("pages 316-325 in 2003") == ["pages", "in"]

    def test_numbers_can_be_kept(self):
        assert tokenize("year 2003", keep_numbers=True) == ["year", "2003"]

    def test_short_tokens_are_dropped(self):
        assert tokenize("a b cd", min_length=2) == ["cd"]

    def test_min_length_is_configurable(self):
        assert tokenize("a b cd", min_length=1) == ["a", "b", "cd"]

    def test_apostrophes_are_trimmed(self):
        assert tokenize("king's 'quoted'") == ["king's", "quoted"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_duplicates_are_preserved_in_order(self):
        assert tokenize("data data mining data") == ["data", "data", "mining", "data"]


class TestStopwords:
    def test_common_function_words_are_stopwords(self):
        for word in ("the", "and", "of", "with", "is"):
            assert word in ENGLISH_STOPWORDS

    def test_domain_noise_is_included_in_default_set(self):
        assert "proc" in default_stopwords()
        assert "vol" in default_stopwords()

    def test_remove_stopwords_filters(self):
        assert remove_stopwords(["the", "tree", "of", "life"]) == ["tree", "life"]

    def test_remove_stopwords_with_custom_set(self):
        assert remove_stopwords(["x", "y"], stopwords=frozenset({"x"})) == ["y"]

    def test_content_words_are_not_stopwords(self):
        for word in ("clustering", "xml", "transaction"):
            assert word not in default_stopwords()


class TestPorterStemmer:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("happy", "happi"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("feudalism", "feudal"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formality", "formal"),
            ("sensitivity", "sensit"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("adoption", "adopt"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("effective", "effect"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("controlling", "control"),
            ("rolling", "roll"),
            ("native", "nativ"),
            ("ace", "ac"),
        ],
    )
    def test_reference_vocabulary(self, word, expected):
        assert stem(word) == expected

    def test_short_words_are_unchanged(self):
        assert stem("is") == "is"
        assert stem("xy") == "xy"

    def test_stemmer_is_idempotent_on_common_words(self):
        for word in ("clustering", "documents", "similarity", "transaction"):
            once = stem(word)
            assert stem(once) == once

    def test_memo_stays_within_its_cap(self, monkeypatch):
        from repro.text import stemmer

        monkeypatch.setattr(stemmer, "_STEM_CACHE", {})
        monkeypatch.setattr(stemmer, "_STEM_CACHE_CAP", 2)
        words = ["clustering", "documents", "trees", "mining", "clustering"]
        expected = ["cluster", "document", "tree", "mine", "cluster"]
        assert [stem(word) for word in words] == expected
        assert 0 < len(stemmer._STEM_CACHE) <= 2

    def test_stemmer_instance_matches_module_function(self):
        stemmer = PorterStemmer()
        assert stemmer.stem("clustering") == stem("clustering")


class TestPreprocessor:
    def test_full_pipeline(self):
        processor = TextPreprocessor()
        terms = processor.process("The Clustering of XML Documents in 2003!")
        assert terms == ["cluster", "xml", "document"]

    def test_stopword_removal_can_be_disabled(self):
        processor = TextPreprocessor(PreprocessingConfig(remove_stopwords=False, stem=False))
        assert "the" in processor.process("the tree")

    def test_stemming_can_be_disabled(self):
        processor = TextPreprocessor(PreprocessingConfig(stem=False))
        assert processor.process("clustering documents") == ["clustering", "documents"]

    def test_custom_stopwords(self):
        processor = TextPreprocessor(
            PreprocessingConfig(stopwords=frozenset({"xml"}), stem=False)
        )
        assert processor.process("xml clustering") == ["clustering"]

    def test_numbers_kept_when_configured(self):
        processor = TextPreprocessor(PreprocessingConfig(keep_numbers=True, stem=False))
        assert "2003" in processor.process("year 2003")
