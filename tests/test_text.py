"""Tokenizer, vocabulary, encoding and dataset files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from febench.text import (CLS_ID, PAD_ID, SEP_ID, UNK_ID, Dataset,
                          DatasetFormatError, LabeledExample, build_vocab,
                          decode, encode, load_dataset, save_dataset,
                          tokenize)


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("Hello, world") == ["hello", ",", "world"]

    def test_punctuation_runs_split_per_character(self):
        assert tokenize("wait...") == ["wait", ".", ".", "."]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []


class TestVocabulary:
    def test_reserved_ids(self):
        v = build_vocab(["a b", "a c"], max_size=10)
        assert v.id_of("<pad>") == PAD_ID
        assert v.id_of("<unk>") == UNK_ID
        assert v.id_of("<cls>") == CLS_ID
        assert v.id_of("<sep>") == SEP_ID

    def test_frequency_then_lexicographic_order(self):
        v = build_vocab(["a b", "a c"], max_size=10)
        assert v.id_of("a") == 4
        assert v.id_of("b") == 5
        assert v.id_of("c") == 6
        assert v.size == 7

    def test_max_size_truncates_by_frequency(self):
        v = build_vocab(["a b", "a c"], max_size=5)
        assert "a" in v.token_to_id
        assert "b" not in v.token_to_id and "c" not in v.token_to_id

    def test_unknown_token_maps_to_unk(self):
        v = build_vocab(["a"], max_size=10)
        assert v.id_of("zebra") == UNK_ID

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], max_size=10)

    def test_max_size_must_fit_reserved(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], max_size=4)

    def test_tokens_in_id_order(self):
        v = build_vocab(["b a a"], max_size=10)
        assert v.tokens() == ["<pad>", "<unk>", "<cls>", "<sep>", "a", "b"]


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["hello , world again"], max_size=20)

    def test_wrap_and_pad(self, vocab):
        ids, valid = encode("Hello, world", vocab, max_len=6)
        assert ids[0] == CLS_ID
        assert ids[4] == SEP_ID
        assert ids[5] == PAD_ID
        assert valid == 5
        assert decode(ids, vocab) == ["hello", ",", "world"]

    def test_unknown_token_becomes_unk(self, vocab):
        ids, _ = encode("hello mars", vocab, max_len=8)
        assert ids[2] == UNK_ID

    def test_long_input_truncates_keeping_sep(self, vocab):
        text = " ".join(["hello"] * 300)
        ids, valid = encode(text, vocab, max_len=200)
        assert len(ids) == 200
        assert ids[-1] == SEP_ID
        assert valid == 200

    def test_empty_text(self, vocab):
        ids, valid = encode("", vocab, max_len=5)
        np.testing.assert_array_equal(ids, [CLS_ID, SEP_ID, PAD_ID, PAD_ID, PAD_ID])
        assert valid == 2

    def test_max_len_minimum(self, vocab):
        with pytest.raises(ValueError):
            encode("hello", vocab, max_len=2)

    @given(st.text(max_size=400), st.integers(min_value=3, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_output_length_always_max_len(self, text, max_len):
        vocab = build_vocab(["hello world"], max_size=10)
        ids, valid = encode(text, vocab, max_len=max_len)
        assert len(ids) == max_len
        assert 2 <= valid <= max_len
        assert np.all(ids[valid:] == PAD_ID)
        assert np.all(ids[:valid] != PAD_ID)

    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "."]),
                    min_size=0, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_decode_inverts_encode_up_to_truncation(self, words):
        vocab = build_vocab(["alpha beta gamma ."], max_size=10)
        text = " ".join(words)
        ids, _ = encode(text, vocab, max_len=16)
        assert decode(ids, vocab) == tokenize(text)[:14]


class TestDatasetFiles:
    def _write(self, tmp_path, train_lines, test_lines):
        (tmp_path / "train.jsonl").write_text("\n".join(train_lines) + "\n")
        (tmp_path / "test.jsonl").write_text("\n".join(test_lines) + "\n")

    def test_single_label_inference(self, tmp_path):
        self._write(tmp_path,
                    ['{"text": "t", "labels": ["a"]}'],
                    ['{"text": "u", "labels": ["a"]}'])
        ds = load_dataset(tmp_path)
        assert ds.task_kind == "single_label"
        assert ds.label_space == ("a",)
        assert len(ds.train) == 1 and len(ds.test) == 1

    def test_multi_label_inference_and_sorted_space(self, tmp_path):
        self._write(tmp_path,
                    ['{"text": "t", "labels": ["b"]}',
                     '{"text": "u", "labels": ["b", "a"]}'],
                    ['{"text": "v", "labels": ["a"]}'])
        ds = load_dataset(tmp_path)
        assert ds.task_kind == "multi_label"
        assert ds.label_space == ("a", "b")

    def test_malformed_line_names_location(self, tmp_path):
        lines = ['{"text": "ok", "labels": ["a"]}'] * 6 + ["{broken"]
        self._write(tmp_path, lines, ['{"text": "u", "labels": ["a"]}'])
        with pytest.raises(DatasetFormatError, match=r"train\.jsonl:7"):
            load_dataset(tmp_path)

    def test_empty_labels_rejected(self, tmp_path):
        self._write(tmp_path, ['{"text": "t", "labels": []}'],
                    ['{"text": "u", "labels": ["a"]}'])
        with pytest.raises(DatasetFormatError, match="empty label"):
            load_dataset(tmp_path)

    def test_jsonl_round_trip(self, tmp_path):
        self._write(tmp_path,
                    ['{"text": "some, text", "labels": ["x", "y"]}',
                     '{"text": "c", "labels": ["x"]}'],
                    ['{"text": "d", "labels": ["y"]}'])
        ds = load_dataset(tmp_path)
        save_dataset(ds, tmp_path / "copy")
        assert load_dataset(tmp_path / "copy") == ds

    def test_missing_split_file(self, tmp_path):
        (tmp_path / "train.jsonl").write_text('{"text": "t", "labels": ["a"]}\n')
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_single_label_dataset_rejects_multi_label_example(self):
        with pytest.raises(ValueError):
            Dataset(name="bad", task_kind="single_label", label_space=("a", "b"),
                    train=(LabeledExample("t", frozenset({"a", "b"})),), test=())
