"""The text side: tokens, vocabularies and dataset files.

Walks a sentence through tokenize -> vocabulary -> padded id sequence and
back, and round-trips a dataset through its on-disk format.
"""

import tempfile
from pathlib import Path

from febench import (Dataset, LabeledExample, build_vocab, encode,
                     load_dataset, tokenize)
from febench.text import decode, save_dataset


def main():
    sentence = "The cat sat, the cat napped."
    tokens = tokenize(sentence)
    print(f"tokens: {tokens}")

    vocab = build_vocab([sentence, "the dog sat"], max_size=12)
    print(f"vocabulary ({vocab.size} entries): {vocab.tokens()}")

    ids, valid = encode(sentence, vocab, max_len=14)
    print(f"encoded ({valid} valid of {len(ids)}): {ids.tolist()}")
    print(f"decoded back: {decode(ids, vocab)}")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        dataset = Dataset(
            name="pets", task_kind="single_label", label_space=("cat", "dog"),
            train=(LabeledExample("the cat sat", frozenset({"cat"})),
                   LabeledExample("the dog sat", frozenset({"dog"}))),
            test=(LabeledExample("a cat napped", frozenset({"cat"})),))
        save_dataset(dataset, root / "pets")
        reloaded = load_dataset(root / "pets")
        print(f"dataset round-trip: {len(reloaded.train)} train docs, "
              f"labels {reloaded.label_space}, equal: {reloaded == dataset}")


if __name__ == "__main__":
    main()
