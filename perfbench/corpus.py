"""Seeded synthetic instruction corpora for the benchmark.

The grammar is a copy of the test suite's smoke corpus, kept here so the
benchmark depends only on the package's public API and on its own files.
"""

from __future__ import annotations

import numpy as np

NOUNS = ["ember", "stone", "river", "cloud", "sprout", "quartz", "harbor", "willow"]
VERBS = ["echo", "twin", "join", "flip"]


def grammar_pairs(n: int, rng: np.random.Generator) -> list[tuple[str, str]]:
    """(instruction, output) pairs with byte-level regularities to learn."""
    out = []
    for _ in range(n):
        noun = NOUNS[rng.integers(len(NOUNS))]
        other = NOUNS[rng.integers(len(NOUNS))]
        verb = VERBS[rng.integers(len(VERBS))]
        answer = {"echo": noun, "twin": f"{noun} {noun}", "join": f"{noun}-{other}",
                  "flip": noun[::-1]}[verb]
        out.append((f"{verb} the word {noun} with {other}", answer))
    return out


def long_pairs(n: int, pairs_per_example: int, rng: np.random.Generator) -> list[tuple[str, str]]:
    """Several grammar pairs joined into each example.

    With enough pairs the encoded example overflows ``max_seq_len`` and the
    tokenizer trims the instruction from the left, so every sequence runs at
    or near the model's maximum length.
    """
    out = []
    for _ in range(n):
        pairs = grammar_pairs(pairs_per_example, rng)
        out.append(("; ".join(i for i, _ in pairs), "; ".join(o for _, o in pairs)))
    return out
