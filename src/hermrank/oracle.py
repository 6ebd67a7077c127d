"""Brute-force references for small codes: enumeration, distance, nearest.

Nothing here is clever on purpose.  These routines exist to check the
algebraic machinery against exhaustive ground truth at desk-scale
parameters, so they enumerate the full code and scan it linearly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .code import CodeParams, rank_distance
from .codec import Message, encode
from .exceptions import TooLargeToEnumerateError
from .field import Felt

#: Refuse to enumerate codes with more words than this.
DEFAULT_ENUM_LIMIT = 1 << 20


@dataclass(frozen=True)
class CodeTable:
    """All codewords with their generating messages, in message order."""

    messages: tuple
    words: tuple


def code_size(params: CodeParams) -> int:
    """Number of codewords: one per message of k elements of F_{q^n}."""
    return (params.ctx.q ** params.ctx.n) ** params.k


def enumerate_code(params: CodeParams, limit: int = DEFAULT_ENUM_LIMIT) -> CodeTable:
    """Every codeword, one per message; message components range over all of
    F_{q^n} in the canonical element order."""
    ctx = params.ctx
    total = code_size(params)
    if total > limit:
        raise TooLargeToEnumerateError(
            f"code has {total} words, enumeration capped at {limit}"
        )
    elems = ctx.subfield_elements(ctx.n)
    messages = []
    words = []
    for combo in itertools.product(elems, repeat=params.k):
        msg = Message(tuple(combo))
        messages.append(msg)
        words.append(encode(params, msg))
    if len(set(words)) != total:  # pragma: no cover - encoder injectivity
        raise RuntimeError("enumeration produced duplicate codewords")
    return CodeTable(messages=tuple(messages), words=tuple(words))


def brute_min_distance(params: CodeParams, limit: int = DEFAULT_ENUM_LIMIT) -> int:
    """Minimum rank over nonzero codewords; additivity of the code turns the
    pairwise minimum distance into the minimum nonzero weight."""
    table = enumerate_code(params, limit)
    zero = (params.ctx.zero,) * params.n
    best = params.n + 1
    for word in table.words:
        if word == zero:
            continue
        r = rank_distance(params, word, zero)
        if r < best:
            best = r
    return best


@dataclass(frozen=True)
class NearestResult:
    word: tuple
    message: Message
    distance: int
    ties: int  # codewords achieving the minimum distance


def nearest_codeword(params: CodeParams, table: CodeTable, received: Sequence[Felt]) -> NearestResult:
    """Closest codeword by linear scan; ties can only occur past the
    unique-decoding radius and are counted rather than resolved."""
    best_idx = 0
    best = params.n + 1
    ties = 0
    for idx, word in enumerate(table.words):
        dist = rank_distance(params, received, word)
        if dist < best:
            best = dist
            best_idx = idx
            ties = 1
        elif dist == best:
            ties += 1
    return NearestResult(
        word=table.words[best_idx],
        message=table.messages[best_idx],
        distance=best,
        ties=ties,
    )
