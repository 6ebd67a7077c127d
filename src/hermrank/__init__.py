"""Hermitian rank-metric codes over F_{q^2}: construction, encoding,
certified decoding, channels and brute-force oracles.

Quick start::

    from hermrank import build_params, encode, decode, Message

    params = build_params(q=2, n=5, d=3)
    msg = Message((params.ctx.zero,) * params.k)
    word = encode(params, msg)
    result = decode(params, word)
    assert result.ok and result.message == msg

This namespace is the public API.  Construction and decoder internals
(the basis search, the {1, eta} split, interpolation, the decoder's stages,
the modulus scan) live in their modules, hermrank.code, hermrank.codec,
hermrank.linpoly and hermrank.field, and may change without notice.
"""

from .channel import MODE_ARBITRARY, MODE_HERMITIAN, ChannelSpec, corrupt, random_rank_error
from .code import (
    CodeParams,
    build_params,
    codeword_to_matrix,
    is_hermitian,
    matrix_to_vector,
    params_from_json_obj,
    params_to_json_obj,
    rank_distance,
)
from .codec import DecodeResult, Message, decode, encode, random_message
from .exceptions import HermrankError
from .field import FieldContext, Felt, make_context
from .oracle import CodeTable, NearestResult, brute_min_distance, enumerate_code, nearest_codeword
from .rng import SplitMix64, substream_seed

__all__ = [
    "MODE_ARBITRARY",
    "MODE_HERMITIAN",
    "ChannelSpec",
    "CodeParams",
    "CodeTable",
    "DecodeResult",
    "Felt",
    "FieldContext",
    "HermrankError",
    "Message",
    "NearestResult",
    "SplitMix64",
    "brute_min_distance",
    "build_params",
    "codeword_to_matrix",
    "corrupt",
    "decode",
    "encode",
    "enumerate_code",
    "is_hermitian",
    "make_context",
    "matrix_to_vector",
    "nearest_codeword",
    "params_from_json_obj",
    "params_to_json_obj",
    "random_message",
    "random_rank_error",
    "rank_distance",
    "substream_seed",
]
