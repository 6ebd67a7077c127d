"""Hermitian rank-metric codes over F_{q^2}: construction, encoding,
certified decoding, channels and brute-force oracles.

Quick start::

    from hermrank import build_params, encode, decode, Message

    params = build_params(q=2, n=5, d=3)
    msg = Message((params.ctx.zero,) * params.k)
    word = encode(params, msg)
    result = decode(params, word)
    assert result.ok and result.message == msg
"""

from .channel import MODE_ARBITRARY, MODE_HERMITIAN, ChannelSpec, corrupt, random_rank_error
from .code import (
    CodeParams,
    build_params,
    choose_eta,
    codeword_to_matrix,
    decompose_eta,
    find_selfdual_basis,
    is_hermitian,
    matrix_to_vector,
    params_from_json_obj,
    params_to_json_obj,
    rank_distance,
    unitary_pairing,
)
from .codec import (
    DecodeResult,
    Message,
    beta_split,
    complete_g,
    decode,
    encode,
    expand_message,
    extract_message,
    random_message,
    skew_bm,
)
from .exceptions import HermrankError
from .field import FieldContext, Felt, canonical_modulus, make_context
from .linpoly import lp_interpolate
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
    "beta_split",
    "brute_min_distance",
    "build_params",
    "canonical_modulus",
    "choose_eta",
    "codeword_to_matrix",
    "complete_g",
    "corrupt",
    "decode",
    "decompose_eta",
    "encode",
    "enumerate_code",
    "expand_message",
    "extract_message",
    "find_selfdual_basis",
    "is_hermitian",
    "lp_interpolate",
    "make_context",
    "matrix_to_vector",
    "nearest_codeword",
    "params_from_json_obj",
    "params_to_json_obj",
    "random_message",
    "random_rank_error",
    "rank_distance",
    "skew_bm",
    "substream_seed",
    "unitary_pairing",
]
