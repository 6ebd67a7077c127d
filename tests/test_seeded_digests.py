"""Pinned SHA-256 digests of seeded outputs.

Every seeded output of the package (messages, channel errors, corrupted
words, decode results, simulate reports) is meant to stay byte-identical
across changes that do not announce otherwise.  Each digest below hashes
the canonical JSON (sorted keys, no whitespace) of a fixed batch of such
outputs, so a change to any drawn value, to the RNG's draw order or to the
JSON form fails here.  Decode results are hashed with their diagnostics in the order
decode wrote them, so reasons, candidate counts, ranks and key order are
all pinned.  A change that alters seeded output on purpose must say so and
re-pin the digests.
"""

import hashlib
import json

import pytest

from hermrank import MODE_ARBITRARY, MODE_HERMITIAN, ChannelSpec, SplitMix64, corrupt, decode, encode
from hermrank import params_to_json_obj, random_message, random_rank_error
from hermrank.cli import main
from hermrank.codec import decode_result_to_json_obj, message_to_json_obj, word_to_json_obj

# (2,31,15) is the benchmark's q = 2 point, the register at t = 7 on 62-bit
# elements; at (2,5,3) 2n = 10 leaves a table group of linear maps partly
# padding
PINNED = {
    (2, 5, 3): {
        "corrupt/arbitrary": "0789b8cf59011b3b0acef57c999a413f63c45c1652b7e93950bd1a29ec2ee32d",
        "corrupt/hermitian": "85f15dfae7b0b7182c7f043ffc10a7c1d7489f7f1080ee3ae8d51c29ca38da5d",
        "decode/arbitrary": "80f058b1bf2648564e546a02b7a0c2e55bbe925eb1c949f8ec436faf06ba7bbe",
        "decode/hermitian": "d2039431f0c56dc2d8d3a25d7c3396dcd3c45f9236a3b601fdc84bcc7a800b97",
        "decode/uniform": "7d16d702a129ea3118d7de1d7b8556c164628cd8036528e53aeea7b3cb3d5283",
        "params": "36b82e79380272873f1c7120f9e2d88947cca4365904a6fe3f2a62e1aaa1c401",
        "random_message": "e5e84232b3913cc4c2b4fd0e9e2866bc987805d8f7f4e9d4b1c4ed40d85b9d58",
        "random_rank_error/arbitrary": "d40c687c75f24b1f86894c44d123a8d1d3971a7bd1eed859f23b92e5437210b9",
        "random_rank_error/hermitian": "5280277287f39a2a875e5a528967633f901dae881d24b72c1b49cffff7506125",
        "simulate/arbitrary": "a32bfbc585229cd955ac1326e64f645c53c2a3cbe814e3d1370f3a3d337bc028",
        "simulate/hermitian": "c48595159c92de048f7414989b82899b79f4726f93b3fda772723257a1a18bf6",
    },
    (2, 7, 5): {
        "corrupt/arbitrary": "f43a7b87b91a25572f6f00e2a3c494f4256d2962152c977402498aa82b967e1c",
        "corrupt/hermitian": "eaedad3611d56c161ae1e4d881989116b210e99b8a5e1819326e7e6ee35b5782",
        "decode/arbitrary": "bd040de8353bf617f3db6298f49e715095d03983aa95227b9d4894c8f0bc38da",
        "decode/hermitian": "4618e39e337812ed2350be9ceea86a352c513ba618ec3ba805898377a82a1d17",
        "decode/uniform": "37fc4ba17edad68baf9db893b9df4eb340b9a5a8448f564277258dfe9d7f75cd",
        "params": "ee1ba782743172fd1464d240a3cde14779ee4b9a4545fae70d30161ee4a43a61",
        "random_message": "3d646ba4b8de273390aad3173a64aa3b8d68aee336de15d25a784ab20fc9a56d",
        "random_rank_error/arbitrary": "824aa7396a986e5a6d7200a87367df3de2148080245a4a9518bba7f95ac972aa",
        "random_rank_error/hermitian": "e9484f4009f00892879e5c567f5994e4973c904e2bf2b0b1870f2028f840c63f",
        "simulate/arbitrary": "e6904dc08ebc34fed29717ecce1c697e6534bed6d311b21662c92248759d1c09",
        "simulate/hermitian": "1659b9764b0ff41afd5111712a065bcf721fb1208711ebd048d35ce4317eaf7e",
    },
    (2, 31, 15): {
        "corrupt/arbitrary": "099533dc7145497e0cdb1a4d8d905398e63a190947af0c72d7b82e83b00ccff2",
        "corrupt/hermitian": "217ac3af879f1478d0f8a9430571fc235156856eb5f0bd55815552c0340e287a",
        "decode/arbitrary": "cf098f256f45d3ccf7c1f546b1f7d4b9f8ee98b867ec6f026d85d95e52425307",
        "decode/hermitian": "cf098f256f45d3ccf7c1f546b1f7d4b9f8ee98b867ec6f026d85d95e52425307",
        "decode/uniform": "8d203e169bef2a820d76607869a5bae2b90ada2831c0e4cf5082d20a6e50da79",
        "params": "d12587cf10206dcdf6c18bf123b9bf3289ec4f00b08d042f16e176a3d5948a11",
        "random_message": "fbc98b730fa37873be7023ce99f2f949fad1eb5ded61841095310f10c9aa8c15",
        "random_rank_error/arbitrary": "cbad2a7516ad0e4bc51e9d017c4962360cee05ff284537bf7b1a1ae1d60c3004",
        "random_rank_error/hermitian": "0dde225910883b75f835d139eca6891ebb303b17254ac1c08825c6cd7750584f",
        "simulate/arbitrary": "b2008250de7f26e2e396ea66e055d9a4c2d41f071b8a1f99785638cec51ddc3e",
        "simulate/hermitian": "4233722c94d533022ff405b39c05db663821adcc8953e7f768d4be511051d2f1",
    },
    (3, 5, 3): {
        "corrupt/arbitrary": "172f9a613a39be5ea76f77c8be94de378ba5c4b1852fdfb66aaf679fd823fded",
        "corrupt/hermitian": "727a8afd208d2f47d47369efb02edc31f1542a7a0bb980e6d45efa9d49a12d2f",
        "decode/arbitrary": "7eed99c1a1ff045d2e9842976ca9d7053d678ca2c1bde6b932300236369e920a",
        "decode/hermitian": "204f479e1c4cbe9a9528358bd5281d7cb2acf10adc144f0d334d84c2e4dc1c4e",
        "decode/uniform": "7d16d702a129ea3118d7de1d7b8556c164628cd8036528e53aeea7b3cb3d5283",
        "params": "d47b524ad6cb81deb6b85cb0e57c10148df87c57ae3bf7eba2b7f262d321aeea",
        "random_message": "4c8b9bb74cb59932a6f25bd32786afde6de9ce038dcb379a68446ea42a5c1436",
        "random_rank_error/arbitrary": "724e8b99152bb02a6aa82fba04f99c6049e11d4d45372fbdb18ed76ff66855fa",
        "random_rank_error/hermitian": "ca9941cc21ffe2ff709c09cd972e609b4d0f96aa9f2d78f6a84e5a759bb9402d",
        "simulate/arbitrary": "ca165a7b454e4873cf986600359f5b57eae3b9085afbb1d6d12b4e8ce4d023ab",
        "simulate/hermitian": "5591ec14e94a39a759936c6a063406ab90a3c5395b4b0f5e55f31f70e8a9b5af",
    },
    (5, 7, 5): {
        "corrupt/arbitrary": "ec03c34486467e89100091486f7d8da63149c142dc5175ef6463bd99a0917704",
        "corrupt/hermitian": "f6cdbde6622d983d45a06522b8b28ae3e844319a41e0b733b1c906b578a93882",
        "decode/arbitrary": "525eef807cfb49a1a6ba704dce2f047da96303e35e95d20855ec03ded4012abd",
        "decode/hermitian": "525eef807cfb49a1a6ba704dce2f047da96303e35e95d20855ec03ded4012abd",
        "decode/uniform": "37fc4ba17edad68baf9db893b9df4eb340b9a5a8448f564277258dfe9d7f75cd",
        "params": "51d22d3f16be0503dc094429ed7f7e452c5c46810fa80d156732c6c40ff36ae1",
        "random_message": "d38d9314d790842359a4113471a2c71623ee581e4dc2bdaa372a138ecd36008f",
        "random_rank_error/arbitrary": "3822ef61c7ff713b40a36687640589b554e13e16f563599cd91a291df222c543",
        "random_rank_error/hermitian": "7678b6b32bd553f72bf9d1c76ac3d381462db5e44925d78eaf04ad025e57da96",
        "simulate/arbitrary": "a0d0841d23bb4ba5099ad0efe6d40c3107edca6d64e417ed8ce000e0414cf34c",
        "simulate/hermitian": "d8a91771c545361c3b29ad70e0c11e27984d95aff5cf00e7534ab12c1ba32e2e",
    },
}


def _digest(obj, sort_keys=True) -> str:
    text = json.dumps(obj, sort_keys=sort_keys, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _decoded(p, words) -> str:
    return _digest([decode_result_to_json_obj(p, decode(p, w)) for w in words], sort_keys=False)


def _seeded_outputs(p, tmp_path) -> dict:
    ctx, n, r = p.ctx, p.n, p.radius
    ranks = sorted({1, r, r + 1, n})
    out = {"params": _digest(params_to_json_obj(p))}
    msgs = [random_message(p, SplitMix64(seed)) for seed in range(6)]
    out["random_message"] = _digest([message_to_json_obj(p, m) for m in msgs])
    for mode in (MODE_ARBITRARY, MODE_HERMITIAN):
        errs = [
            random_rank_error(p, ChannelSpec(t=t, mode=mode, seed=seed))
            for t in ranks
            for seed in (0, 1, 2)
        ]
        out[f"random_rank_error/{mode}"] = _digest([word_to_json_obj(p, e) for e in errs])
        words = [
            corrupt(ctx, encode(p, m), random_rank_error(p, ChannelSpec(t=r, mode=mode, seed=7 + i)))
            for i, m in enumerate(msgs)
        ]
        out[f"corrupt/{mode}"] = _digest([word_to_json_obj(p, w) for w in words])
        # channel words at the radius and on either side of it
        out[f"decode/{mode}"] = _decoded(p, [
            corrupt(ctx, encode(p, msgs[seed]), random_rank_error(p, ChannelSpec(t=t, mode=mode, seed=20 + seed)))
            for t in (0, r, r + 1, r + 2)
            for seed in range(3)
        ])
        report = tmp_path / f"simulate-{mode}.json"
        q, n, d = ctx.q, p.n, p.d
        argv = ["simulate", "--q", str(q), "--n", str(n), "--d", str(d), "--trials", "3",
                "--ranks", f"0-{r + 1}", "--seed", "11", "--mode", mode, "--out", str(report)]
        assert main(argv) == 0
        out[f"simulate/{mode}"] = _digest(json.loads(report.read_text()))
    rng = SplitMix64(31)
    out["decode/uniform"] = _decoded(p, [
        tuple(ctx.from_coeffs([rng.below(ctx.q) for _ in range(ctx.deg)]) for _ in range(n))
        for _ in range(20)
    ])
    return out


@pytest.mark.parametrize("point", sorted(PINNED))
def test_seeded_outputs_match_pinned_digests(point, params_for, tmp_path):
    assert _seeded_outputs(params_for(*point), tmp_path) == PINNED[point]
