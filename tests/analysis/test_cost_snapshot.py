"""Snapshot of the static cost outputs: byte-identical or a named change.

Each digest is the sha256 of what a command prints, recorded before the
walker folded software counted loops and carried its costs as plain
integers; both changes must leave every byte alone.  A deliberate change
to the analysis, its JSON or the kernels it prices updates a digest here
and says why in CHANGES.md.

* ``repro cost --kernel K --json`` for every catalog point;
* ``repro cost --network mixed3 --json``;
* the compiled mixed3 conv tile choices (``th``, ``tw``, ``cg`` and the
  static price of the pick) on the default 8-core target, which the
  static model ranks.
"""

import hashlib
import json

import pytest

from repro.analysis.catalog import catalog_kernel_names
from repro.cli import main

KERNEL_DIGESTS = {
    "matmul-8b-xpulpnn-shift":
        "46ba024cc8411e7634299182f5af97a6c2271e11bc9204c336372a5f0ca5fcc3",
    "matmul-8b-ri5cy-shift":
        "3519d4fb7b9b6e0b5a59cab0736b07140b02cb2b230e776e4610296a495aca4e",
    "matmul-4b-xpulpnn-hw":
        "8eb19ca622928f73deab8ce9fd742664b11a5b0c1d6314145bea3195c52b0365",
    "matmul-4b-xpulpnn-sw":
        "6c2228feca482c0b5e7d61ffb901e24a72b876abaf16821539688f29892f3f35",
    "matmul-4b-ri5cy-sw":
        "edb04ebf7b103853ed4057f39991b3b827f5249123cc3e112594de749b172d0a",
    "matmul-2b-xpulpnn-hw":
        "02eb3592525a515a38deadd2e6588bb8bf41cd9ae1122577c2f25dfbe7005acd",
    "matmul-2b-ri5cy-sw":
        "b2eb4444776ed58bc74abc472cee1510b2f580c7d51e7a184784074f1475b3f9",
    "matmul-4b-xpulpnn-4x2":
        "bc15dd7fbb89f4159f1c534b591f17d063c9a7d5bf13db711930c32fd9ea735c",
    "conv-8b-xpulpnn-shift":
        "a152254b9950d5807b05ffdf91c48a9f0d51073292edd666ceba0adc713f1dfd",
    "conv-8b-ri5cy-shift":
        "0091cf9d62fe150b7a09b4ca61a62808f759728715cf7d0bb3c1b2282742e84c",
    "conv-4b-xpulpnn-hw":
        "21a352d294d68a5bfc80a5ed8d1f4cd0199916f6dc78a237494657b63abba6a6",
    "conv-4b-ri5cy-sw":
        "c04bb2c986ef09d9e21dcb0cd962b93838765dfac4f8fc979c57078be761be87",
    "conv-2b-xpulpnn-hw":
        "ded35afb4b832ed173f80e0b667d5e9d10586312dc3a5010a5049b3a422ea989",
    "depthwise-8b":
        "8e0eb49af2d4baecf4888d191b2cd7df92b283b9e3c2aecc0abe4c4db0b803d1",
    "pool-max-8b":
        "63a9b13562d42b974a51116ff624058f041137f8b15a857733369c8c332d87d7",
    "pool-avg-8b":
        "a91793968016e57dd09ce94a803f5c3b9aae668b66ed20036bd449138ffe69ad",
    "pool-max-4b":
        "82fe70d2f2890039d5352cfd7f2e9f6883344c3079341ee32d8e3b2859e3b3d4",
    "pool-avg-4b":
        "cce9e354124a7606e8e1bd167ba7c18b9a9a92a37100ab0d70522101498d96a0",
    "pool-max-2b":
        "e76fc3f78d808dd32bc14ad1ab0d69cef65cd18465d07edc36c66e357fed0793",
    "pool-avg-2b":
        "b75051a05e4dfce4fd999ccd15afc9c042b058a856620d7bf69ed7549599060f",
    "linear-8b":
        "cf461482afb2ae01d7f5c95df961217ecf1846ffac0f9e5e8b16fc5f11e238da",
    "relu-8b":
        "7bcc69eb42abb70738f88725c6c74685e2fbde601d3e7326b1bc33152ae0ee43",
    "relu-4b":
        "ec745756c59316cca05c88812eef1e0b1bb491d592f0d71a6924fa0696c234e1",
    "relu-2b":
        "3e7671ff2c2d68f5389f5c90f7234f503249225d7618807452a2f1e40ca80305",
    "parallel-matmul-4b":
        "7f1a0276ee06f0b34b7bbcd652f6ea7aac82b7c38505fa738298df48e1152d81",
    "parallel-matmul-8b":
        "9c5c33008ed5bc19a792d29e78f0a190bc32807e851b844b53ec9de3db25b38e",
    "parallel-conv-4b":
        "0fd0bf651d14731e5e98e8790ebf986b6e0c4b47f3b2ca1815063f750d0044cb",
}
NETWORK_DIGEST = (
    "6c332472d7eff0b8e8a882756f3cea0c0d2ca342f2b0e9d8f893e34ed67f2614")
TILES_DIGEST = (
    "79fd4b51904ef1eee872a6792cef1ebb09167e09f1d6e495eec25a7a02b71004")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return digest(capsys.readouterr().out)


def tile_choices() -> str:
    """The conv layers' tile picks of ``repro compile --network mixed3``
    (lowering only: the pick is made before anything runs)."""
    from repro.compiler import NetworkCompiler, build_network

    built = build_network("mixed3")
    compiled = NetworkCompiler(
        built.network, built.input_shape, input_bits=built.input_bits,
        tcdm_budget=built.tcdm_budget).compile()
    return json.dumps([
        [layer.name, layer.tiling.th, layer.tiling.tw, layer.tiling.cg,
         layer.tiling.static_cycles]
        for layer in compiled.layers if layer.kind == "conv"])


def test_every_catalog_point_is_pinned():
    assert list(KERNEL_DIGESTS) == catalog_kernel_names()


@pytest.mark.parametrize("name", list(KERNEL_DIGESTS))
def test_kernel_cost_json(name, capsys):
    assert cli_digest(capsys, "cost", "--kernel", name, "--json") \
        == KERNEL_DIGESTS[name]


def test_network_cost_json(capsys):
    assert cli_digest(capsys, "cost", "--network", "mixed3", "--json") \
        == NETWORK_DIGEST


def test_mixed3_tile_choices():
    assert digest(tile_choices()) == TILES_DIGEST
