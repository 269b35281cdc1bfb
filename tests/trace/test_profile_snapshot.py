"""Snapshot of ``repro profile``: byte-identical or a named change.

Each digest is the sha256 of what ``repro profile --kernel K [--cores N
| --target T]`` prints, text and ``--json``, for every point of the
kernel matrix the command runs, recorded while a region table still
split the engine's translation at region boundaries.  Charging regions
by attribution over one translation must leave every byte alone, except
the text's closing table of engine side exits, which says how the
engine dispatched and is stripped before hashing.  A deliberate change
to the kernels, the timing rules or the profile's output updates a
digest here and says why in CHANGES.md.
"""

import hashlib

import pytest

from repro.cli import main
from repro.trace.profile import kernel_catalog

#: Every ``repro profile --kernel`` variant; the matrix rejects some
#: names under some of them (checked below).
VARIANTS = {
    "": (),
    "x8": ("--cores", "8"),
    "ri5cy": ("--target", "ri5cy"),
    "cluster8": ("--target", "xpulpnn-cluster8"),
}
REJECTED = {
    ("conv_4bit_ri5cy", "x8"),
    ("conv_2bit_ri5cy", "x8"),
    ("matmul_4bit", "ri5cy"),
}

#: (kernel, variant) -> (text digest, --json digest)
DIGESTS = {
    ("conv_8bit", ""): (
        "0387b0feb10a7596b263ee80c0bf0b97905b36f3bb05e9b9cc3cc1129c231d46",
        "e3071b805343fc72234ee11a18159514c1990e9429867ca8b775bf7856c0e31c"),
    ("conv_8bit", "x8"): (
        "a4459743152e7592c3c6f1c12b2d507aa32d39d29f0186b268a3fa37aa59edc4",
        "55060a09016cbe0c304096613d433803c01ba9da1ee2547be41637db3a11f820"),
    ("conv_8bit", "ri5cy"): (
        "0387b0feb10a7596b263ee80c0bf0b97905b36f3bb05e9b9cc3cc1129c231d46",
        "e3071b805343fc72234ee11a18159514c1990e9429867ca8b775bf7856c0e31c"),
    ("conv_8bit", "cluster8"): (
        "a4459743152e7592c3c6f1c12b2d507aa32d39d29f0186b268a3fa37aa59edc4",
        "55060a09016cbe0c304096613d433803c01ba9da1ee2547be41637db3a11f820"),
    ("conv_4bit", ""): (
        "e5b19a247c2ad1e4be78c4ff3f40b4a72cdb84fdcb1f1c29c3b3cf24778fda1a",
        "a0225ec06b8f542df0a97589e44e48132d43e3798a25e2f8917c74da5ba4df82"),
    ("conv_4bit", "x8"): (
        "bf99a53076a196ec0cf580b06a68e16ffcd484c63e8b71b26689516b922d5a20",
        "2f3e00e8418e886d8ce4d809f56c97abf0797e3c225c3333fc00361a68fd8de3"),
    ("conv_4bit", "ri5cy"): (
        "1bcb9dd3374ac8d6b50fa6f506d36c99779f542b33a1861eea74cf79096cdf36",
        "f24353ca72223195766efc73f6a425c66cf1461f3a5197765bdb91a6438bac1b"),
    ("conv_4bit", "cluster8"): (
        "bf99a53076a196ec0cf580b06a68e16ffcd484c63e8b71b26689516b922d5a20",
        "2f3e00e8418e886d8ce4d809f56c97abf0797e3c225c3333fc00361a68fd8de3"),
    ("conv_2bit", ""): (
        "0f0d08d94bcb7e8341066a72385fb34a302e1569dadb1ebeaf2460940b5a48b0",
        "7a9b74e305a2f3a74078e257a5d43bc3cb4f7fac71f47d83aaa02ada5cbdbc65"),
    ("conv_2bit", "x8"): (
        "8bebe3a11fd554d7282c35a447fc4a2264fb81ffbb6f966767c577c1cc02a6bb",
        "2899a08f33e7a0fa343e9c9b8f34c3b78e733f44b3b986309e82e23c1b8f1189"),
    ("conv_2bit", "ri5cy"): (
        "e9f8fd497521ced78e0d6f6f96e6476e097d73bfbd56085b36eb903978313b38",
        "8740b824edcfb0e8c0f1e747f17b78adaaeb3a260e2ac0a85043b65805462bcc"),
    ("conv_2bit", "cluster8"): (
        "8bebe3a11fd554d7282c35a447fc4a2264fb81ffbb6f966767c577c1cc02a6bb",
        "2899a08f33e7a0fa343e9c9b8f34c3b78e733f44b3b986309e82e23c1b8f1189"),
    ("conv_4bit_sw", ""): (
        "466694d8423e1f41963d49182d3fa18b2767331ddbb61fa053a39f9f05447686",
        "095a1d90e9fb656c1df548b408d32364bc3aea1e48e133297d6c9787d12f872d"),
    ("conv_4bit_sw", "x8"): (
        "1dde27d58175043ab9b6dc5f48fa1632e9a37efbd4eef391268a401d6b20c859",
        "9b987b9073ea8a99e4efd17bd286adac65ce259cdefac5127a0142ee8b0efe7e"),
    ("conv_4bit_sw", "ri5cy"): (
        "3f79afb552ae91862178dd1160428b6a16e1ac7b4dcb9de9468d8d48265b805d",
        "2c68a34aaa8cc08096b626a918e606d5adbe31795bff4ddcf4ff39dcf3529876"),
    ("conv_4bit_sw", "cluster8"): (
        "1dde27d58175043ab9b6dc5f48fa1632e9a37efbd4eef391268a401d6b20c859",
        "9b987b9073ea8a99e4efd17bd286adac65ce259cdefac5127a0142ee8b0efe7e"),
    ("conv_2bit_sw", ""): (
        "99a8cb31e190eded33d091494249ad3df080978bcf9b03d81eb47f7a619c9869",
        "121ede3dcf3f4527ee9dfeebc9f570c10e2fc1dc87e6bc6c861bea7dbbecae5d"),
    ("conv_2bit_sw", "x8"): (
        "ea1efaa35d1f7a991f745a76119b7c66b138024a029fdcd68e854f4267212e6c",
        "8b688992b33ab002a58dc70630dc396f998655422e60f2368d57371d9e6c9366"),
    ("conv_2bit_sw", "ri5cy"): (
        "e8992bbf6f2cc3195bfcfaaeb60ec6f0d245f298d5f9f828e24a87f8786c8d6e",
        "6fb90ab43357294bcd8d9194e79e8d84c460c9dd6e6db2ecd6260c42e892e987"),
    ("conv_2bit_sw", "cluster8"): (
        "ea1efaa35d1f7a991f745a76119b7c66b138024a029fdcd68e854f4267212e6c",
        "8b688992b33ab002a58dc70630dc396f998655422e60f2368d57371d9e6c9366"),
    ("conv_4bit_ri5cy", ""): (
        "8b0b7c977737307b81e085aecafed95bf5ce2bc5f2b88043c4625951264f0b7a",
        "fab700527bd1818b28b7826d2d5ccf968d098c6987a94f5893bea71bc8dd506e"),
    ("conv_4bit_ri5cy", "ri5cy"): (
        "8b0b7c977737307b81e085aecafed95bf5ce2bc5f2b88043c4625951264f0b7a",
        "fab700527bd1818b28b7826d2d5ccf968d098c6987a94f5893bea71bc8dd506e"),
    ("conv_4bit_ri5cy", "cluster8"): (
        "ed1cf34521ea01a441dd974a8b7f718406906fdd35afd3e587b8b9b3ed17fdf2",
        "c8b255e1f8deadfb02ba247609dbe3b90796ae6ed8763e96f8d67476f6271fbd"),
    ("conv_2bit_ri5cy", ""): (
        "603f264854529cb55d41a524c0e3b31d6bfae8f21136de70f4d036c3acd3df1b",
        "fe84243d8b3729c0469f6d6348f9a72f5dc9c6519fcd1904e2b30245e3eb9abb"),
    ("conv_2bit_ri5cy", "ri5cy"): (
        "603f264854529cb55d41a524c0e3b31d6bfae8f21136de70f4d036c3acd3df1b",
        "fe84243d8b3729c0469f6d6348f9a72f5dc9c6519fcd1904e2b30245e3eb9abb"),
    ("conv_2bit_ri5cy", "cluster8"): (
        "5af8198df90365237c8ab265eb85871c3513a5d3ffb69f426d753d5818674869",
        "3bfd82234bdc64c6fd5c06076cf976493055f48877f595dd2b1a54fa15699c37"),
    ("matmul_8bit", ""): (
        "2cbed2a1913163ee16ce2a8754a25c286b2477a8f16a04cbf81b2956150bab65",
        "07d43e6d564f054ebc917b7ff04c2db3f38076595235904cb60f3878aec06cd3"),
    ("matmul_8bit", "x8"): (
        "bd415d9edf7b6964a50ee43a3900461707946c5afad322a46520b2dd644fec5a",
        "cf2235979e9c21c7c38f721981621960c5727ebebb32913620044822bde863f2"),
    ("matmul_8bit", "ri5cy"): (
        "2cbed2a1913163ee16ce2a8754a25c286b2477a8f16a04cbf81b2956150bab65",
        "07d43e6d564f054ebc917b7ff04c2db3f38076595235904cb60f3878aec06cd3"),
    ("matmul_8bit", "cluster8"): (
        "bd415d9edf7b6964a50ee43a3900461707946c5afad322a46520b2dd644fec5a",
        "cf2235979e9c21c7c38f721981621960c5727ebebb32913620044822bde863f2"),
    ("matmul_4bit", ""): (
        "d79108d4a1d6a09a1f568b1afa1ff1c61649f50f551dcababb052cf57d705840",
        "175d2fceb241149ef26a49f1ca381dcedf0d952758728ade04eef708c6f78ef9"),
    ("matmul_4bit", "x8"): (
        "e87281023b7dc7f54a0c19219318070936bdda681cc3364cffcf2c09676dd973",
        "59e6146c9c9d0fd04935253d6264642c10c694efe98e146a1a84cdb5db96aef3"),
    ("matmul_4bit", "cluster8"): (
        "e87281023b7dc7f54a0c19219318070936bdda681cc3364cffcf2c09676dd973",
        "59e6146c9c9d0fd04935253d6264642c10c694efe98e146a1a84cdb5db96aef3"),
    ("matmul_2bit", ""): (
        "051d941193949a4ba24949df0b36b9a3661a60152a048beec7acb384aaa8f40c",
        "a42ee809ab81b03a3f229b4a42cb19e6dc17a2bbe4b3ac6d6e568a9923ab9d51"),
    ("matmul_2bit", "x8"): (
        "6b0243a7b4533f476b048a12f6b47cac314fd514411a3ab1dd6c87a800484ec0",
        "090fc5394582ba9f3e25e1a4bb81955b39ec978699d0b54b3c41daca0264f651"),
    ("matmul_2bit", "ri5cy"): (
        "c7c9c13c2cf2c9eb6dcb8b89786fdf204ce9535a12e15813aa8760d7ac8eb703",
        "0cb9bd7b4cc73641b523286618f79a159bb716eb0d18188c82c07015665e1ab7"),
    ("matmul_2bit", "cluster8"): (
        "6b0243a7b4533f476b048a12f6b47cac314fd514411a3ab1dd6c87a800484ec0",
        "090fc5394582ba9f3e25e1a4bb81955b39ec978699d0b54b3c41daca0264f651"),
}

#: The heading of the engine's side-exit table that closes the text.
SIDE_EXITS = "\n\nengine side exits"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def profile_output(capsys, name: str, variant: str, *extra: str) -> str:
    assert main(["profile", "--kernel", name, *VARIANTS[variant],
                 *extra]) == 0
    return capsys.readouterr().out


def strip_side_exits(text: str) -> str:
    """*text* without its closing side-exit table, if it has one."""
    head, _, tail = text.partition(SIDE_EXITS)
    assert "\n\n" not in tail.rstrip("\n")
    return head.rstrip("\n") + "\n"


def test_every_working_point_is_pinned():
    names = [name for name, _ in kernel_catalog()]
    assert sorted(DIGESTS) == sorted(
        (name, variant) for name in names for variant in VARIANTS
        if (name, variant) not in REJECTED)


@pytest.mark.parametrize("name,variant", sorted(REJECTED))
def test_rejected_points(name, variant, capsys):
    assert main(["profile", "--kernel", name, *VARIANTS[variant]]) == 1
    assert "not in the kernel matrix" in capsys.readouterr().err


@pytest.mark.parametrize("name,variant", sorted(DIGESTS))
def test_profile_output(name, variant, capsys):
    text_digest, json_digest = DIGESTS[(name, variant)]
    text = strip_side_exits(profile_output(capsys, name, variant))
    assert digest(text) == text_digest
    assert digest(profile_output(capsys, name, variant, "--json")) \
        == json_digest
