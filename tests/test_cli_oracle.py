"""Byte oracle: pinned sha256 of every file ``shapesplit subdivide --dump`` writes.

Each case runs the CLI on a mask stored as a P2 graymap and pins the
sha256 of ``labels.pgm`` and of the six ``--dump`` files, or the exit code
of a call that fails. A change to the writers or to the pipeline that
moves any of these bytes must do so on purpose.
"""

import hashlib

import pytest

from shapesplit import write_mask
from shapesplit.cli import main

from conftest import make_blob, make_c_annulus

DUMP_FILES = ("distance.csv", "arrival1.csv", "arrival2.csv", "centerline.csv", "cuts.csv", "stats.jsonl")

EXPECTED = {
    ("blob48_0", 2): {
        "labels.pgm": "ece34f177d6777504e697754b0cc4d9bd11163d70ab70dfe2d67b70a85ac8b0a",
        "distance.csv": "a2ca9c5c34415c9aa9efa2064bfd13663705ca62734782d4c0b0164fc121bc32",
        "arrival1.csv": "3939a2f7a9dd34aae5427aa1d0a226f5a2d10abca08c52057658d3679389e4a8",
        "arrival2.csv": "2166aac2883434d21de6d57a354ef65f16a9b8f6df04604453e400b9c3b3b99f",
        "centerline.csv": "2981e0e99090a3f74d81c65c2b921f3639ee11d5f68d0462a307ca60f2152c6a",
        "cuts.csv": "100edf5ee1fcea97b90b1dedfedfab6e8e64c6a68e5a7c8bb58b0bb0660e6ebe",
        "stats.jsonl": "ab5b74076fe60d619eccab34d8db84726a24f7ab4d785442bb12b0dfdf4c6989",
    },
    ("blob48_0", 5): {
        "labels.pgm": "5746929e1f50517018c1dabea2dcd19a986a25e93fdd6232cf1f361f434a6332",
        "distance.csv": "a2ca9c5c34415c9aa9efa2064bfd13663705ca62734782d4c0b0164fc121bc32",
        "arrival1.csv": "3939a2f7a9dd34aae5427aa1d0a226f5a2d10abca08c52057658d3679389e4a8",
        "arrival2.csv": "2166aac2883434d21de6d57a354ef65f16a9b8f6df04604453e400b9c3b3b99f",
        "centerline.csv": "2981e0e99090a3f74d81c65c2b921f3639ee11d5f68d0462a307ca60f2152c6a",
        "cuts.csv": "1fdb5c66be1ccaede798246dc9dfd9d5415ce15c69a1970bed431c83514078e1",
        "stats.jsonl": "c6ec59e9d5e627add43a0caeeea89b17d2b19267074c13ac312e48bb8ee5f69a",
    },
    ("blob48_1", 2): {
        "labels.pgm": "a08d2553f510b35fbbc9e0042db57ec6cc3ecd3a1cec3a020b68c7216410ce7a",
        "distance.csv": "048c8ac6be9f110c083bee75255283227c370280406727cf99c8dc9ed8288bec",
        "arrival1.csv": "6ce413f3d0317fd00ef2d4587ee110e00aeadf1c648d34b9a8150a278ab978a5",
        "arrival2.csv": "a98f789b4233779d145be4f820ee571f0f11706183203ce0dc97a371fe7135fd",
        "centerline.csv": "1b240de23c5c2c3327b741e498379a800bccc06e11fbaa9dc4e083596100b77f",
        "cuts.csv": "0cd5f033405da56c4f48e3fe131fb1692091774252e0242454f4dbcc4fc824ff",
        "stats.jsonl": "a16e0f80c4b1708567b6caf7ed64641e9dd502a7450acb00a88f46cc57853f68",
    },
    ("blob48_1", 5): {
        "labels.pgm": "e7372deb22534c492340efa550b2e0c69068a1a155518aa35b9b8924878557de",
        "distance.csv": "048c8ac6be9f110c083bee75255283227c370280406727cf99c8dc9ed8288bec",
        "arrival1.csv": "6ce413f3d0317fd00ef2d4587ee110e00aeadf1c648d34b9a8150a278ab978a5",
        "arrival2.csv": "a98f789b4233779d145be4f820ee571f0f11706183203ce0dc97a371fe7135fd",
        "centerline.csv": "1b240de23c5c2c3327b741e498379a800bccc06e11fbaa9dc4e083596100b77f",
        "cuts.csv": "ccd8778857855ae8b3dbdfc702ce23ec35a8fe6ea0976d2c122f666dcc329431",
        "stats.jsonl": "222a5848b23298f5137d367e51aee413941d02cf7db7318e4d146ac4640f3451",
    },
    ("blob48_2", 2): {
        "labels.pgm": "3b20bf5a495dad024d988056525c8082c534e9786ce4dd703b65eaaa95b22ca2",
        "distance.csv": "8294d46018b8a5bd87cb1ad5e3507c552b3a0a40f7bf756290ccb9e104defcde",
        "arrival1.csv": "b8e34bf240c26e5aca6fb7acf8fa50f0aa53730b4f0688567762d0c3af66ec01",
        "arrival2.csv": "721d22d0d462f3cd6611090ca1968f3d386447aa3b35a1cf72d7d3b2b6b62604",
        "centerline.csv": "e61f4c734d24f5b71f833790ac5aed71beaf675ecd0f2b723867823500367ba1",
        "cuts.csv": "71ca950e0f9dfb24b953bac8b859c822c4cd65c09a83327c5c8fc2ca33d162d0",
        "stats.jsonl": "43dccfe0f9e7d66cddcd0f50be7d9d2337a0bc750608b16ec489b41be461b1b5",
    },
    ("blob48_2", 5): {
        "labels.pgm": "713e410280721223b3a95314855f340383dd4e21584963513eef5d156c3dd538",
        "distance.csv": "8294d46018b8a5bd87cb1ad5e3507c552b3a0a40f7bf756290ccb9e104defcde",
        "arrival1.csv": "b8e34bf240c26e5aca6fb7acf8fa50f0aa53730b4f0688567762d0c3af66ec01",
        "arrival2.csv": "721d22d0d462f3cd6611090ca1968f3d386447aa3b35a1cf72d7d3b2b6b62604",
        "centerline.csv": "e61f4c734d24f5b71f833790ac5aed71beaf675ecd0f2b723867823500367ba1",
        "cuts.csv": "eb1e3b31f24532cf40fadd9e244aab2e31edbb6ef53dc89027f9fe0afeaaceb6",
        "stats.jsonl": "aa760720c4c4f1f747c58a7315d9a337faedfd84fea9d7067bf78462c9a706df",
    },
    ("blob48_3", 2): {
        "labels.pgm": "badf230bafb734c047f64fb4ef402830345204d4a23ff4275df22d1f7f8ee7ab",
        "distance.csv": "5e5ad1ba3ef9ebe96baa897b6a93f6ea070816bb3532e53f80ba71e1fe0ba120",
        "arrival1.csv": "46261516f1cedcf8887744852150ceaa3d1ba83d74ea803109928402e428dd28",
        "arrival2.csv": "3b89bea2f5968bbae95a3c5f7fcc87baec8f91f42b90db7e0ddac956c7917c33",
        "centerline.csv": "0df490165c2c041d400a1a5a696443bc8cb4350f779262e5aa25694490a7f822",
        "cuts.csv": "765595c14fe81bfac3c8d07791775222f43a7354faceeda13883b8cea2daa2f7",
        "stats.jsonl": "ec054080e47edcaf2101ee02ad6d760f4082e760f089d27430a83355fa496716",
    },
    ("blob48_3", 5): {
        "labels.pgm": "9c0a0fb672ce726c8a968b748235ab83ada2bea8c693069343ef04e81577fa75",
        "distance.csv": "5e5ad1ba3ef9ebe96baa897b6a93f6ea070816bb3532e53f80ba71e1fe0ba120",
        "arrival1.csv": "46261516f1cedcf8887744852150ceaa3d1ba83d74ea803109928402e428dd28",
        "arrival2.csv": "3b89bea2f5968bbae95a3c5f7fcc87baec8f91f42b90db7e0ddac956c7917c33",
        "centerline.csv": "0df490165c2c041d400a1a5a696443bc8cb4350f779262e5aa25694490a7f822",
        "cuts.csv": "57151cd0cda19799ae3a9756bc79ccee9c1659bb1d8eb338c6b4af670ce54a23",
        "stats.jsonl": "8932f6bdd493a704c64bfa6d10f45d5c2a6bda8d74d9bc7b8d925a7f618625e1",
    },
    ("blob48_4", 2): {
        "labels.pgm": "dcecf482668e58a26b5dac2b016f34aae3cbe91bf24b7fd4227dfc3bcced4b33",
        "distance.csv": "290b9725c0a55b4798a77d870c3e7097f972f501f3772f6b19a8efa7eabce39c",
        "arrival1.csv": "c76b27b45127850e035fa4e4bbba33c5029789a9fefea0b6ceb442abf5ba1084",
        "arrival2.csv": "2383b78b9d88dfbb64603f6bb2b1a5b5252d866b95ad87594fc432956cd0e2cc",
        "centerline.csv": "ae72daae10feb862e65320aa785867ac47d028645c358d24f25ac56a2c34de40",
        "cuts.csv": "969e5e66ea6dd7b8d44f31568a4c961bdd18ee7ec5e76b24275804d79cab8596",
        "stats.jsonl": "77ac0088f98136b4681a0682f3a22fa9f4ea7fb2e0a622316b91fa219e3362d7",
    },
    ("blob48_4", 5): {
        "labels.pgm": "07e1819d54edca47cf6e4ed91529a95e845e00dc29e8228536e7e9277b72dda8",
        "distance.csv": "290b9725c0a55b4798a77d870c3e7097f972f501f3772f6b19a8efa7eabce39c",
        "arrival1.csv": "c76b27b45127850e035fa4e4bbba33c5029789a9fefea0b6ceb442abf5ba1084",
        "arrival2.csv": "2383b78b9d88dfbb64603f6bb2b1a5b5252d866b95ad87594fc432956cd0e2cc",
        "centerline.csv": "ae72daae10feb862e65320aa785867ac47d028645c358d24f25ac56a2c34de40",
        "cuts.csv": "ec01acd3d9ad5918f42078105bcd97da01e228e01fd056e4aedb17b77bbaa196",
        "stats.jsonl": "dd60e9f7a0f0440a29b756161c4eb98fad5c8f8fce766caf7048f4cee508ad6a",
    },
    ("blob48_5", 2): {
        "labels.pgm": "2720d593b989275e92acf3d4afd78c00e17b01e28130140bf8acec8b766b41aa",
        "distance.csv": "a70db01937b722275d4eb39bf236bb872f0de33d8939b96066c4824c034c1c40",
        "arrival1.csv": "2b484a826c847ed70db5f98da7c52d6f19446127a9b55317dc1ff10634dd34fb",
        "arrival2.csv": "4f9811292ed4901509ab2894ac4382d7a0189f5e8c6513b27c7d255d38346187",
        "centerline.csv": "8eeb306576d559d5b23be5c9374edc32fa4cbdf46ecbc03c3e20479f6ae38071",
        "cuts.csv": "bd5975e72e877ec78f6aaae136003ca3d889d5f764ad5239e93db980c8c1653f",
        "stats.jsonl": "8c956c6f67d68d818e2f4ce8b140afab4631015f70a482645d3de0b0fac9f387",
    },
    ("blob48_5", 5): {
        "labels.pgm": "7e8a64d750dcd2db6a52bdfe1240b580bb619315078cbf01a786428a5f259c35",
        "distance.csv": "a70db01937b722275d4eb39bf236bb872f0de33d8939b96066c4824c034c1c40",
        "arrival1.csv": "2b484a826c847ed70db5f98da7c52d6f19446127a9b55317dc1ff10634dd34fb",
        "arrival2.csv": "4f9811292ed4901509ab2894ac4382d7a0189f5e8c6513b27c7d255d38346187",
        "centerline.csv": "8eeb306576d559d5b23be5c9374edc32fa4cbdf46ecbc03c3e20479f6ae38071",
        "cuts.csv": "56383634326b81eb06015a8e671171ac696be74d5bf369475fee5febdde14523",
        "stats.jsonl": "d995f71eff6480098e901ed6961a2aed6fd5e8741aa3ff2b6840e7d1ac1b8192",
    },
    ("blob48_6", 2): {
        "labels.pgm": "16b0e37492489d5b08c7d09b9eb2162c589d693afcc86a417cc045e897bc1a50",
        "distance.csv": "0bcf715b61b018a7df05b7659d5698de3d765835c13b3ce16d4ec553088598c6",
        "arrival1.csv": "753cca6b3916b0826b2e93fe22a5392e94791f9835ebcfc3b9805033960a43c5",
        "arrival2.csv": "ed38d863ff7421c3a0ff4fe4b95f18d0ea97a499cd3799edb904dd56b91f83c6",
        "centerline.csv": "2aeff0abc5348e81ad60fbdccedea617748ddee3aa70d40d6be26f3b8a749fe6",
        "cuts.csv": "771f7751ed4f9f0a721eb56b2dfafca34cf1af4f64afbfa73f464b1806e09319",
        "stats.jsonl": "004238a4e155cf793866898a484392a51a428ef891696abf32f1d6d1435e0cac",
    },
    ("blob48_6", 5): {
        "labels.pgm": "0b6453a6bd0f4d27fec8b228df14fc58c817555643097e4a3e4ef736b1f9f4fe",
        "distance.csv": "0bcf715b61b018a7df05b7659d5698de3d765835c13b3ce16d4ec553088598c6",
        "arrival1.csv": "753cca6b3916b0826b2e93fe22a5392e94791f9835ebcfc3b9805033960a43c5",
        "arrival2.csv": "ed38d863ff7421c3a0ff4fe4b95f18d0ea97a499cd3799edb904dd56b91f83c6",
        "centerline.csv": "2aeff0abc5348e81ad60fbdccedea617748ddee3aa70d40d6be26f3b8a749fe6",
        "cuts.csv": "030892d1ce84565eefdf0cfca49e4e3598401cf37c94eb0a6db6638f476c93a8",
        "stats.jsonl": "81161c1b602a39b88a680bd7e85cae3b0f7ef1e5243753aa88740ec520b52fb7",
    },
    ("blob48_7", 2): {
        "labels.pgm": "5251d1133af3a9f1fccbea9dd69e1499cd7b839fa647622f5b334a052f0a863a",
        "distance.csv": "ff4ed2aab56c96a0fd74922c3af60b45e86398ef31443c2f03387e54a4af2503",
        "arrival1.csv": "a33bc57ca36064ed433b07f4383b85d72bf97a205a7fda6cdb2f341fb8e94fd1",
        "arrival2.csv": "918ce19523f46f71b71a2da2b91041a5ed11be1420ad0f0203b3bc2efc488094",
        "centerline.csv": "4766a8e778b0c32e87ab9af3f8b8cc9b8215e93c559b1b6d2999cf630331f7d9",
        "cuts.csv": "8197b1d17b0860c7a19a8b44641cec92a36231dd528a1123575ba0156550a875",
        "stats.jsonl": "ef9c45f33dbe36a54e4bc115ee502ff704123678f0842dc912e5f660b53857c1",
    },
    ("blob48_7", 5): {
        "labels.pgm": "2956c82fd1b46d28fbca906e061197179f617ade8c9590b02e87e17f613e3a3e",
        "distance.csv": "ff4ed2aab56c96a0fd74922c3af60b45e86398ef31443c2f03387e54a4af2503",
        "arrival1.csv": "a33bc57ca36064ed433b07f4383b85d72bf97a205a7fda6cdb2f341fb8e94fd1",
        "arrival2.csv": "918ce19523f46f71b71a2da2b91041a5ed11be1420ad0f0203b3bc2efc488094",
        "centerline.csv": "4766a8e778b0c32e87ab9af3f8b8cc9b8215e93c559b1b6d2999cf630331f7d9",
        "cuts.csv": "3c179a8a206dc5d04a7c09321781b2939eb8e98e115eeae859ccbf92b6e26635",
        "stats.jsonl": "d642fd4d3fe0551d8c37b8d770d8bc131b9e163ae45d832acc0349075febaa40",
    },
    ("c_annulus", 16): {
        "labels.pgm": "9a7523850ca05721083bf6610f624de35e4de7c1dca27dd4454c3577fb88e6f7",
        "distance.csv": "ac65ce9351c4f69978c553dcb11cb630d0ceac07588daad8f553c96c6adb7e93",
        "arrival1.csv": "2a9582b2733ba67db6dd012bf8c452066eb18069343f2365ce18aff4a0cac623",
        "arrival2.csv": "8c574f2498ea1175a2a50110c29599cee1c4e57e34e3751843c28877ee49e28e",
        "centerline.csv": "4638603db905e436effbf4d177e52a4968d7410e934949bc5b03e31813d012ce",
        "cuts.csv": "5d28b269cc6831815fe7ae3bd81d74301c1ea64da1caf7a6deb7462edd81c118",
        "stats.jsonl": "6345c12b109b2cce68cd35531bc505743bf3329eba311c6aa520ddc758843f55",
    },
}


def _mask(name: str):
    if name == "c_annulus":
        return make_c_annulus()
    return make_blob(int(name.removeprefix("blob48_")), size=48)


def cli_outputs(name: str, k: int, tmp_path):
    """sha256 of each file the CLI writes for ``name`` at ``k``, or its exit code."""
    src = tmp_path / "mask.pgm"
    src.write_bytes(write_mask(_mask(name)))
    out, dump = tmp_path / "labels.pgm", tmp_path / "dump"
    code = main(["subdivide", "--input", str(src), "--k", str(k), "--output", str(out), "--dump", str(dump)])
    if code:
        return code
    paths = [out] + [dump / f for f in DUMP_FILES]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@pytest.mark.parametrize("name, k", list(EXPECTED))
def test_cli_files_pinned(name, k, tmp_path):
    assert cli_outputs(name, k, tmp_path) == EXPECTED[(name, k)]
