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
        "labels.pgm": "efe14506d19db20340dd00ba524a6addf0c90e6219e59fbc758078fe203ce2d9",
        "distance.csv": "a2ca9c5c34415c9aa9efa2064bfd13663705ca62734782d4c0b0164fc121bc32",
        "arrival1.csv": "3939a2f7a9dd34aae5427aa1d0a226f5a2d10abca08c52057658d3679389e4a8",
        "arrival2.csv": "2166aac2883434d21de6d57a354ef65f16a9b8f6df04604453e400b9c3b3b99f",
        "centerline.csv": "2981e0e99090a3f74d81c65c2b921f3639ee11d5f68d0462a307ca60f2152c6a",
        "cuts.csv": "100edf5ee1fcea97b90b1dedfedfab6e8e64c6a68e5a7c8bb58b0bb0660e6ebe",
        "stats.jsonl": "9df1e1bf4ff164a85d122f24cb5039febcc5683fd6a45f17fd83b3468bc7395e",
    },
    ("blob48_0", 5): {
        "labels.pgm": "5ec1ab9dc158beb7be12c3e3cd128fcaa3f3c782c3229f98901502014cbec7cc",
        "distance.csv": "a2ca9c5c34415c9aa9efa2064bfd13663705ca62734782d4c0b0164fc121bc32",
        "arrival1.csv": "3939a2f7a9dd34aae5427aa1d0a226f5a2d10abca08c52057658d3679389e4a8",
        "arrival2.csv": "2166aac2883434d21de6d57a354ef65f16a9b8f6df04604453e400b9c3b3b99f",
        "centerline.csv": "2981e0e99090a3f74d81c65c2b921f3639ee11d5f68d0462a307ca60f2152c6a",
        "cuts.csv": "1fdb5c66be1ccaede798246dc9dfd9d5415ce15c69a1970bed431c83514078e1",
        "stats.jsonl": "263a74d56ad4b0660e1c2c7ea4db05c8881e946f8afd78c9804cf8010f67d54f",
    },
    ("blob48_1", 2): {
        "labels.pgm": "eae8a16658fa524ceef9e71c3326c8e91b153244418f368a4e82bf99a806789e",
        "distance.csv": "048c8ac6be9f110c083bee75255283227c370280406727cf99c8dc9ed8288bec",
        "arrival1.csv": "6ce413f3d0317fd00ef2d4587ee110e00aeadf1c648d34b9a8150a278ab978a5",
        "arrival2.csv": "a98f789b4233779d145be4f820ee571f0f11706183203ce0dc97a371fe7135fd",
        "centerline.csv": "1b240de23c5c2c3327b741e498379a800bccc06e11fbaa9dc4e083596100b77f",
        "cuts.csv": "0cd5f033405da56c4f48e3fe131fb1692091774252e0242454f4dbcc4fc824ff",
        "stats.jsonl": "85e4b215c9a1f385c9f093ea3aa39ea50c36d9146be4f219204989fc60238dfa",
    },
    ("blob48_1", 5): {
        "labels.pgm": "d7ebcdb4129ae0331f99aba0b110eeb2c880040791edfed38f924451768352c9",
        "distance.csv": "048c8ac6be9f110c083bee75255283227c370280406727cf99c8dc9ed8288bec",
        "arrival1.csv": "6ce413f3d0317fd00ef2d4587ee110e00aeadf1c648d34b9a8150a278ab978a5",
        "arrival2.csv": "a98f789b4233779d145be4f820ee571f0f11706183203ce0dc97a371fe7135fd",
        "centerline.csv": "1b240de23c5c2c3327b741e498379a800bccc06e11fbaa9dc4e083596100b77f",
        "cuts.csv": "ccd8778857855ae8b3dbdfc702ce23ec35a8fe6ea0976d2c122f666dcc329431",
        "stats.jsonl": "eb312c756c395321517ef53637e06cef946bea5b989cf25d1ab090ef9506a537",
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
        "labels.pgm": "0459f971e06ec64c66951db869a930808db5e3f03789afb6bcbfcf0048db15e8",
        "distance.csv": "8294d46018b8a5bd87cb1ad5e3507c552b3a0a40f7bf756290ccb9e104defcde",
        "arrival1.csv": "b8e34bf240c26e5aca6fb7acf8fa50f0aa53730b4f0688567762d0c3af66ec01",
        "arrival2.csv": "721d22d0d462f3cd6611090ca1968f3d386447aa3b35a1cf72d7d3b2b6b62604",
        "centerline.csv": "e61f4c734d24f5b71f833790ac5aed71beaf675ecd0f2b723867823500367ba1",
        "cuts.csv": "eb1e3b31f24532cf40fadd9e244aab2e31edbb6ef53dc89027f9fe0afeaaceb6",
        "stats.jsonl": "d3bf6a5b2c0254628465107ff751e76b2cc9b0916d483882a5f615aebd27caad",
    },
    ("blob48_3", 2): {
        "labels.pgm": "748426fc6d002ec84c692c784ada4eb70f56b2548680b174d2f04c8e06199a0e",
        "distance.csv": "5e5ad1ba3ef9ebe96baa897b6a93f6ea070816bb3532e53f80ba71e1fe0ba120",
        "arrival1.csv": "46261516f1cedcf8887744852150ceaa3d1ba83d74ea803109928402e428dd28",
        "arrival2.csv": "3b89bea2f5968bbae95a3c5f7fcc87baec8f91f42b90db7e0ddac956c7917c33",
        "centerline.csv": "0df490165c2c041d400a1a5a696443bc8cb4350f779262e5aa25694490a7f822",
        "cuts.csv": "765595c14fe81bfac3c8d07791775222f43a7354faceeda13883b8cea2daa2f7",
        "stats.jsonl": "56a15c5cd903b4558252bcab321994677b1ed6172b6a6daa906a0702664de049",
    },
    ("blob48_3", 5): {
        "labels.pgm": "bcdf11d0207e3db490d0c2cd20ebd64a4b1965ba774ebb9bb80d07eb2487c4ff",
        "distance.csv": "5e5ad1ba3ef9ebe96baa897b6a93f6ea070816bb3532e53f80ba71e1fe0ba120",
        "arrival1.csv": "46261516f1cedcf8887744852150ceaa3d1ba83d74ea803109928402e428dd28",
        "arrival2.csv": "3b89bea2f5968bbae95a3c5f7fcc87baec8f91f42b90db7e0ddac956c7917c33",
        "centerline.csv": "0df490165c2c041d400a1a5a696443bc8cb4350f779262e5aa25694490a7f822",
        "cuts.csv": "57151cd0cda19799ae3a9756bc79ccee9c1659bb1d8eb338c6b4af670ce54a23",
        "stats.jsonl": "e7ea78fecc5bf025dbd059bbd108ac8c297455ef1d322f5e096f847b76bfc8cf",
    },
    ("blob48_4", 2): {
        "labels.pgm": "68f8f4b0fdeff3ee2e7bd06db89c90c5e47b9e8f53545f1da99c687c6ea58c9a",
        "distance.csv": "290b9725c0a55b4798a77d870c3e7097f972f501f3772f6b19a8efa7eabce39c",
        "arrival1.csv": "c76b27b45127850e035fa4e4bbba33c5029789a9fefea0b6ceb442abf5ba1084",
        "arrival2.csv": "2383b78b9d88dfbb64603f6bb2b1a5b5252d866b95ad87594fc432956cd0e2cc",
        "centerline.csv": "ae72daae10feb862e65320aa785867ac47d028645c358d24f25ac56a2c34de40",
        "cuts.csv": "969e5e66ea6dd7b8d44f31568a4c961bdd18ee7ec5e76b24275804d79cab8596",
        "stats.jsonl": "7a1dcf159f24c9a26044ff6e02955f3e8150f69855d7790fd26c7da4fdb90a12",
    },
    ("blob48_4", 5): {
        "labels.pgm": "05714bdadcdde30a7a071804b074398adb2ff0b16b3ba634b1a1c786a5fb907c",
        "distance.csv": "290b9725c0a55b4798a77d870c3e7097f972f501f3772f6b19a8efa7eabce39c",
        "arrival1.csv": "c76b27b45127850e035fa4e4bbba33c5029789a9fefea0b6ceb442abf5ba1084",
        "arrival2.csv": "2383b78b9d88dfbb64603f6bb2b1a5b5252d866b95ad87594fc432956cd0e2cc",
        "centerline.csv": "ae72daae10feb862e65320aa785867ac47d028645c358d24f25ac56a2c34de40",
        "cuts.csv": "ec01acd3d9ad5918f42078105bcd97da01e228e01fd056e4aedb17b77bbaa196",
        "stats.jsonl": "2c402f8047af1f9335af53d0586853a5d8450c252e90707725aa09304830048b",
    },
    ("blob48_5", 2): {
        "labels.pgm": "317aded2701f6e6faae179d60122589758c656c8fb6d0a7a50c3f6f6486b83da",
        "distance.csv": "a70db01937b722275d4eb39bf236bb872f0de33d8939b96066c4824c034c1c40",
        "arrival1.csv": "2b484a826c847ed70db5f98da7c52d6f19446127a9b55317dc1ff10634dd34fb",
        "arrival2.csv": "4f9811292ed4901509ab2894ac4382d7a0189f5e8c6513b27c7d255d38346187",
        "centerline.csv": "8eeb306576d559d5b23be5c9374edc32fa4cbdf46ecbc03c3e20479f6ae38071",
        "cuts.csv": "bd5975e72e877ec78f6aaae136003ca3d889d5f764ad5239e93db980c8c1653f",
        "stats.jsonl": "a44af8bef7cbff52b434a4ba4c6620cca14a3aea37d6dd705131360655fbfa6f",
    },
    ("blob48_5", 5): {
        "labels.pgm": "1d1c1bd04f7c5f6f9503586ff3e142fe9e37f15c72a041c772b2ec81b3ecf3b3",
        "distance.csv": "a70db01937b722275d4eb39bf236bb872f0de33d8939b96066c4824c034c1c40",
        "arrival1.csv": "2b484a826c847ed70db5f98da7c52d6f19446127a9b55317dc1ff10634dd34fb",
        "arrival2.csv": "4f9811292ed4901509ab2894ac4382d7a0189f5e8c6513b27c7d255d38346187",
        "centerline.csv": "8eeb306576d559d5b23be5c9374edc32fa4cbdf46ecbc03c3e20479f6ae38071",
        "cuts.csv": "56383634326b81eb06015a8e671171ac696be74d5bf369475fee5febdde14523",
        "stats.jsonl": "9b41f1a91ee7fbe0d2640854040ad5c3ae0c58e559d577a6892e1840c34952e0",
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
        "labels.pgm": "3c9c5214e3060623553827fa83a66c9ed28e2d1a00b675794befb4675ca9f3b7",
        "distance.csv": "0bcf715b61b018a7df05b7659d5698de3d765835c13b3ce16d4ec553088598c6",
        "arrival1.csv": "753cca6b3916b0826b2e93fe22a5392e94791f9835ebcfc3b9805033960a43c5",
        "arrival2.csv": "ed38d863ff7421c3a0ff4fe4b95f18d0ea97a499cd3799edb904dd56b91f83c6",
        "centerline.csv": "2aeff0abc5348e81ad60fbdccedea617748ddee3aa70d40d6be26f3b8a749fe6",
        "cuts.csv": "030892d1ce84565eefdf0cfca49e4e3598401cf37c94eb0a6db6638f476c93a8",
        "stats.jsonl": "3d54dbc1c3d8430e0bf7ea4fe1ce314f59b030ebcc1bb9c4c411170d6eff4df8",
    },
    ("blob48_7", 2): {
        "labels.pgm": "b94b98e805080e8f85d7fc5f32bf7d08e9946a4f7a57910acd476134b0e034d2",
        "distance.csv": "ff4ed2aab56c96a0fd74922c3af60b45e86398ef31443c2f03387e54a4af2503",
        "arrival1.csv": "a33bc57ca36064ed433b07f4383b85d72bf97a205a7fda6cdb2f341fb8e94fd1",
        "arrival2.csv": "918ce19523f46f71b71a2da2b91041a5ed11be1420ad0f0203b3bc2efc488094",
        "centerline.csv": "4766a8e778b0c32e87ab9af3f8b8cc9b8215e93c559b1b6d2999cf630331f7d9",
        "cuts.csv": "8197b1d17b0860c7a19a8b44641cec92a36231dd528a1123575ba0156550a875",
        "stats.jsonl": "5b183313675b0962873ecee25103065174cf36420c0faf346f325c3d2a4c137c",
    },
    ("blob48_7", 5): {
        "labels.pgm": "29e44d26d711309849c8379c9a6a00a54a431a1da37ed6c309ac94ed073231c6",
        "distance.csv": "ff4ed2aab56c96a0fd74922c3af60b45e86398ef31443c2f03387e54a4af2503",
        "arrival1.csv": "a33bc57ca36064ed433b07f4383b85d72bf97a205a7fda6cdb2f341fb8e94fd1",
        "arrival2.csv": "918ce19523f46f71b71a2da2b91041a5ed11be1420ad0f0203b3bc2efc488094",
        "centerline.csv": "4766a8e778b0c32e87ab9af3f8b8cc9b8215e93c559b1b6d2999cf630331f7d9",
        "cuts.csv": "3c179a8a206dc5d04a7c09321781b2939eb8e98e115eeae859ccbf92b6e26635",
        "stats.jsonl": "89e2d6a60f0b1557ee9d267674f174bff0105d997e00e5216cae3f86f203d729",
    },
    ("c_annulus", 16): {
        "labels.pgm": "29006dbcb854d0da08ccaff71a4cf903dfbd09a41936f4dc8b9f26189d452efa",
        "distance.csv": "ac65ce9351c4f69978c553dcb11cb630d0ceac07588daad8f553c96c6adb7e93",
        "arrival1.csv": "2a9582b2733ba67db6dd012bf8c452066eb18069343f2365ce18aff4a0cac623",
        "arrival2.csv": "8c574f2498ea1175a2a50110c29599cee1c4e57e34e3751843c28877ee49e28e",
        "centerline.csv": "4638603db905e436effbf4d177e52a4968d7410e934949bc5b03e31813d012ce",
        "cuts.csv": "5d28b269cc6831815fe7ae3bd81d74301c1ea64da1caf7a6deb7462edd81c118",
        "stats.jsonl": "8472d559b9cb01db29e90fe185b161e114fd80a33c7035948d1ac25e5a2d8946",
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
