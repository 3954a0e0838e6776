"""Behaviour oracle: pinned ``subdivide_equal`` outcomes on the test shapes.

Each case pins the sha256 of the label map's int32 bytes in C order, or
the class and message of the error raised. A change to the pipeline that moves any of
these alters the partitions the library produces, and must do so on
purpose. Every pinned label map is also checked to be a valid partition of
its mask, so no pin can hold a broken one.
"""

import hashlib

import numpy as np
import pytest

from shapesplit import ShapeSplitError, subdivide_equal

from conftest import make_blob, make_c_annulus
from oracles import euler_number, flood_fill_components

EXPECTED = {
    ("rectangle_64x16", 4): "843f51b8799411ccb0049fdc0c731ce585e3e193668ae3f7da8bc115604137a5",
    ("c_annulus", 16): "76ee7ac4811ff5a9d8ef94ee604397ecae678ab9e0662af525e677b4869845c8",
    ("blob48_0", 2): "8e91840d052b27d2df1e8807ecff5489802dc51a8042e38ff03cbefd341e9ed1",
    ("blob48_0", 5): "6014e11bb4f2b849c683bf11d1031969de8534e66b4136dc189da6d48161dca1",
    ("blob48_0", 8): "6aa9aee5df2ba458e8b6f19f1aa46a67e41b12e878a302139efadf3e019cf5be",
    ("blob48_1", 2): "43738eb742ec85ef7764acd3967a1a8204b6b3c384fa16009fdeaa061406aac6",
    ("blob48_1", 5): "fe0ccb77a23f6b1b42bfb6a64964991f73580eaf9f4fe36493688e37bb1507c8",
    ("blob48_1", 8): "3d1fab1aa9aeb0d6b2a4446c559b6a55573f942a8188095cbc46ef5a4ec3f39b",
    ("blob48_2", 2): "fe0ff6e33e3381c92b34a87b7cc6e2fe1384249dad09a8680fd0ae48d1b4d972",
    ("blob48_2", 5): "171179d20cfb74d8726cb228720546525d6291f3a9aa34b22302252b16b24ae0",
    ("blob48_2", 8): "1fde620649db5937bfb22496bc6d0218fe031dbb61968da0fdbb4975bf501165",
    ("blob48_3", 2): "2c19e1278eeefb51f7649dfc2bb76da5af3db2a7ea2a2bac8eecca41fc74552e",
    ("blob48_3", 5): "4b9f3d7e1b18b2d7053af15d8d0adfbfda1dfe1a502b19c742114901302f14eb",
    ("blob48_3", 8): "30c72d923c6e3acc4b788a39bcbbcc7d7ba2a123d32fe534742c34d7aa130cde",
    ("blob48_4", 2): "fb5e03e9749d02fefa8fd09e8977062800f4f9ff0aec720ece90505eb87762ff",
    ("blob48_4", 5): "982fe13977901431a222851a6ffbc87ee95b9f6c91ab3403700d83c203fc1e6b",
    ("blob48_4", 8): "BalanceError",
    ("blob48_5", 2): "4ccea009a8690eb093f54bf69e9a8e7eee76fcf859247bbbd385000b422f33a9",
    ("blob48_5", 5): "050c3e29900ad5daa377883c5268f41caddcf1c9103a5b2ca907e2a3faf19e7e",
    ("blob48_5", 8): "de13dca36b7c51cdb09d88c07bfba64027a4351b1850cdd322c0ab63c96293d4",
    ("blob48_6", 2): "b6ac2f42b0d33d4dac94fd91a687e050dd51622e78cb1147a8262ab33179c638",
    ("blob48_6", 5): "1b30d519cedb7a15abccdae2b8d42a5463017821d7a828435c33b51a6b3f6614",
    ("blob48_6", 8): "c6e7f440a8537948f41ebfbcc326aa907d308f5267ec3dd47316f523f9bee142",
    ("blob48_7", 2): "12d83d154199a2619ea9196faa0b7427bc57c4e0b823bced8e17e57aa3d4d780",
    ("blob48_7", 5): "59107d621d73878aa2f16620b57e692e84d49f068fdfea720131aa0eec4dafe0",
    ("blob48_7", 8): "75d3f282fa9c93183dadccad4c33356c49f5dd780101aa6081f5ca06ff2be868",
    ("blob48_8", 2): "2d03d8cea2b1f4af7bd898f5223298e545d535c8801bff78456a89b377b78f33",
    ("blob48_8", 5): "97e753d48e28a35bd1aaa1ecd23fa4441ddb0cc26e241c2a7a864ac5eee07bdd",
    ("blob48_8", 8): "506a1e599319a2de51724aab0a477da582d4df42eab0e99fbe5d5cecdc5e3598",
    ("blob48_9", 2): "0e33c113d66296a3c0c6dce1371f2b6f26c5df665f7d7607e623b48c0ba9df62",
    ("blob48_9", 5): "6867b10da23f6c87b7465de2a0c101a9ae6b7233ada7526cba0a4a5f7299ef70",
    ("blob48_9", 8): "a4274e65c6c289215d9c99842ea738532c9f0f41bdc6b95b1d19466cb5a4d86a",
    ("blob48_10", 2): "3defe48a5af17598326368fe1951d682981a3a892d32ce4cc3f4f950e1b7d984",
    ("blob48_10", 5): "168d85401de478d4df5852e745854366d2ca1f7a857ea0544d21b140ed972645",
    ("blob48_10", 8): "ef8bc46cf33516cb7bbbbe7a988da0fd1eeb5c04cb4884e4091a322d9010c988",
    ("blob48_11", 2): "27fce027686a4c68468f771a44c03d769f74f09aa9092b7d7603f58288a818a0",
    ("blob48_11", 5): "53709f9d4fc5d41f67d2b883b3735384f01c4885952b3bdce43563a8163de821",
    ("blob48_11", 8): "CutError",
    ("blob48_12", 2): "e9bb6c392e4902025b0a73f9a1fc7900c4859986c0cedccbda586e04b4e569b0",
    ("blob48_12", 5): "1647f66077d52842ab008b1a7ae2ef21251fa7c96e950cd9744476362eb80a74",
    ("blob48_12", 8): "e6d7680018fa4a0b0ae59416a096a53aa968e5ea94aa92e6fdef364ff58681df",
    ("blob48_13", 2): "a2dcf92543410598a35792c810248fd398adca784fcddba9330a35cdbb6af264",
    ("blob48_13", 5): "c16d7410feb9b84031c2891ca4689d117ff43d23c9dac45f9f43f577fb9d27c9",
    ("blob48_13", 8): "CutError",
    ("blob48_14", 2): "e6f1e0bf0ff8cdfa6a3a5f040c9a55cabf114db826ab003fab483f4aa8351f15",
    ("blob48_14", 5): "c229a6f0f8395625afc61b08b4ac65bca5d1514ac751fa99532cf8f3630a69bd",
    ("blob48_14", 8): "236a2ec0f802f78d85fd2d25ac64d7dae162c3dfa7b9f09d87d0b6b43c974454",
    ("blob48_15", 2): "7096b077c5feca6730dccdd2b2e9cd08f6050a56506129fbf984bb66adb84516",
    ("blob48_15", 5): "d32aaa7cd0c98e7c741299467a8b0d09692d0d9f5551f647562da2cd9eb73b0d",
    ("blob48_15", 8): "9668f0cc36cd2d0c8b16998da7bed70a2a91503cac409ea439bfcea4d3f3ef28",
    ("blob48_16", 2): "6a030ffee4f65313ce9579c3978fe58420615440fd5bf4ef2a6ffec37597b79b",
    ("blob48_16", 5): "ValidationError",
    ("blob48_16", 8): "ValidationError",
    ("blob48_17", 2): "5fe000d9e1e3ece742e2a597a7e7ce095b91dd813640122868df9a7fc51d62f0",
    ("blob48_17", 5): "c1dc33db10ad4dfa329615dafd5266f63c5cdd5dbc3e44db34b284764aad5737",
    ("blob48_17", 8): "02263545a75f7a52166e465f88d1634ea9e0271504d8c6df5f9bb4badf1dbed1",
    ("blob48_18", 2): "900bc87c9896b67b76d30bcebc9ca82f98e533a1d9125ecb5cb43d62835fff09",
    ("blob48_18", 5): "dfecf4a1d865136a5a5d655b16767d5229cc7ddc82283cacb7f2646e00e66e2a",
    ("blob48_18", 8): "ec8a8613b8ecca24673886ad09092dd331433df1d5daba25e23f1f3dd1f336cf",
    ("blob48_19", 2): "71010b32947a568ef564a6dba0436bf7a61f581eb6a7344c702c7aa70cd68488",
    ("blob48_19", 5): "ab647be017a88a441821429db6c9352067b60d40c22f68cf7c3cb0ace8e98fcd",
    ("blob48_19", 8): "e6e2ce83face8c571386ffe96daf339df94dd5dbcd6dc790f7ae28eec55d5fd5",
    ("blob48_20", 2): "56cd2691a7637ed5c64d47e227274904949c4476667b007e04bd786b990c3a07",
    ("blob48_20", 5): "61714ae62c91b0f46f0b123e73c02d8f4ed0d8af3ab8b36eac6bc906d78c1c8c",
    ("blob48_20", 8): "e6b66f3fd61cdc67e6935fd2331da99851cbbdc6d79ff80e56b4b22942bc6b42",
    ("blob48_21", 2): "1063d6eb5cad8dad4009146e4113f6eed4c4e127d151163f7aef5fc3ef8c31de",
    ("blob48_21", 5): "CutError",
    ("blob48_21", 8): "a9b22679e4d19c1f0baf78abcec148e657a42547c21c84aa550389ee70cfcb77",
    ("blob48_22", 2): "154cc82293ddebae254fa862651156c46709358e44a97bb7c9b0ee21762a4469",
    ("blob48_22", 5): "551b2aee1eb341e2ef0ecbf24c0f2962f673d250af495af23ac68533b97c336a",
    ("blob48_22", 8): "762e389ce7f7b80567bcd8cf68f9bb1d65ecf021673256efbda6aee499453d22",
    ("blob48_23", 2): "d58a1ca4c2d2be65815ccf71dd144d3ca84dc0ff08d2b80373543aca1848042d",
    ("blob48_23", 5): "e147ffb2bc76b564bc84483147f80ceea3542197b6b729ebdcb39f3642fb2964",
    ("blob48_23", 8): "966a61c470a09a554d661680ee4248a886726290a22acb2f46bc0cb447a0db6e",
    ("blob48_24", 2): "b501ab078eb4098cef6f359b0bec12b0f6ba04e4c14c3cf44599125b260ea949",
    ("blob48_24", 5): "4a3a0dffb5b65b2d6cf4f4c2fb35fb39c986fc7fd117728a69b8f6857035604f",
    ("blob48_24", 8): "1d0060ebc5c299a6a7b665050932d73ff95142b891b9fc3a05bf7d3764b42829",
    ("blob96_0", 2): "c1c388f47560545f92750a8603e7d32dc549e3ca3a14f40c839c99962135bda5",
    ("blob96_0", 5): "BalanceError",
    ("blob96_0", 8): "CutError",
    ("blob96_1", 2): "5eff8314accc3417b0b8c60c9a6690a48cda0d47a87a881d243f9f78b3330e4b",
    ("blob96_1", 5): "0844d0d914e03027758c3228308ff5cdbc0fcc40a8e3c16297fe48bbe260eb72",
    ("blob96_1", 8): "9e5c39e1ad75ed3e310cb8d2bf363c7ceea554fe8d349d8ae4724608bf764d00",
    ("blob96_2", 2): "8df9833e8168ea4ac3e2c86686ade5a27f3d523e28d91194aac591eb2b1990b4",
    ("blob96_2", 5): "7ffed0ab30fcb0831d156f7a99ed895bc07c0e11222603b82bfe32a4ad709cc7",
    ("blob96_2", 8): "e718c37639a4a0510461068d73748b3a9fde5131e9151f0e85cd1832416b4625",
    ("blob96_3", 2): "b31ab40964943fec301e4ba5033ebd72625ccda3ac922f4ba4eb720d8a736759",
    ("blob96_3", 5): "d0a2b7742dc90861f3c4fa8fca475a1373f0c981f443bf87e221cd2d3af8dab2",
    ("blob96_3", 8): "b8ac0e419c75cbfe42936921861384c71da5134fc1949b13771e0fa991ecaf59",
    ("blob96_4", 2): "b775863926818af6be9a180fd5f5e32fe6d0c18b64dc16cd665482bf512e0287",
    ("blob96_4", 5): "b2b6e419406fd5699fcaff21e707265907999b0d41bd91deb2a9947352bcb332",
    ("blob96_4", 8): "8f734a0d067f70a4869551ea5e73fca27efc300e5f5debc604190ee7fab27872",
    ("blob96_5", 2): "4eeeb0a4d0a701d9d6015df843d7f89e67a46a9b46129333c7b531e4efe43da0",
    ("blob96_5", 5): "BalanceError",
    ("blob96_5", 8): "bcd946b7574e85c7e65e5271d55b1f878c6265ca4107e3e625834d0f0419b90b",
    ("blob96_6", 2): "e0091b54aebbb06d365408652d4ef09c2b2ea94e55788719f27557c224cfb911",
    ("blob96_6", 5): "2d8d37695cafff6093421d2079697e86d7a0dbf8bbc774455c80d8cb4a8527f7",
    ("blob96_6", 8): "67a34a35a011e5c2f6cecc0244ef7b8cbdde1d2b6fb69eabe67941f61c92f9bd",
    ("blob96_7", 2): "3477302d9d523f33efb0441fbb9555729bc5ba0085f0e4b5905201f926b1b670",
    ("blob96_7", 5): "cb2ea3b12cb9ca25cdf1cc17f4ed3ba5cbb6495b7e0753233dd717c802bb57f9",
    ("blob96_7", 8): "56f16af4def11e603af9f8d24ebbebcdbfc3082397b36102d897f40db0cba0b0",
    ("strip_48x384", 4): "c9eb2485fa839d6fb51735074592dd43ef0f8af08eacc031c5bfdab0526bda4f",
    ("strip_40x448", 4): "d16ecc6b56ef6b5e02523809d7f8094d099fc41095bd0dbfb3582f68438b89f4",
    ("strip_56x320", 4): "144bb5814b8cb039baaee3b0b25a1f4316edadc0da83d26d083a2fab395456f2",
    ("strip_64x512", 4): "9785525758599b708f36394fffee1f926eca77fcf94265a37aa2db982736a71c",
    ("strip_128x128", 3): "a1db8752a29a585e0d105dd5ddc566d5a3ca4b1bc6b305c304ad78e3feec4537",
    ("strip_256x256", 3): "434fe8012e47167535f642ee6810581b0a4ff632712f34fbe722817bd9a7b456",
    ("strip_256x256", 4): "1aea23262f9ee0b67c8ee039e60398826b22f5279d5e740007d8ca4012fae1c0",
    ("strip_256x256", 5): "cafc5928ca7639612da4070bb0945e2a527dbd179149631e7396613358ed8d2e",
    ("strip_256x256", 6): "e34545f6aeac8b5e7962d6163f2229fd99cbfa0c0a62a92b255e7bffa72beaaa",
}

# Filled strips one to three voxels wide, where balancing and the trim move
# one layer of a part; every case succeeds. On 1- and 2-voxel-wide strips
# the trim can cut the labeled voxels in two, so the Euler check is left out.
THIN_STRIPS = {
    ("strip_1x200", 2): "5fd98a60c552e9c0913b1086240f0368e8de9ccc921c2aba66d77bff12d4daf3",
    ("strip_1x200", 3): "4d9ef5097c6b472d53c614f6fda5a10c2e4964edf999cfc609df33600bf8cefa",
    ("strip_1x200", 5): "6abaea24f01c8aea8d8b3bbef5f444b52169f93843c625c7791b6a7dc7a20ea0",
    ("strip_1x200", 7): "d445cab1e4b7be78e4bffd5f5c1545e5bbbc6c10aa901e632a56663f9947d176",
    ("strip_1x200", 9): "a3ab7e82068979662d644acf7f280f51e6a31cace0ba059d5643df4227a22b10",
    ("strip_2x200", 2): "0c4f0c96f76b329a0e7cd4015f3e3c33d8fa6e54e021f02845a740ea91f366b5",
    ("strip_2x200", 3): "76ecafc82b42217299587eae4bdd549577cc1b19ce768bd72238511e24b41264",
    ("strip_2x200", 5): "7f825f9689a8676eea7b4eb3feb8cca67effd1d993c4460d663b97d6b7ac07d5",
    ("strip_2x200", 7): "3649b204fdc8eeb14373b8f8bf125d0e4251934b1bd26b1caf805a057f2b407a",
    ("strip_2x200", 9): "19167f7855c23aac6cbebc99bfd0a89840272bef90239892ea06c6efd534bcdb",
    ("strip_3x97", 2): "3a79ec1b388798b4e73071a0567a3db9eb65963a4d7801be88c7229f392259b0",
    ("strip_3x97", 3): "e9893232556565402cc13999e2acba12bda5cd44be92677fcfc68f4b5217128d",
    ("strip_3x97", 5): "9c6624296ba7fde30b3ae668d3f434b6198ed360817e77c30407a571f7877909",
    ("strip_3x97", 7): "e66b1450aa09adba93e62d6db63271c5681294fce2ceb684e9f3ae78971794c3",
    ("strip_3x97", 9): "f6c55b157d8e06b7bbbae776d73ebde209bcf1b02352a54939387d5424e8e5d8",
    ("strip_1x61", 2): "b72f4e30a2bbece8efcb2167cc6b7c2fddb93c56a382c7f05f4df1f3fd753194",
    ("strip_1x61", 3): "18085fbc526e7ee50f2482134c8ac1ec9ed8dbe791df8dc764170368cb5e053b",
    ("strip_1x61", 5): "185ee5b2ef9df1f3541ebff1ceac9ba76b0b1d326fc649f304ac085575ca8845",
    ("strip_1x61", 7): "ce883b55218bad7a1317156d32ff25d7130cf2c2228de4d741ce5d813b731f2e",
    ("strip_1x61", 9): "50db5a22cd4f9b87633c94304fd9c4e3c364cd29922904988087f66619ef0069",
}

# The message of every error case in EXPECTED.
MESSAGES = {
    ("blob48_4", 8): "balance failed; region areas: 1: 68, 2: 86, 3: 77, 4: 77, 5: 77, 6: 77, 7: 77, 8: 82",
    ("blob48_11", 8): "cut failed at segment 7",
    ("blob48_13", 8): "cut failed at segment 6",
    ("blob48_16", 5): "k too large for region (centerline has 5 voxels, need at least 11)",
    ("blob48_16", 8): "k too large for region (centerline has 5 voxels, need at least 17)",
    ("blob48_21", 5): "cut failed at segment 3",
    ("blob96_0", 5): "balance failed; region areas: 1: 168, 2: 522, 3: 354, 4: 644, 5: 425",
    ("blob96_0", 8): "cut failed at segment 5",
    ("blob96_5", 5): "balance failed: region 5 is not 4-connected",
}


def _assert_valid_partition(mask: np.ndarray, labels: np.ndarray, k: int) -> None:
    """Labels 1..k inside the mask, each part floor(A/k) voxels in one 4-connected piece, A mod k trimmed."""
    area = int(mask.sum())
    assert not labels[~mask].any()
    assert set(np.unique(labels[mask]).tolist()) <= set(range(k + 1))
    for j in range(1, k + 1):
        part = labels == j
        assert part.sum() == area // k
        assert flood_fill_components(part, 4)[1] == 1
    assert (mask & (labels == 0)).sum() == area % k


def _sha256(labels: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int32).tobytes()).hexdigest()


def _mask(name: str) -> np.ndarray:
    if name == "rectangle_64x16":
        return np.ones((16, 64), dtype=bool)
    if name == "c_annulus":
        return make_c_annulus()
    if name.startswith("strip_"):  # filled, named height x width as in the bench corpus
        h, w = map(int, name.removeprefix("strip_").split("x"))
        return np.ones((h, w), dtype=bool)
    size, seed = name.removeprefix("blob").split("_")
    return make_blob(int(seed), size=int(size))


@pytest.mark.parametrize("name, k", list(EXPECTED))
def test_label_map_pinned(name, k):
    mask = _mask(name)
    try:
        labels = subdivide_equal(mask, k)
    except ShapeSplitError as err:
        outcome = type(err).__name__
        assert str(err) == MESSAGES[(name, k)]
    else:
        _assert_valid_partition(mask, labels, k)
        assert euler_number(labels > 0) == euler_number(mask)  # the trim opens no hole
        outcome = _sha256(labels)
    assert outcome == EXPECTED[(name, k)]


@pytest.mark.parametrize("name, k", list(THIN_STRIPS))
def test_thin_strip_pinned(name, k):
    mask = _mask(name)
    labels = subdivide_equal(mask, k)
    _assert_valid_partition(mask, labels, k)
    assert _sha256(labels) == THIN_STRIPS[(name, k)]


def test_every_error_case_has_its_message():
    assert set(MESSAGES) == {case for case, outcome in EXPECTED.items() if outcome.endswith("Error")}
