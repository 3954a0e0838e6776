"""Behaviour oracle: pinned ``subdivide_equal`` outcomes on the test shapes.

Each case pins the sha256 of the label map's int32 bytes in C order, or
the class of the error raised. A change to the pipeline that moves any of
these alters the partitions the library produces, and must do so on
purpose.
"""

import hashlib

import numpy as np
import pytest

from shapesplit import ShapeSplitError, subdivide_equal

from conftest import make_blob, make_c_annulus

EXPECTED = {
    ("rectangle_64x16", 4): "7664ad77ada592dfaf80effb532e9263ae436bbb7b6ae9f4b8246f983ec2bd6d",
    ("c_annulus", 16): "a85f50adcea35eb5c69d274fbfc7a5ba36bcb467cfd6e1fd1ef1447f08aad7a6",
    ("blob48_0", 2): "6cc4c8bdf486b69605c26b041f88e52ad4c3f7eadb4dc16e91e06c0676073370",
    ("blob48_0", 5): "131b8db157c5c4604fd2dc3f15cf1a72b89d08486f08c055915207582d6f705a",
    ("blob48_0", 8): "eb7ca9ee46881c3162115cbd829329c249b5e4d4940b6793081de215c2e261f1",
    ("blob48_1", 2): "9c814ba6e06d2e67368b4af231d03dfb47e50ea126128c10340d5a7a74cbf68e",
    ("blob48_1", 5): "11a562a8058b0ac586c1496bedcd352a06998ad331bfeb5ed8c7c0a27e2004c2",
    ("blob48_1", 8): "7926d1ca8368ece3810dfbd9013dfb3368f00af687c7db5b074751c7e02fd9e2",
    ("blob48_2", 2): "fe0ff6e33e3381c92b34a87b7cc6e2fe1384249dad09a8680fd0ae48d1b4d972",
    ("blob48_2", 5): "d089daa1d7db651fec7d20c8ffc94ce8411ba1ad4c33873093879e5829e7291e",
    ("blob48_2", 8): "2324d2040094be9194de0268bd33666c37d4a8ab0695bdf64cb6949c0edf02ee",
    ("blob48_3", 2): "eeeec70d24f1d6fb37cbc8440a926e86b7095ecd4854edffd3172366de17019f",
    ("blob48_3", 5): "d73ec35ffb85d1f4d7282ce2152ef63edbdba888636eba481f8a01df732f9f1c",
    ("blob48_3", 8): "BalanceError",
    ("blob48_4", 2): "6b9bb1c8cb7230805294a7f46c92d9e2eab33ba37daa15a0fd7e53a45c262339",
    ("blob48_4", 5): "8600962558f43aae5a82c62e255f5c50f21ff25d46951a66f2f1c56ef843894d",
    ("blob48_4", 8): "f3b0a14b461d92cd7805c3ec3dcd07903400005ed8a7e7dc0241efb2fac9760e",
    ("blob48_5", 2): "4cc21d85b84cf2609a691c776d39a2ee7fbcfd32e6440f474299e0d46c8bd0cf",
    ("blob48_5", 5): "fddafb28d40f71a518b45cf0a6e83e4d0694122b8b743087be837b8f2458ab93",
    ("blob48_5", 8): "55677b71e2fb541fe4980666c7f93ccb2e013ef9f1f4620577bd5b921894cf01",
    ("blob48_6", 2): "b6ac2f42b0d33d4dac94fd91a687e050dd51622e78cb1147a8262ab33179c638",
    ("blob48_6", 5): "5f0ed04f8c0a22b786138952f523539aa4dfbb0d7289716386611df9b7cee0fb",
    ("blob48_6", 8): "8e765330c71bd0aa9a032743a16c9920b3ae4b72d159c62b973c53c23c5c8061",
    ("blob48_7", 2): "cbadecc7012d16ce174a487be9c073db60bcbacacfdfafbb3d170eab1ed5b8be",
    ("blob48_7", 5): "59805cbd9a4db64bcee41714e1763d1c0e3f63aeb278056274cd055bbc94697f",
    ("blob48_7", 8): "ba3911cf9edea3b1aa508f8018fd2544a16ef7bea166f021ffbac04641fa7e55",
    ("blob48_8", 2): "2d03d8cea2b1f4af7bd898f5223298e545d535c8801bff78456a89b377b78f33",
    ("blob48_8", 5): "f556e311be75e39c05ac658f15f260d7a4fb3926d5f6da68e2d438109b321e77",
    ("blob48_8", 8): "018a33be5619329dd810d94a5272d0ee00b0c30411c1e2669315e739790f3dc6",
    ("blob48_9", 2): "0e33c113d66296a3c0c6dce1371f2b6f26c5df665f7d7607e623b48c0ba9df62",
    ("blob48_9", 5): "d1d69c92c47379bb4b69e086cac78174fd804b7f8f5383a60df631757722d6c7",
    ("blob48_9", 8): "3b7b238fc4068cd48f3af809735403ee9f2487ee37b56f94f024b84b0873acd4",
    ("blob48_10", 2): "49db178a918a0fcfa786a5acd754606a8aff51489b47109cbcb7a9a0797f56b5",
    ("blob48_10", 5): "ea0da1f7001a19b337ea6a8e0dd30a72c75c88e7bcea135c550252d89c18f4b3",
    ("blob48_10", 8): "bd8690eb88f0a87a5a2d6155eb1ca814b5aa2ea8fa962b170f3a68e96bfffbd7",
    ("blob48_11", 2): "27fce027686a4c68468f771a44c03d769f74f09aa9092b7d7603f58288a818a0",
    ("blob48_11", 5): "2ddaa41466256e06e7a8cf69e91711017ca9013c1b73e1c3b8e535815181b405",
    ("blob48_11", 8): "CutError",
    ("blob48_12", 2): "f6e8eb5d52eaabf3f505565052b22779b4088b84009cdf3de8f169f7cc64966c",
    ("blob48_12", 5): "5367537cd6560b6527e4be21d1a90c61eae88d31dc24349c2da0e89c5fc1d0e7",
    ("blob48_12", 8): "BalanceError",
    ("blob48_13", 2): "a2dcf92543410598a35792c810248fd398adca784fcddba9330a35cdbb6af264",
    ("blob48_13", 5): "a889057388e6037101631fe384ffa7f7e53aeadfdc6d44dc642b36c6d3629eca",
    ("blob48_13", 8): "BalanceError",
    ("blob48_14", 2): "e6f1e0bf0ff8cdfa6a3a5f040c9a55cabf114db826ab003fab483f4aa8351f15",
    ("blob48_14", 5): "fb3f5c8d5974a2bb6c6b6ba137ba36cd25383ff8d5b491acb0b8e6a9621a0400",
    ("blob48_14", 8): "2ffe97f43b18d8fbee143ae372bae7b62dc2def93e9aa04e593ac34874b48926",
    ("blob48_15", 2): "5a5fb4487a1534de74acbdcacf6c3061b53da46465b1785f8a19be1819d0bbf8",
    ("blob48_15", 5): "528a0a432481c7fb0af7fbdd1dfd79d3b0ded0392f1e53aae51608d8948f6072",
    ("blob48_15", 8): "0a683fb14e79f48a0198c2d3569dd34246b193089eceab4a4fd1046236d8589f",
    ("blob48_16", 2): "6a030ffee4f65313ce9579c3978fe58420615440fd5bf4ef2a6ffec37597b79b",
    ("blob48_16", 5): "ValidationError",
    ("blob48_16", 8): "ValidationError",
    ("blob48_17", 2): "cca81dba6b555646e615991ecd530816d53d7a93bae75e0f2cc3bb00857836b3",
    ("blob48_17", 5): "327784df528ab931063b673ce8ef1ad3434868433201ca2139929de43e735cb3",
    ("blob48_17", 8): "bedbcddea90a633fbbfd2d546909c57abc5e77414cc8a33013918698a0cd3f6b",
    ("blob48_18", 2): "900bc87c9896b67b76d30bcebc9ca82f98e533a1d9125ecb5cb43d62835fff09",
    ("blob48_18", 5): "4c46eb97fe3a01ee7fbdd04596bc0458d84fac3ac77d61d9f7df873eeaf86860",
    ("blob48_18", 8): "BalanceError",
    ("blob48_19", 2): "6ad6a16e18449eae673533b9a914683979c73dc477bbb3237577dc770ccb50e7",
    ("blob48_19", 5): "d2d0f46d3b92d1d8218dfd243fffa1e40a882bf00f27763e2a19db6a04765435",
    ("blob48_19", 8): "499b595e0a07ba22035c3fd2f342f792f49b981e6c27bf661a6e419fd680cdce",
    ("blob48_20", 2): "56cd2691a7637ed5c64d47e227274904949c4476667b007e04bd786b990c3a07",
    ("blob48_20", 5): "BalanceError",
    ("blob48_20", 8): "baab04da9719adb25a6f956f5d2f3f156dbbdd47e53550957c4ff13a2965182b",
    ("blob48_21", 2): "272d290a5e6ad4bceda9c7f4253bc2eee4229c092e2f27607fd27b77e577efd3",
    ("blob48_21", 5): "CutError",
    ("blob48_21", 8): "BalanceError",
    ("blob48_22", 2): "154cc82293ddebae254fa862651156c46709358e44a97bb7c9b0ee21762a4469",
    ("blob48_22", 5): "4479664feb20545b919c2b956e61f9f8b30dc8dbd8d2ef2b3b8025b6a355ac61",
    ("blob48_22", 8): "e6b5a4951147a4ee6bc14186ca3ae6204422fa2ffbd4da365c4b93cc68b9fdf3",
    ("blob48_23", 2): "d58a1ca4c2d2be65815ccf71dd144d3ca84dc0ff08d2b80373543aca1848042d",
    ("blob48_23", 5): "f362d078fffdad8ef51530a6cebb448000c43753d9894b5c635a93d7f2f9a368",
    ("blob48_23", 8): "be048f6f1c442d51ed362814568e42d6e10309549ae083529acc6ed21fa39738",
    ("blob48_24", 2): "b501ab078eb4098cef6f359b0bec12b0f6ba04e4c14c3cf44599125b260ea949",
    ("blob48_24", 5): "10702ea869e2e04aa7a006915e954f0d58edd5cbdf8c110aa68ea3237c59f9ec",
    ("blob48_24", 8): "3a5b3ea762a2c11f141c33d1645b3dfdc1bac597a197843b39dc9826a52b106a",
    ("blob96_0", 2): "c1c388f47560545f92750a8603e7d32dc549e3ca3a14f40c839c99962135bda5",
    ("blob96_0", 5): "66224da1bfb9127372f29735cdf8182f353b38cb34ec3f2920779d4f745ba206",
    ("blob96_0", 8): "CutError",
    ("blob96_1", 2): "5eff8314accc3417b0b8c60c9a6690a48cda0d47a87a881d243f9f78b3330e4b",
    ("blob96_1", 5): "282440e7d238fb4adfc7b1e7cad7ffd0175d417472ba1c4d2477634c0f1fbcdf",
    ("blob96_1", 8): "1b0ba20dcdd7f994447e5058c351bad8de98c84168bc51d5be0c76e4c8da5070",
    ("blob96_2", 2): "8df9833e8168ea4ac3e2c86686ade5a27f3d523e28d91194aac591eb2b1990b4",
    ("blob96_2", 5): "e86d5ea68387a6bb2da06532a1bf71fa3f13822ba7cbafebc0047883a9609d78",
    ("blob96_2", 8): "addb459652c4119fcab5d1c56123c5c1143fa535f6e6007de70688bd6de5280a",
    ("blob96_3", 2): "b31ab40964943fec301e4ba5033ebd72625ccda3ac922f4ba4eb720d8a736759",
    ("blob96_3", 5): "0776b9d997cae63d69edededb5199d3e06e52868e6d9b00af6ebea10eb904d36",
    ("blob96_3", 8): "de72f31609e81928de7689453f5cb20ea2345c68dd0e93b4b652840155a3b371",
    ("blob96_4", 2): "b775863926818af6be9a180fd5f5e32fe6d0c18b64dc16cd665482bf512e0287",
    ("blob96_4", 5): "232c20e17fec17e26b5df19e54af6f7134aaf8a2a3eaf913870b110fb2341462",
    ("blob96_4", 8): "091ff5f71266584d0a66513af6a19a5ff15ba4368d84a1e4190161020cc09ad8",
    ("blob96_5", 2): "4eeeb0a4d0a701d9d6015df843d7f89e67a46a9b46129333c7b531e4efe43da0",
    ("blob96_5", 5): "BalanceError",
    ("blob96_5", 8): "c926fb5cb9d64e2230723ef6875d5429bec8648d35c3804f37ce96e466ccde16",
    ("blob96_6", 2): "e0091b54aebbb06d365408652d4ef09c2b2ea94e55788719f27557c224cfb911",
    ("blob96_6", 5): "0c5f6100a3009f69d862c7021119597b1d13227b73adc5f5930b1a657cc820ff",
    ("blob96_6", 8): "d57d86705753dc59ab301d3aea4412c51f3cd6c921687f8b2ad83bf27f628cde",
    ("blob96_7", 2): "BalanceError",
    ("blob96_7", 5): "BalanceError",
    ("blob96_7", 8): "BalanceError",
    ("strip_48x384", 4): "c21bf94296d5f5fc1374cc2cb1f4f60e29585d0f34f89af125b7cfec2669d233",
    ("strip_40x448", 4): "24f6a7b106e25e298c05fe61d4474dca6aa04752a45476dc04a7a3a61d185798",
    ("strip_56x320", 4): "799be81ef7225b42e5011af0761de9f66a264a01b39e7f57a1bf3f904df41bcf",
    ("strip_64x512", 4): "dc6bdcc1bf2516cb854463dbb28b15efa1d6e8f84ba5803dd24c9e0963f8f3da",
}


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
    try:
        labels = subdivide_equal(_mask(name), k)
    except ShapeSplitError as err:
        outcome = type(err).__name__
    else:
        outcome = hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int32).tobytes()).hexdigest()
    assert outcome == EXPECTED[(name, k)]
