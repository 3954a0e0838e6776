import json
import math

import numpy as np
import pytest

from shapesplit import (
    PGMParseError,
    ValidationError,
    read_field_csv,
    read_labelmap,
    read_mask,
    region_stats,
    stats_jsonl,
    write_field_csv,
    write_labelmap,
    write_mask,
)

from shapesplit import io

from conftest import make_blob, make_c_annulus, random_mask


def on_fill(fill, inside):
    """Grids of ``fill`` holding cells of ``inside`` where a writer that formats
    only the box of cells unlike cell (0, 0) could go wrong."""
    h, w = inside.shape
    masks = np.zeros((8, h, w), dtype=bool)
    masks[0, :3, 2:5] = True  # touches the top edge
    masks[1, -3:, 2:5] = True  # the bottom edge
    masks[2, 2:5, :3] = True  # the left edge
    masks[3, 2:5, -3:] = True  # the right edge
    masks[4, h // 2, :] = masks[4, :, w // 2] = True  # all four edges, not cell (0, 0)
    masks[5, :3, :4] = True  # covers cell (0, 0), so the fill is a region value
    masks[6, h // 2, w // 2] = True  # a single cell
    # masks[7] stays empty: an all-fill grid
    grids = [np.where(m, inside, fill) for m in masks]
    row, col = np.full((1, w), fill, inside.dtype), np.full((h, 1), fill, inside.dtype)
    row[0, 3:6], col[2:4, 0] = inside[0, 3:6], inside[2:4, 0]
    return grids + [row, col]


class TestReadMask:
    def test_plain_two_samples(self):
        mask = read_mask(b"P2\n2 1 255\n0 7\n")
        assert mask.tolist() == [[False, True]]

    def test_binary_equivalent(self):
        plain = read_mask(b"P2\n2 1 255\n0 7\n")
        binary = read_mask(b"P5\n2 1\n255\n" + bytes([0, 7]))
        assert np.array_equal(plain, binary)

    def test_two_byte_binary_samples(self):
        data = b"P5\n2 1\n300\n" + (0).to_bytes(2, "big") + (299).to_bytes(2, "big")
        assert read_mask(data).tolist() == [[False, True]]

    def test_comments_and_whitespace(self):
        data = b"P2 # comment\n# another\n 2 1 # width height\n1\n 0   1 \n"
        assert read_mask(data).tolist() == [[False, True]]

    def test_comment_inside_raster(self):
        data = b"P2\n2 2\n1\n0 1 # half\n1 0\n"
        assert read_mask(data).tolist() == [[False, True], [True, False]]

    def test_raster_tokens_match_the_scanner(self):
        # a raster reads alike with and without comments, and a bad sample
        # is reported at its own offset either way
        mask = random_mask(3)
        plain = write_mask(mask)
        header_end = plain.index(b"\n", plain.index(b"\n", 3) + 1) + 1
        commented = plain[:header_end] + b"# raster\n" + plain[header_end:]
        assert np.array_equal(read_mask(plain), mask)
        assert np.array_equal(read_mask(commented), mask)
        for data in (b"P2\n3 1\n1\n0 1 x\n", b"P2\n3 1\n1\n0 1 # c\n x\n"):
            with pytest.raises(PGMParseError, match="integer") as exc:
                read_mask(data)
            assert data[exc.value.offset : exc.value.offset + 1] == b"x"

    @pytest.mark.parametrize("seed", range(4))
    def test_numpy_raster_parse_matches_the_token_scan(self, seed):
        # A P2 raster is parsed in numpy, and the graymap tokenizer reads it
        # token by token where numpy cannot decide; both must give the same
        # samples, or the same error at the same offset.
        rng = np.random.default_rng(seed)
        space = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
        odd = [b"x", b"+1", b"-1", b"-0", b"1.5", b"\xff", b"\x1c", b"1a", b"1_0", b"99999999999999999999999", b"0" * 24 + b"1"]

        def sep():
            out = b"".join(rng.choice(space, size=int(rng.integers(1, 4))))
            if rng.random() < 0.15:
                out += b"#" + b"".join(rng.choice([b"a", b" ", b"7", b"#"], size=int(rng.integers(0, 5)))) + b"\n"
            return out

        fast = 0
        for _ in range(150):
            w, h = (int(v) for v in rng.integers(1, 9, size=2))
            maxval = int(rng.choice([1, 9, 255, 1000, 65535]))
            tokens = []
            for v in rng.integers(0, maxval + 1, size=w * h).tolist():
                zeros = b"0" * int(rng.integers(1, 7)) if rng.random() < 0.03 else b""
                tokens.append(zeros + str(v).encode())
            fault = rng.random()
            if fault < 0.1:
                tokens = tokens[: int(rng.integers(0, len(tokens)))]
            elif fault < 0.3:
                tokens[int(rng.integers(len(tokens)))] = rng.choice(odd + [str(maxval + 1).encode()])
            tokens += [rng.choice(odd + [b"5"]) for _ in range(int(rng.integers(0, 3)))]  # ignored after the last sample
            header = b"P2\n%d %d\n%d" % (w, h, maxval)
            data = header + b"".join(sep() + t for t in tokens) + (sep() if rng.random() < 0.5 else b"")

            scan = io._TOKEN.finditer(data, len(header))
            try:
                expect = [io._int_token(tok, "sample", 0, maxval) for _, tok in zip(range(w * h), scan)]
            except PGMParseError as err:
                expect = (str(err), err.offset)
            try:
                got = read_labelmap(data).ravel().tolist()
            except PGMParseError as err:
                got = (str(err), err.offset)
            assert got == expect, data
            raster = io._COMMENT.sub(b" ", data[len(header) :])
            fast += io._p2_samples(raster, w * h, maxval) is not None
        assert fast >= 50  # half the rasters are decided without the scan

    def test_bad_magic(self):
        with pytest.raises(PGMParseError, match="magic"):
            read_mask(b"P6\n1 1\n255\n\x00")

    def test_truncated_plain(self):
        with pytest.raises(PGMParseError, match="end of file"):
            read_mask(b"P2\n2 2\n255\n0 1 2\n")

    def test_truncated_binary(self):
        with pytest.raises(PGMParseError, match="truncated"):
            read_mask(b"P5\n2 2\n255\n\x00\x01")

    def test_maxval_zero(self):
        with pytest.raises(PGMParseError, match="maxval"):
            read_mask(b"P2\n1 1\n0\n0\n")

    def test_maxval_too_large(self):
        with pytest.raises(PGMParseError, match="maxval"):
            read_mask(b"P2\n1 1\n70000\n0\n")

    def test_sample_above_maxval(self):
        with pytest.raises(PGMParseError, match="sample"):
            read_mask(b"P2\n1 1\n5\n6\n")

    def test_binary_sample_above_maxval(self):
        with pytest.raises(PGMParseError) as exc:
            read_mask(b"P5\n2 1\n1\n\x00\x02")
        assert str(exc.value) == "sample 2 exceeds maxval 1 (byte offset 10)"

    def test_non_integer_header(self):
        with pytest.raises(PGMParseError, match="integer"):
            read_mask(b"P2\nxx 1\n255\n0\n")

    def test_error_carries_offset(self):
        with pytest.raises(PGMParseError) as exc:
            read_mask(b"P2\n1 1\n255\n")
        assert exc.value.offset is not None

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"", "unexpected end of file while reading magic number", 0),
            (b"P2\n2 ", "unexpected end of file while reading height", 5),
            (b"P2 # header comment without end", "unexpected end of file while reading width", 31),
            (b"P2\n2 2\n255\n0 1 2\n", "unexpected end of file while reading sample", 17),
            (b"P2\n2 2\n255\n0 1 2 # trailing comment", "unexpected end of file while reading sample", 35),
            (b"P#2\n1 1\n1\n0\n", "unsupported magic b'P', expected P2 or P5", 0),
            (b"P2\nx2 1\n1\n0 0\n", "expected an integer for width, got b'x2'", 3),
            (b"P2\n0 1\n1\n\n", "width 0 outside allowed range 1..67108864", 3),
            (b"P2\n1 -1\n1\n0\n", "height -1 outside allowed range 1..67108864", 5),
            (b"P2\n65536 1025\n1\n", "image of 65536x1025 voxels exceeds the cap of 67108864", 3),
            (b"P2\n1 1\n1.5\n0\n", "expected an integer for maxval, got b'1.5'", 7),
            (b"P2\n1 1\n65536\n0\n", "maxval 65536 outside allowed range 1..65535", 7),
            (b"P5\n1 1\n255#\x00", "expected a single whitespace byte after maxval", 10),
            (b"P5\n1 1\n255", "expected a single whitespace byte after maxval", 10),
            (b"P2\n3 1\n1\n0 2 x\n", "sample 2 outside allowed range 0..1", 11),
            (b"P2\n2 1\n1\n0 99999999999999999999999\n", "sample 99999999999999999999999 outside allowed range 0..1", 11),
            (b"P2\n2 1\n1\n0 \xff\n", "expected an integer for sample, got b'\\xff'", 11),
            (b"P2\n2 1\n1\n+1 0", "expected an integer for sample, got b'+1'", 9),
            (b"P2\n2 1\n1_0\n1_0 0", "expected an integer for maxval, got b'1_0'", 7),
        ],
    )
    def test_malformed_message_and_offset(self, data, message, offset):
        with pytest.raises(PGMParseError) as exc:
            read_labelmap(data)
        assert str(exc.value) == f"{message} (byte offset {offset})"
        assert exc.value.offset == offset

    def test_hash_ends_a_token(self):
        # a comment may start in the middle of a token, header or raster
        assert read_labelmap(b"P2\n2#width\n1\n1#max\n1#s\n0\n").tolist() == [[1, 0]]
        assert read_labelmap(b"P2\n3 1\n9\n1#c\n2 3").tolist() == [[1, 2, 3]]

    def test_roundtrip_generated_masks(self):
        for mask in (random_mask(0), random_mask(5), make_c_annulus(), make_blob(0)):
            assert np.array_equal(read_mask(write_mask(mask)), mask)


class TestWriteLabelmap:
    def test_all_zero_map(self):
        out = write_labelmap(np.zeros((2, 2), dtype=np.int32))
        assert out == b"P2\n2 2\n1\n0 0\n0 0\n"

    def test_k16_map(self):
        labels = np.arange(17, dtype=np.int32).reshape(1, 17)
        out = write_labelmap(labels)
        header, dims, maxval, row, _ = out.split(b"\n")
        assert header == b"P2"
        assert maxval == b"16"
        assert row.split() == [str(v).encode() for v in range(17)]

    def test_label_overflow(self):
        with pytest.raises(ValidationError, match="overflow"):
            write_labelmap(np.array([[70000]], dtype=np.int64))

    def test_write_read_write_idempotent(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 9, (12, 7)).astype(np.int32)
        once = write_labelmap(labels)
        twice = write_labelmap(read_labelmap(once))
        assert once == twice

    @pytest.mark.parametrize("top", [1, 9, 255, 65535])
    def test_matches_per_row_reference(self, top):
        rng = np.random.default_rng(top)
        labels = np.where(rng.random((9, 14)) < 0.1, rng.integers(1, top + 1, (9, 14)), 0)
        labels[4, 6] = top  # sparse: a few voxels, one of them the top label
        for grid in [labels] + on_fill(0, rng.integers(1, top + 1, (9, 14))):
            (h, w), maxval = grid.shape, max(int(grid.max()), 1)
            rows = "".join(" ".join(map(str, row)) + "\n" for row in grid.tolist())
            assert write_labelmap(grid) == f"P2\n{w} {h}\n{maxval}\n{rows}".encode("ascii")

    def test_mask_matches_per_row_reference(self):
        masks = [random_mask(2, size=11), np.zeros((3, 5), dtype=bool), np.ones((1, 4), dtype=bool)]
        for mask in masks + on_fill(False, np.ones((9, 14), dtype=bool)):
            h, w = mask.shape
            rows = "".join(" ".join(map(str, row)) + "\n" for row in mask.astype(int).tolist())
            assert write_mask(mask) == f"P2\n{w} {h}\n1\n{rows}".encode("ascii")

    def test_read_preserves_values(self):
        labels = np.array([[0, 3], [16, 1]], dtype=np.int32)
        assert np.array_equal(read_labelmap(write_labelmap(labels)), labels)


class TestFieldCsv:
    def test_single_zero(self):
        assert write_field_csv(np.zeros((1, 1))) == b"0\n"

    def test_one_and_inf(self):
        field = np.array([[1.0, np.inf]])
        assert write_field_csv(field) == b"1,inf\n"

    def test_zero_is_written_without_its_sign(self):
        # the one value whose bits do not survive: -0.0 reads back as 0.0
        assert write_field_csv(np.array([[-0.0, 1.5]])) == b"0,1.5\n"
        back = read_field_csv(write_field_csv(np.array([[-0.0, -0.0]])))
        assert back.tolist() == [[0.0, 0.0]] and not np.signbit(back).any()

    @staticmethod
    def fields():
        rng = np.random.default_rng(4)
        field = rng.random((13, 17)) * 10.0 ** rng.integers(-8, 30, size=(13, 17))
        field[rng.random((13, 17)) < 0.3] = np.inf
        field[rng.random((13, 17)) < 0.2] = 7.0
        return [
            field,
            np.array([[-0.0, 0.0, 1.5], [0.0, -0.0, 2.0]]),  # equal values, distinct bits
            np.array([[2.0**53, 2.0**53 + 2, 2.0**53 - 1, 2.0**52 + 0.5]]),
            np.array([[1e300, 5e-324], [np.inf, 1.7976931348623157e308]]),
            np.full((3, 4), np.inf),
            rng.random((1, 23)) * 50.0,
            rng.random((23, 1)) * 50.0,
            np.arange(1, 61, dtype=np.float64).reshape(6, 10) / 7.0,  # all cells distinct
            *on_fill(np.inf, rng.random((9, 14)) * 50.0),  # finite cells on an inf fill
            *on_fill(-0.0, np.where(rng.random((9, 14)) < 0.5, 0.0, 2.5)),  # -0.0 fill, 0.0 elsewhere
        ]

    def test_matches_per_cell_reference(self):
        def cell(v):
            if math.isinf(v):
                return "inf"
            return str(int(v)) if v == math.floor(v) else repr(v)

        for f in self.fields():
            expected = "".join(",".join(cell(float(v)) for v in row) + "\n" for row in f)
            assert write_field_csv(f) == expected.encode("ascii")

    def test_read_matches_per_cell_float(self):
        # Every bit must be what a float() per cell gives, including signed
        # zeros and underscores in hand-written files.
        for data in [write_field_csv(f) for f in self.fields()] + [b"-0,0, 1.5\n0,-0,1_0\n"]:
            rows = [line.split(",") for line in data.decode("ascii").split("\n") if line]
            want = np.array([[float(cell) for cell in row] for row in rows])
            got = read_field_csv(data)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_one_bad_cell_among_repeats_rejected(self):
        data = write_field_csv(np.full((6, 7), 3.5)).replace(b"3.5", b"3.5x", 1)
        with pytest.raises(ValidationError, match="not a number"):
            read_field_csv(data)

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(8)
        field = rng.random((9, 11)) * 1000.0
        field[rng.random((9, 11)) < 0.1] = np.inf
        back = read_field_csv(write_field_csv(field))
        assert np.array_equal(back, field)

    def test_empty_grids(self):
        # no cell to take a fill from: one empty line per row, and one for no rows
        assert write_field_csv(np.zeros((3, 0))) == b"\n\n\n"
        assert write_field_csv(np.zeros((0, 2))) == b"\n"
        # a graymap of no rows would not read back, so none is written
        with pytest.raises(ValidationError, match=r"^grid dimensions must be >= 1, got 4x0$"):
            write_labelmap(np.zeros((0, 4), dtype=np.int32))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            write_field_csv(np.array([[np.nan]]))

    @pytest.mark.parametrize("data", [b"1,2\n3\n", b"1,x\n", b"1,\n", b"1,\xff\n", b"nan,1\n", b"-1,1\n"])
    def test_malformed_field_rejected(self, data):
        with pytest.raises(ValidationError):
            read_field_csv(data)

    def test_empty_field_file_rejected(self):
        with pytest.raises(ValidationError, match="^empty field file$"):
            read_field_csv(b"")


class TestRegionStats:
    def test_single_voxel(self):
        labels = np.zeros((8, 8), dtype=np.int32)
        labels[5, 3] = 1
        (s,) = region_stats(labels)
        assert s.label == 1
        assert s.area == 1
        assert s.centroid == (3.0, 5.0)
        assert s.bbox == (3, 5, 3, 5)

    def test_block_centroid(self):
        labels = np.zeros((3, 3), dtype=np.int32)
        labels[0:2, 0:2] = 1
        (s,) = region_stats(labels)
        assert s.centroid == (0.5, 0.5)

    def test_empty_map(self):
        assert region_stats(np.zeros((4, 4), dtype=np.int32)) == []
        assert stats_jsonl([]) == b""

    def test_matches_per_label_reference(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 6, (17, 23))
        labels[labels == 3] = 0  # a gap in the label range
        labels[16, 22] = 65535
        stats = region_stats(labels)
        assert [s.label for s in stats] == [1, 2, 4, 5, 65535]
        for s in stats:
            ys, xs = np.nonzero(labels == s.label)
            assert s.area == xs.size
            assert s.centroid == (float(xs.mean()), float(ys.mean()))
            assert s.bbox == (int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))
            assert type(s.label) is int and type(s.area) is int and type(s.centroid[0]) is float
            assert all(type(v) is int for v in s.bbox)

    def test_jsonl_stable_format(self):
        labels = np.zeros((2, 3), dtype=np.int32)
        labels[0, 0] = 1
        labels[1, :] = 2
        payload = stats_jsonl(region_stats(labels))
        lines = payload.decode().splitlines()
        assert lines[0] == '{"label": 1, "area": 1, "centroid": [0.0, 0.0], "bbox": [0, 0, 0, 0]}'
        parsed = json.loads(lines[1])
        assert parsed == {"label": 2, "area": 3, "centroid": [1.0, 1.0], "bbox": [0, 1, 2, 1]}
        assert stats_jsonl(region_stats(labels)) == payload
