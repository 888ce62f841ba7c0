import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_assign_difficulty, reference_parse_label_file, records
from test_fuzz_cli import TOKENS as FUZZ_TOKENS
from mono3d.kitti_io import (ALPHA, BOTTOM, DIMS, LEFT, LOCATION, OCCLUSION, ROTATION_Y, SCORE,
                             TOP, TRUNCATION, CalibFormatError, Difficulty, LabelFormatError,
                             LabelTable, ObjectAnnotation, assign_difficulty, format_label_line,
                             frame_id, parse_calib_file, parse_label_file, read_split_file,
                             write_prediction_file)

FIXTURE_LINE = ("Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 "
                "1.65 1.67 3.64 -0.65 1.71 46.70 -1.59")

# Characters str.splitlines ends a line at besides "\n" and "\r": a KITTI
# file ends a line at "\n" only.
OTHER_LINE_BREAKS = {"vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "gs": "\x1d", "rs": "\x1e",
                     "nel": "\x85", "ls": "\u2028", "ps": "\u2029"}


class TestParseLabelFile:
    def test_fixture_line_fields(self):
        table = parse_label_file(FIXTURE_LINE)
        assert (table.class_names, table.line_numbers) == (["Car"], [1])
        (row,) = table.values
        assert row.dtype == np.float64
        assert row[TRUNCATION] == 0.0
        assert row[OCCLUSION] == 0
        assert row[ALPHA] == pytest.approx(-1.58)
        assert row[LEFT:BOTTOM + 1] == pytest.approx((587.01, 173.33, 614.12, 200.12))
        assert row[DIMS] == pytest.approx((1.65, 1.67, 3.64))
        assert row[LOCATION] == pytest.approx((-0.65, 1.71, 46.70))
        assert row[ROTATION_Y] == pytest.approx(-1.59)
        assert math.isnan(row[SCORE])

    def test_empty_file(self):
        for text in ("", "\n\n"):
            table = parse_label_file(text)
            assert len(table) == 0
            assert (table.class_names, table.values.shape, table.line_numbers) == ([], (0, 15), [])

    def test_trailing_score(self):
        table = parse_label_file(FIXTURE_LINE + " 0.97")
        assert table.values[0, SCORE] == pytest.approx(0.97)

    def test_unknown_class_preserved(self):
        assert parse_label_file(FIXTURE_LINE.replace("Car", "Tram")).class_names == ["Tram"]

    @pytest.mark.parametrize("n_fields", [14, 17])
    def test_wrong_field_count(self, n_fields):
        tokens = (FIXTURE_LINE + " 0.97 0.5").split()[:n_fields]
        with pytest.raises(LabelFormatError):
            parse_label_file(" ".join(tokens))

    def test_error_carries_location(self):
        bad = FIXTURE_LINE.replace("46.70", "46.7O")
        with pytest.raises(LabelFormatError) as exc:
            parse_label_file("\n" + FIXTURE_LINE + "\n" + bad + "\n")
        assert exc.value.line_number == 3
        assert exc.value.field_index == 13

    @pytest.mark.parametrize("value", ["nan", "-inf", "inf"])
    @pytest.mark.parametrize("field_index,text", [(8, FIXTURE_LINE),
                                                  (13, FIXTURE_LINE),
                                                  (15, FIXTURE_LINE + " 0.97")],
                             ids=["dims", "location", "score"])
    def test_non_finite_value_located(self, value, field_index, text):
        tokens = text.split()
        tokens[field_index] = value
        with pytest.raises(LabelFormatError, match="not finite") as exc:
            parse_label_file(FIXTURE_LINE + "\n" + " ".join(tokens) + "\n")
        assert exc.value.line_number == 2
        assert exc.value.field_index == field_index

    # float() reads each as 10 or 30; no KITTI file holds them.
    @pytest.mark.parametrize("value,message", [
        ("1_0", "field '1_0' is not a number"),
        ("\u0663\u0660", "character '\u0663' is not ASCII"),
        ("\uff11\uff10", "character '\uff11' is not ASCII"),
    ], ids=["underscore", "arabic-indic", "full-width"])
    def test_non_kitti_number_located(self, value, message):
        tokens = FIXTURE_LINE.split()
        tokens[13] = value
        with pytest.raises(LabelFormatError) as exc:
            parse_label_file(FIXTURE_LINE + "\n" + " ".join(tokens) + "\n")
        assert str(exc.value) == f"{message} (field 13)"
        assert (exc.value.line_number, exc.value.field_index) == (2, 13)

    def test_byte_order_mark_located(self):
        # Not read as part of the first class name: "\ufeffCar" is no Car.
        with pytest.raises(LabelFormatError) as exc:
            parse_label_file("\ufeff" + FIXTURE_LINE + "\n")
        assert str(exc.value) == "character '\\ufeff' is not ASCII (field 0)"
        assert (exc.value.line_number, exc.value.field_index) == (1, 0)

    @pytest.mark.parametrize("text", ["\u00a0\n", FIXTURE_LINE.replace(" ", "\u3000", 1)],
                             ids=["blank-line", "separator"])
    def test_non_ascii_whitespace_located(self, text):
        with pytest.raises(LabelFormatError, match="is not ASCII$") as exc:
            parse_label_file(FIXTURE_LINE + "\n" + text)
        assert (exc.value.line_number, exc.value.field_index) == (2, None)

    @pytest.mark.parametrize("separator", OTHER_LINE_BREAKS.values(), ids=OTHER_LINE_BREAKS)
    def test_line_ends_only_at_newline(self, separator):
        text = FIXTURE_LINE + separator + FIXTURE_LINE + "\n" + FIXTURE_LINE
        message = ("expected 15 or 16 fields, got 30" if separator.isascii()
                   else f"character {separator!r} is not ASCII")
        with pytest.raises(LabelFormatError) as exc:
            parse_label_file(text)
        assert (str(exc.value), exc.value.line_number, exc.value.field_index) == (
            message, 1, None)
        assert_parsers_agree(text)

    def test_carriage_return_before_newline_is_whitespace(self):
        table = parse_label_file(FIXTURE_LINE + "\r\n" + FIXTURE_LINE + "\r\n")
        assert table.line_numbers == [1, 2]

    def test_underscore_in_class_name_accepted(self):
        table = parse_label_file(FIXTURE_LINE.replace("Car", "Person_sitting"))
        assert table.class_names == ["Person_sitting"]

    @pytest.mark.parametrize("value", ["1.7", "0.5", "-0.1"])
    def test_fractional_occlusion_located(self, value):
        tokens = FIXTURE_LINE.split()
        tokens[2] = value
        with pytest.raises(LabelFormatError, match="not an integer") as exc:
            parse_label_file(FIXTURE_LINE + "\n" + " ".join(tokens) + "\n")
        assert exc.value.line_number == 2
        assert exc.value.field_index == 2

    def test_integral_occlusion_written_as_real(self):
        tokens = FIXTURE_LINE.split()
        tokens[2] = "2.0"
        assert parse_label_file(" ".join(tokens)).values[0, OCCLUSION] == 2.0

    @pytest.mark.parametrize("field_index", [8, 9, 10])
    def test_negative_dimension_located(self, field_index):
        tokens = FIXTURE_LINE.split()
        tokens[field_index] = "-1.5"
        with pytest.raises(LabelFormatError, match="negative") as exc:
            parse_label_file(FIXTURE_LINE + "\n" + " ".join(tokens) + "\n")
        assert exc.value.line_number == 2
        assert exc.value.field_index == field_index

    def test_zero_dimension_accepted(self):
        tokens = FIXTURE_LINE.split()
        tokens[9] = "0.00"
        assert parse_label_file(" ".join(tokens)).values[0, DIMS] == pytest.approx((1.65, 0.0, 3.64))

    @pytest.mark.parametrize("field_index,value", [(6, "587.00"), (7, "173.32"),
                                                   (6, "0"), (7, "-200.12")])
    def test_inverted_box_located(self, field_index, value):
        tokens = FIXTURE_LINE.split()
        tokens[field_index] = value
        with pytest.raises(LabelFormatError, match="lies before") as exc:
            parse_label_file(FIXTURE_LINE + "\n" + " ".join(tokens) + "\n")
        assert exc.value.line_number == 2
        assert exc.value.field_index == field_index

    def test_inverted_box_on_prediction_line_located(self):
        with pytest.raises(LabelFormatError, match="lies before") as exc:
            parse_label_file("Car 0 0 0 0 60 10 10 1.5 1.6 3.9 1 1.6 10 0.9 0.8")
        assert exc.value.field_index == 7

    def test_zero_size_box_accepted(self):
        table = parse_label_file("Car 0 0 0 10 60 10 60 1.5 1.6 3.9 1 1.6 10 0.9")
        assert table.values[0, BOTTOM] - table.values[0, TOP] == 0.0

    @pytest.mark.parametrize("value", ["1.7", "-0.01", "-1", "1.000001"])
    def test_truncation_out_of_range_located(self, value):
        tokens = FIXTURE_LINE.split()
        tokens[1] = value
        with pytest.raises(LabelFormatError, match="truncation") as exc:
            parse_label_file(" ".join(tokens))
        assert exc.value.line_number == 1
        assert exc.value.field_index == 1

    @pytest.mark.parametrize("value", ["0", "1", "0.5"])
    def test_truncation_bounds_accepted(self, value):
        tokens = FIXTURE_LINE.split()
        tokens[1] = value
        assert parse_label_file(" ".join(tokens)).values[0, TRUNCATION] == float(value)

    def test_prediction_keeps_unknown_truncation(self):
        # KITTI result files write -1 for fields a detector does not estimate.
        table = parse_label_file(FIXTURE_LINE.replace("Car 0.00", "Car -1") + " 0.9")
        assert table.values[0, TRUNCATION] == -1.0
        assert table.values[0, SCORE] == pytest.approx(0.9)

    def test_dont_care_keeps_placeholders(self):
        line = "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10"
        (row,) = parse_label_file(line).values
        assert row[OCCLUSION] == -1.0
        assert row[DIMS].tolist() == [-1.0, -1.0, -1.0]
        assert row[LOCATION].tolist() == [-1000.0, -1000.0, -1000.0]

    def test_file_order_preserved(self):
        text = "\n".join([FIXTURE_LINE.replace("Car", c)
                          for c in ("Car", "Van", "Truck")])
        table = parse_label_file("\n" + text)
        assert table.class_names == ["Car", "Van", "Truck"]
        assert table.line_numbers == [2, 3, 4]


class TestParseCalibFile:
    def test_direct_extraction(self):
        calib = parse_calib_file("P2: 700 0 600 0 0 700 170 0 0 0 1 0\n")
        assert calib.f == 700.0
        assert calib.theta == 600.0
        assert calib.phi == 170.0

    def test_other_keys_ignored(self):
        text = "P0: 1 0 0 0 0 1 0 0 0 0 1 0\nP2: 700 0 600 0 0 700 170 0 0 0 1 0\n"
        assert parse_calib_file(text).f == 700.0

    def test_too_few_values(self):
        with pytest.raises(CalibFormatError):
            parse_calib_file("P2: 700 0 600 0 0 700 170 0 0 0 1\n")

    def test_missing_p2(self):
        with pytest.raises(CalibFormatError):
            parse_calib_file("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n")

    def test_negative_focal_length(self):
        with pytest.raises(CalibFormatError):
            parse_calib_file("P2: -1 0 600 0 0 700 170 0 0 0 1 0\n")

    # f, theta and phi are P2 values 0, 2 and 6.
    @pytest.mark.parametrize("slot", [0, 2, 6])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_intrinsic_rejected(self, slot, value):
        values = "700 0 600 0 0 700 170 0 0 0 1 0".split()
        values[slot] = value
        with pytest.raises(CalibFormatError, match="P2 values must be finite") as err:
            parse_calib_file("P2: " + " ".join(values) + "\n")
        assert " ".join(values) in str(err.value)

    @pytest.mark.parametrize("value", ["1_0", "\u0663\u0660", "\uff11\uff10", "\ufeff700"],
                             ids=["underscore", "arabic-indic", "full-width", "bom"])
    def test_non_kitti_number_rejected(self, value):
        text = f"P2: {value} 0 600 0 0 700 170 0 0 0 1 0"
        with pytest.raises(CalibFormatError) as err:
            parse_calib_file(text + "\n")
        assert str(err.value) == f"P2 values must be plain ASCII numbers, got {text[4:]!r}"

    def test_byte_order_mark_before_p2_rejected(self):
        with pytest.raises(CalibFormatError, match="no P2 line found"):
            parse_calib_file("\ufeffP2: 700 0 600 0 0 700 170 0 0 0 1 0\n")

    @pytest.mark.parametrize("separator", OTHER_LINE_BREAKS.values(), ids=OTHER_LINE_BREAKS)
    def test_p2_after_a_line_break_other_than_newline_rejected(self, separator):
        text = "P0: 1 0 0 0 0 1 0 0 0 0 1 0" + separator + "P2: 700 0 600 0 0 700 170 0 0 0 1 0\n"
        with pytest.raises(CalibFormatError, match="^no P2 line found$"):
            parse_calib_file(text)

    @pytest.mark.parametrize("text,message", [
        ("P2: 700 0 600 0 0 700 170 0 0 0 1 0 99 abc\n", "P2 needs 12 values, got 14"),
        ("P2: 700 0 600 0 0 700 170 0 0 0 1 0\nP2: 700 0 600 0 0 700 170 0 0 0 1 0\n",
         "P2 must be given once, got 2 P2 lines"),
        ("P2: 700 0 600 0 0 700 170 0 0 0 0 0\n", "P2 third row has no depth axis"),
    ], ids=["extra-values", "second-p2", "zero-depth-row"])
    def test_malformed_p2_rejected(self, text, message):
        with pytest.raises(CalibFormatError, match=message):
            parse_calib_file(text)


class TestFormatLabelLine:
    def test_fifteen_fields_without_a_score(self):
        (a,) = records(parse_label_file(FIXTURE_LINE))
        line = format_label_line(a)
        assert len(line.split()) == 15
        assert format_label_line(records(parse_label_file(line))[0]) == line

    def test_sixteen_fields_with_a_score(self):
        (a,) = records(parse_label_file(FIXTURE_LINE + " 0.97"))
        line = format_label_line(a)
        assert len(line.split()) == 16
        assert line.split()[-1] == "0.970000"
        assert format_label_line(records(parse_label_file(line))[0]) == line


class TestWritePredictionFile:
    def test_empty(self):
        assert write_prediction_file([]) == ""

    def test_requires_score(self):
        (a,) = records(parse_label_file(FIXTURE_LINE))
        with pytest.raises(ValueError):
            write_prediction_file([a])

    def test_order_and_line_count(self):
        (a,) = records(parse_label_file(FIXTURE_LINE + " 0.9"))
        (b,) = records(parse_label_file(FIXTURE_LINE.replace("Car", "Van") + " 0.5"))
        out = write_prediction_file([a, b, a])
        assert len(out.splitlines()) == 3
        assert [l.split()[0] for l in out.splitlines()] == ["Car", "Van", "Car"]

    def test_single_round_trip(self):
        table = parse_label_file(FIXTURE_LINE + " 0.97")
        back = parse_label_file(write_prediction_file(records(table)))
        assert back.class_names == table.class_names
        assert back.values.tolist() == table.values.tolist()


def annotation_strategy(with_score=True):
    real = st.floats(min_value=-300.0, max_value=300.0,
                     allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.1, max_value=300.0,
                         allow_nan=False, allow_infinity=False)
    angle = st.floats(min_value=-math.pi, max_value=math.pi,
                      allow_nan=False, allow_infinity=False)

    def build(cls, trunc, occ, alpha, left, top, w, h, d0, d1, d2, x, y, z, ry, score):
        return ObjectAnnotation(
            class_name=cls, truncation=trunc, occlusion=occ, alpha=alpha,
            box2d=(left, top, left + w, top + h), dims=(d0, d1, d2),
            location=(x, y, z), rotation_y=ry,
            score=score if with_score else None)

    return st.builds(
        build,
        st.sampled_from(["Car", "Van", "Truck", "Pedestrian", "Cyclist", "Misc"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.sampled_from([0, 1, 2, 3]),
        angle,
        st.floats(min_value=0.0, max_value=1200.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=370.0, allow_nan=False),
        positive, positive, positive, positive, positive,
        real, real,
        st.floats(min_value=0.5, max_value=150.0, allow_nan=False),
        angle,
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )


class TestRoundTripProperty:
    @settings(max_examples=200)
    @given(st.lists(annotation_strategy(), max_size=8))
    def test_write_then_parse_identity_at_6_decimals(self, annotations):
        parsed = parse_label_file(write_prediction_file(annotations))
        before = LabelTable.of(annotations)
        assert len(parsed) == len(annotations)
        assert parsed.class_names == before.class_names
        assert parsed.line_numbers == list(range(1, len(annotations) + 1))
        assert (parsed.values[:, OCCLUSION] == before.values[:, OCCLUSION]).all()
        assert np.abs(parsed.values - before.values).max(initial=0.0) <= 5.1e-7

    @settings(max_examples=50)
    @given(st.lists(annotation_strategy(), max_size=5))
    def test_serialisation_is_a_fixpoint(self, annotations):
        once = write_prediction_file(annotations)
        assert write_prediction_file(records(parse_label_file(once))) == once


def tier(a: ObjectAnnotation) -> Difficulty:
    """``assign_difficulty`` of one record, through a one-row table."""
    (code,) = assign_difficulty(LabelTable.of([a])).tolist()
    return Difficulty(code)


class TestAssignDifficulty:
    def make(self, height, trunc, occ, class_name="Car"):
        # top = 0, so the box height is exactly bottom - top = height.
        return ObjectAnnotation(
            class_name=class_name, truncation=trunc, occlusion=occ, alpha=0.0,
            box2d=(100.0, 0.0, 150.0, height), dims=(1.5, 1.6, 3.9),
            location=(0.0, 1.6, 20.0), rotation_y=0.0)

    @pytest.mark.parametrize("height,trunc,occ,expected", [
        (50, 0.0, 0, Difficulty.EASY),
        (30, 0.2, 1, Difficulty.MODERATE),
        (20, 0.0, 0, Difficulty.IGNORED),
        (41, 0.15, 0, Difficulty.EASY),
        (26, 0.5, 2, Difficulty.HARD),
        (26, 0.51, 2, Difficulty.IGNORED),
        (100, 0.0, 3, Difficulty.IGNORED),
        (100, 0.0, 1, Difficulty.MODERATE),
        (40, 0.0, 0, Difficulty.MODERATE),  # height must exceed 40 for easy
        (25, 0.0, 0, Difficulty.IGNORED),   # and exceed 25 for the rest
    ])
    def test_tiers(self, height, trunc, occ, expected):
        assert tier(self.make(height, trunc, occ)) == expected

    @given(st.floats(min_value=10, max_value=120, allow_nan=False),
           st.floats(min_value=0, max_value=1, allow_nan=False),
           st.sampled_from([0, 1, 2, 3]))
    def test_monotone_in_all_criteria(self, height, trunc, occ):
        # relaxing any criterion never moves an object to a harder tier
        base = tier(self.make(height, trunc, occ))
        assert tier(self.make(height + 5, trunc, occ)) <= base
        assert tier(self.make(height, max(trunc - 0.1, 0), occ)) <= base
        assert tier(self.make(height, trunc, max(occ - 1, 0))) <= base

    def test_every_tier_boundary_matches_the_scalar_rules(self):
        # Each height and truncation bound, one ulp either side, under
        # every occlusion code, for Cars and for DontCare rows with their
        # -1 placeholders; one call tiers them all.
        def around(bound):
            return [np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)]

        heights = [0.0, *around(25.0), 30.0, *around(40.0), 60.0]
        truncations = [-1.0, 0.0, *around(0.15), *around(0.30), *around(0.50), 1.0]
        cars = [self.make(float(h), float(t), occ) for h in heights for t in truncations
                for occ in range(-1, 4)]
        dont_care = [self.make(float(h), -1.0, -1, class_name="DontCare") for h in heights]
        objects = cars + dont_care
        expected = [int(reference_assign_difficulty(a)) for a in objects]
        assert assign_difficulty(LabelTable.of(objects)).tolist() == expected
        assert [tier(a) for a in objects] == expected
        assert set(expected) == set(Difficulty)


# Label lines the mutations start from: a label, a prediction, a
# prediction with an unknown truncation, and a DontCare row.
BASE_LINES = [FIXTURE_LINE, FIXTURE_LINE + " 0.97",
              FIXTURE_LINE.replace("Car 0.00", "Car -1") + " 0.9",
              "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10"]
MUTATIONS = [*FUZZ_TOKENS, "+nan", "Infinity", "-Infinity", "1e-400", "-1", "0", "2", "3",
             "1.7", "0.5", "-1.5", "1_000", "\u0663", "\uff11\uff10", "\ufeffCar",
             "1\u00a00", "\u3000", "Person_sitting", "DontCare"]


@st.composite
def mutated_label_file(draw):
    """1-5 base lines, each maybe blank-separated, with up to four fields
    replaced by awkward tokens and maybe a later line a field short or
    long."""
    lines = [line.split(" ") for line in
             draw(st.lists(st.sampled_from(BASE_LINES), min_size=1, max_size=5))]
    token = st.sampled_from(MUTATIONS) | st.text("0123456789-+._eEx", min_size=1, max_size=5)
    for _ in range(draw(st.integers(0, 4))):
        fields = lines[draw(st.integers(0, len(lines) - 1))]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(token)
    if len(lines) > 1 and draw(st.booleans()):
        fields = lines[draw(st.integers(1, len(lines) - 1))]
        if draw(st.booleans()):
            fields.pop()
        else:
            fields.append(draw(token))
    separators = draw(st.lists(st.sampled_from(["\n", "\n\n", "\n \n"]),
                               min_size=len(lines), max_size=len(lines)))
    return "".join(" ".join(fields) + sep for fields, sep in zip(lines, separators))


def parsed_or_error(parse, text):
    try:
        return parse(text), None
    except LabelFormatError as exc:
        return None, (str(exc), exc.line_number, exc.field_index)


def assert_parsers_agree(text):
    """The table parser accepts and rejects ``text`` as the record parser
    it replaced does, with the same message and location, and its columns
    hold the records' values bit for bit."""
    table, error = parsed_or_error(parse_label_file, text)
    annotations, expected_error = parsed_or_error(reference_parse_label_file, text)
    assert error == expected_error
    if error is not None:
        return
    expected = LabelTable.of(annotations)
    assert table.class_names == expected.class_names
    assert table.line_numbers == [n for n, line in enumerate(text.split("\n"), start=1)
                                  if line.strip()]
    # A record keeps occlusion as an int, so a "-0" is 0 there and -0.0 in
    # the table: that column compares by value.
    others = np.arange(table.values.shape[1]) != OCCLUSION
    assert table.values[:, others].tobytes() == expected.values[:, others].tobytes()
    assert table.values[:, OCCLUSION].tolist() == expected.values[:, OCCLUSION].tolist()


class TestParserParity:
    @settings(max_examples=500)
    @given(mutated_label_file())
    def test_matches_the_record_parser(self, text):
        assert_parsers_agree(text)

    @pytest.mark.parametrize("text", [
        FIXTURE_LINE + "\n" + FIXTURE_LINE.rsplit(" ", 1)[0],
        FIXTURE_LINE + "\n\n" + FIXTURE_LINE + " 0.9 0.9",
        FIXTURE_LINE.replace("0.00", "+nan", 1),
        FIXTURE_LINE.replace("46.70", "Infinity"),
        FIXTURE_LINE.replace("46.70", "1_0"),
        FIXTURE_LINE.replace("46.70", "0x10"),
        FIXTURE_LINE.replace("46.70", "\u00b2"),
        FIXTURE_LINE.replace("614.12", "500").replace("200.12", "100"),
    ], ids=["short-later-line", "long-later-line", "+nan", "Infinity", "underscore", "hex",
            "superscript", "both-edges-inverted"])
    def test_seed_mutations(self, text):
        assert_parsers_agree(text)


class TestSplits:
    def test_read_split_file(self):
        assert read_split_file("000000\n000003\n\n000010\n") == \
            ["000000", "000003", "000010"]

    def test_repeated_frame_id_is_located(self):
        # Lines count from 1, blank lines included.
        with pytest.raises(ValueError, match=r"^split line 4: frame '000003' is already "
                                             r"listed on line 2$"):
            read_split_file("000000\n000003\n\n 000003 \n")

    @pytest.mark.parametrize("frame", ["../label_2/000001", "/data/000001", "sub/000001",
                                       ".", ".."])
    def test_frame_id_outside_its_directory_is_located(self, frame):
        with pytest.raises(ValueError, match=rf"^split line 2: frame {re.escape(repr(frame))} "
                                             r"must name a file in its directory"):
            read_split_file(f"000000\n {frame} \n000002\n")

    @pytest.mark.parametrize("separator", [" ", "\t", *OTHER_LINE_BREAKS.values()],
                             ids=["space", "tab", *OTHER_LINE_BREAKS])
    def test_frame_id_holding_whitespace_is_located(self, separator):
        frame = f"000001{separator}000002"
        with pytest.raises(ValueError, match=rf"^split line 2: frame {re.escape(repr(frame))} "
                                             r"holds whitespace; list one frame id per line$"):
            read_split_file(f"000000\n{frame}\n000003\n")

    def test_frame_id_padding(self):
        assert frame_id(7) == "000007"
        assert frame_id(123456) == "123456"
