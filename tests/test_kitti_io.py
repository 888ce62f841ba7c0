import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono3d.kitti_io import (CalibFormatError, Difficulty,
                             LabelFormatError, ObjectAnnotation, assign_difficulty,
                             format_label_line, frame_id, parse_calib_file, parse_label_file,
                             read_split_file, write_prediction_file)

FIXTURE_LINE = ("Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 "
                "1.65 1.67 3.64 -0.65 1.71 46.70 -1.59")


class TestParseLabelFile:
    def test_fixture_line_fields(self):
        (a,) = parse_label_file(FIXTURE_LINE)
        assert a.class_name == "Car"
        assert a.truncation == 0.0
        assert a.occlusion == 0
        assert a.alpha == pytest.approx(-1.58)
        assert a.box2d == pytest.approx((587.01, 173.33, 614.12, 200.12))
        assert a.dims == pytest.approx((1.65, 1.67, 3.64))
        assert a.location == pytest.approx((-0.65, 1.71, 46.70))
        assert a.rotation_y == pytest.approx(-1.59)
        assert a.score is None

    def test_empty_file(self):
        assert parse_label_file("") == []
        assert parse_label_file("\n\n") == []

    def test_trailing_score(self):
        (a,) = parse_label_file(FIXTURE_LINE + " 0.97")
        assert a.score == pytest.approx(0.97)

    def test_unknown_class_preserved(self):
        (a,) = parse_label_file(FIXTURE_LINE.replace("Car", "Tram"))
        assert a.class_name == "Tram"

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
        (a,) = parse_label_file(" ".join(tokens))
        assert a.occlusion == 2

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
        (a,) = parse_label_file(" ".join(tokens))
        assert a.dims == pytest.approx((1.65, 0.0, 3.64))

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
        (a,) = parse_label_file("Car 0 0 0 10 60 10 60 1.5 1.6 3.9 1 1.6 10 0.9")
        assert a.box_height == 0.0

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
        (a,) = parse_label_file(" ".join(tokens))
        assert a.truncation == float(value)

    def test_prediction_keeps_unknown_truncation(self):
        # KITTI result files write -1 for fields a detector does not estimate.
        (a,) = parse_label_file(FIXTURE_LINE.replace("Car 0.00", "Car -1") + " 0.9")
        assert a.truncation == -1.0
        assert a.score == pytest.approx(0.9)

    def test_dont_care_keeps_placeholders(self):
        line = "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10"
        (a,) = parse_label_file(line)
        assert a.occlusion == -1
        assert a.dims == (-1.0, -1.0, -1.0)
        assert a.location == (-1000.0, -1000.0, -1000.0)

    def test_file_order_preserved(self):
        text = "\n".join([FIXTURE_LINE.replace("Car", c)
                          for c in ("Car", "Van", "Truck")])
        assert [a.class_name for a in parse_label_file(text)] == ["Car", "Van", "Truck"]


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
        (a,) = parse_label_file(FIXTURE_LINE)
        line = format_label_line(a)
        assert len(line.split()) == 15
        assert format_label_line(parse_label_file(line)[0]) == line

    def test_sixteen_fields_with_a_score(self):
        (a,) = parse_label_file(FIXTURE_LINE + " 0.97")
        line = format_label_line(a)
        assert len(line.split()) == 16
        assert line.split()[-1] == "0.970000"
        assert format_label_line(parse_label_file(line)[0]) == line


class TestWritePredictionFile:
    def test_empty(self):
        assert write_prediction_file([]) == ""

    def test_requires_score(self):
        (a,) = parse_label_file(FIXTURE_LINE)
        with pytest.raises(ValueError):
            write_prediction_file([a])

    def test_order_and_line_count(self):
        (a,) = parse_label_file(FIXTURE_LINE + " 0.9")
        b = parse_label_file(FIXTURE_LINE.replace("Car", "Van") + " 0.5")[0]
        out = write_prediction_file([a, b, a])
        assert len(out.splitlines()) == 3
        assert [l.split()[0] for l in out.splitlines()] == ["Car", "Van", "Car"]

    def test_single_round_trip(self):
        (a,) = parse_label_file(FIXTURE_LINE + " 0.97")
        (back,) = parse_label_file(write_prediction_file([a]))
        assert back == a


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
        assert len(parsed) == len(annotations)
        for before, after in zip(annotations, parsed):
            assert after.class_name == before.class_name
            assert after.occlusion == before.occlusion
            for name in ("truncation", "alpha", "rotation_y", "score"):
                assert getattr(after, name) == pytest.approx(
                    getattr(before, name), abs=5.1e-7)
            for name in ("box2d", "dims", "location"):
                assert getattr(after, name) == pytest.approx(
                    getattr(before, name), abs=5.1e-7)

    @settings(max_examples=50)
    @given(st.lists(annotation_strategy(), max_size=5))
    def test_serialisation_is_a_fixpoint(self, annotations):
        once = write_prediction_file(annotations)
        assert write_prediction_file(parse_label_file(once)) == once


class TestAssignDifficulty:
    def make(self, height, trunc, occ):
        return ObjectAnnotation(
            class_name="Car", truncation=trunc, occlusion=occ, alpha=0.0,
            box2d=(100.0, 100.0, 150.0, 100.0 + height), dims=(1.5, 1.6, 3.9),
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
        assert assign_difficulty(self.make(height, trunc, occ)) == expected

    @given(st.floats(min_value=10, max_value=120, allow_nan=False),
           st.floats(min_value=0, max_value=1, allow_nan=False),
           st.sampled_from([0, 1, 2, 3]))
    def test_monotone_in_all_criteria(self, height, trunc, occ):
        # relaxing any criterion never moves an object to a harder tier
        base = assign_difficulty(self.make(height, trunc, occ))
        assert assign_difficulty(self.make(height + 5, trunc, occ)) <= base
        assert assign_difficulty(self.make(height, max(trunc - 0.1, 0), occ)) <= base
        assert assign_difficulty(self.make(height, trunc, max(occ - 1, 0))) <= base


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

    def test_frame_id_padding(self):
        assert frame_id(7) == "000007"
        assert frame_id(123456) == "123456"
