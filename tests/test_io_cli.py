"""Document parsing/printing round trips and command-line behavior."""

import dataclasses
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1geo import (
    __version__,
    BoxUnion,
    CellSet,
    L1Ball,
    ParseError,
    RatBox,
    VerifyConfig,
    parse_set,
    print_set,
)
from l1geo import cli, integral_geometry
from l1geo.cli import _build_parser, main
from l1geo.generators import gen_random_convex
from l1geo.integral_geometry import crofton_profile, kubota_profile
from l1geo.suites import Report, exact_record

F = Fraction


CELLSET_DOC = """
{
  "kind": "cellset",
  "dimension": 2,
  "resolution": "1/2",
  "cells": [[0, 0], [1, 0], [0, 1]]
}
"""

BOXUNION_DOC = """
{
  "kind": "boxunion",
  "dimension": 2,
  "boxes": [
    {"min": ["0", "0"], "max": ["3/2", "1"]},
    {"min": ["1", "0"], "max": ["2", "2"]}
  ]
}
"""

BALL_DOC = """
{
  "kind": "shape",
  "dimension": 2,
  "shape": {
    "type": "ball",
    "center": ["1/2", "0"],
    "radius": "5/4"
  }
}
"""


class TestParsing:
    def test_cellset(self):
        x = parse_set(CELLSET_DOC)
        assert x == CellSet(2, {(0, 0), (1, 0), (0, 1)}, F(1, 2))
        assert x.indices.tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_boxunion(self):
        u = parse_set(BOXUNION_DOC)
        assert u.dimension == 2 and len(u.boxes) == 2
        assert u.boxes[0] == RatBox((0, 0), (F(3, 2), 1))

    def test_ball(self):
        ball = parse_set(BALL_DOC)
        assert ball == L1Ball((F(1, 2), 0), F(5, 4))

    def test_round_trips(self):
        for text in (CELLSET_DOC, BOXUNION_DOC, BALL_DOC):
            x = parse_set(text)
            assert parse_set(print_set(x)) == x
            assert print_set(parse_set(print_set(x))) == print_set(x)

    def test_object_round_trips(self):
        boxes = [RatBox((0, 0), (F(3, 2), 1)), RatBox((1, 0), (2, 2))]
        objects = (
            CellSet(2, {(1, 0), (0, 0), (0, 1)}, F(1, 2)),
            BoxUnion(2, boxes),
            L1Ball((F(1, 2), 0), F(5, 4)),
        )
        for x in objects:
            assert parse_set(print_set(x)) == x
        # boxes are printed, and parsed, in sorted order
        assert print_set(BoxUnion(2, boxes[::-1])) == print_set(objects[1])
        assert parse_set(print_set(BoxUnion(2, boxes[::-1]))) == objects[1]

    def test_parsed_types(self):
        assert isinstance(parse_set(CELLSET_DOC), CellSet)
        assert isinstance(parse_set(BOXUNION_DOC), BoxUnion)
        assert isinstance(parse_set(BALL_DOC), L1Ball)
        with pytest.raises(TypeError):
            print_set(RatBox((0,), (1,)))

    def test_integer_resolution(self):
        x = parse_set('{"kind": "cellset", "dimension": 1, "resolution": "1", "cells": [[0]]}')
        assert x.resolution == 1


_BIG = 2**70
_rationals = st.builds(
    Fraction, st.integers(-_BIG, _BIG), st.sampled_from([1, 3, 2**64 + 1])
)


@st.composite
def _cellsets(draw):
    n = draw(st.integers(0, 3))
    cells = draw(st.lists(st.tuples(*[st.integers(-_BIG, _BIG)] * n), max_size=6))
    return CellSet(n, cells, draw(st.sampled_from([1, F(1, 3), F(5, 2)])))


@st.composite
def _boxunions(draw):
    n = draw(st.integers(0, 3))
    boxes = []
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.tuples(*[_rationals] * n))
        # a zero width gives a degenerate side
        widths = draw(st.tuples(*[st.sampled_from([0, 1, F(1, 3), 2**63 + 5])] * n))
        boxes.append(RatBox(lo, [a + w for a, w in zip(lo, widths)]))
    # parse_set returns the boxes sorted
    return BoxUnion(n, sorted(boxes, key=lambda b: (b.mins, b.maxs)))


_balls = st.integers(0, 3).flatmap(
    lambda n: st.builds(
        L1Ball,
        st.tuples(*[_rationals] * n),
        st.builds(Fraction, st.integers(1, _BIG), st.integers(1, 7)),
    )
)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_cellsets(), _boxunions(), _balls))
    def test_parse_print_round_trip(self, x):
        text = print_set(x)
        assert parse_set(text) == x
        assert print_set(parse_set(text)) == text


class TestParseErrors:
    def bad(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_set(text)
        assert fragment in str(err.value)

    def test_invalid_json(self):
        self.bad("{not json", "line 1")

    def test_unknown_kind(self):
        self.bad('{"kind": "polygon", "dimension": 2}', "kind")

    def test_missing_field(self):
        self.bad('{"kind": "cellset", "dimension": 2, "resolution": "1"}', "cells")

    def test_unknown_field(self):
        self.bad(
            '{"kind": "cellset", "dimension": 1, "resolution": "1", '
            '"cells": [[0]], "color": "red"}',
            "color",
        )

    def test_duplicate_cell(self):
        self.bad(
            '{"kind": "cellset", "dimension": 1, "resolution": "1", "cells": [[0], [0]]}',
            "duplicate",
        )

    def test_first_repeated_cell_is_reported(self):
        """Of two different duplicates, the one whose repeat comes first."""
        head = '{"kind": "cellset", "dimension": 2, "resolution": "1", "cells": '
        self.bad(head + "[[1, 0], [2, 0], [2, 0], [1, 0]]}", "duplicate cell [2, 0]")
        self.bad(head + "[[1, 0], [2, 0], [1, 0], [2, 0]]}", "duplicate cell [1, 0]")

    def test_dimension_mismatch(self):
        self.bad(
            '{"kind": "cellset", "dimension": 2, "resolution": "1", "cells": [[0]]}',
            "2 integers",
        )

    def test_zero_denominator(self):
        self.bad(
            '{"kind": "cellset", "dimension": 1, "resolution": "1/0", "cells": [[0]]}',
            "1/0",
        )

    def test_float_rejected(self):
        self.bad(
            '{"kind": "cellset", "dimension": 1, "resolution": 0.5, "cells": [[0]]}',
            "rational",
        )

    def test_min_above_max(self):
        self.bad(
            '{"kind": "boxunion", "dimension": 1, "boxes": [{"min": ["2"], "max": ["1"]}]}',
            "min",
        )

    def test_bad_radius(self):
        self.bad(
            '{"kind": "shape", "dimension": 1, '
            '"shape": {"type": "ball", "center": ["0"], "radius": "0"}}',
            "radius",
        )


@pytest.fixture
def tromino_file(tmp_path):
    path = tmp_path / "tromino.json"
    path.write_text(
        json.dumps(
            {
                "kind": "cellset",
                "dimension": 2,
                "resolution": "1",
                "cells": [[0, 0], [1, 0], [0, 1]],
            }
        )
    )
    return str(path)


@pytest.fixture
def gap_file(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(
        json.dumps(
            {
                "kind": "cellset",
                "dimension": 2,
                "resolution": "1",
                "cells": [[0, 0], [2, 0]],
            }
        )
    )
    return str(path)


class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"l1geo {__version__}\n"

    def test_check_convex_pass(self, tromino_file, capsys):
        assert main(["check-convex", tromino_file]) == 0
        assert "convex" in capsys.readouterr().out

    def test_check_convex_fail_with_witness(self, gap_file, capsys):
        assert main(["check-convex", gap_file]) == 1
        out = capsys.readouterr().out
        assert "[0, 0]" in out and "[2, 0]" in out

    def test_check_convex_json(self, gap_file, capsys):
        assert main(["check-convex", "--json", gap_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["convex"] is False
        assert payload["witness"] == [[0, 0], [2, 0]]

    def test_volumes(self, tromino_file, capsys):
        assert main(["volumes", tromino_file]) == 0
        out = capsys.readouterr().out
        assert "1" in out and "4" in out and "3" in out

    def test_volumes_json(self, tromino_file, capsys):
        assert main(["volumes", "--json", tromino_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["intrinsic_volumes"] == ["1", "4", "3"]

    def test_volumes_ball_closed_form(self, tmp_path, capsys):
        path = tmp_path / "ball.json"
        path.write_text(BALL_DOC)
        assert main(["volumes", str(path)]) == 0

    def test_pixellate_then_volumes(self, tmp_path, capsys):
        shape = tmp_path / "ball.json"
        shape.write_text(
            json.dumps(
                {
                    "kind": "shape",
                    "dimension": 2,
                    "shape": {"type": "ball", "center": ["0", "0"], "radius": "1"},
                }
            )
        )
        assert main(["pixellate", str(shape), "--resolution", "1"]) == 0
        x = parse_set(capsys.readouterr().out)
        assert isinstance(x, CellSet)
        assert len(x) == 12
        pix = tmp_path / "pix.json"
        pix.write_text(print_set(x))
        assert main(["volumes", "--json", str(pix)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["intrinsic_volumes"] == ["1", "8", "12"]

    def test_convexify(self, gap_file, capsys):
        assert main(["convexify", gap_file]) == 0
        x = parse_set(capsys.readouterr().out)
        assert (1, 0) in x.cells

    def test_steiner(self, tromino_file, capsys):
        assert main(["steiner", tromino_file, "--max-dilation", "2"]) == 0
        assert "pass" in capsys.readouterr().out.lower()

    def test_crofton(self, tromino_file, capsys):
        assert main(["crofton", tromino_file]) == 0
        capsys.readouterr()
        assert main(["crofton", tromino_file, "--k", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"]

    def test_kubota(self, tromino_file, capsys):
        assert main(["kubota", tromino_file, "--k", "1"]) == 0

    @pytest.mark.parametrize("command", ["crofton", "kubota"])
    def test_profile_fails_on_non_convex(self, command, gap_file, capsys):
        assert main([command, gap_file]) == 1
        out = capsys.readouterr().out
        assert f"FAIL {command}[k=1]" in out and f"FAIL {command}[k=2]" in out

    def test_kubota_bad_k(self, tromino_file, capsys):
        assert main(["kubota", tromino_file, "--k", "9"]) == 2

    @pytest.mark.parametrize("command", ["crofton", "kubota"])
    def test_profile_builds_one_grid(self, command, tmp_path, monkeypatch, capsys):
        """Without --k every k is read off one doubled grid, and the report
        is byte for byte the one of a profile call per k."""
        x = gen_random_convex(3, 3, 0.4, 7, resolution=F(1, 2))
        path = tmp_path / "x.json"
        text = print_set(x)
        path.write_text(text)
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        built = []
        grid = integral_geometry._doubled_grid
        monkeypatch.setattr(integral_geometry, "_doubled_grid", lambda y: built.append(y) or grid(y))
        assert main([command, str(path), "--json"]) == 0
        assert len(built) == 1
        profile = {"crofton": crofton_profile, "kubota": kubota_profile}[command]
        records = [exact_record(f"{command}[k={k}]", *profile(x, k)) for k in range(4)]
        report = Report(command, cli._digest(text), 0, tuple(records), 0.0)
        assert capsys.readouterr().out == report.to_json()

    def test_kinematic_exact(self, tromino_file, capsys):
        assert main(["kinematic", tromino_file]) == 0
        out = capsys.readouterr().out
        assert "8" in out

    def test_kinematic_box_flags(self, tromino_file, capsys):
        assert (
            main(
                [
                    "kinematic",
                    tromino_file,
                    "--box-min",
                    "0,0",
                    "--box-max",
                    "3/2,1",
                ]
            )
            == 0
        )

    def test_kinematic_mc(self, tromino_file, capsys):
        assert (
            main(
                [
                    "kinematic",
                    tromino_file,
                    "--degree",
                    "1",
                    "--samples",
                    "2000",
                    "--seed",
                    "3",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        rec = payload["records"][0]
        assert rec["kind"] == "mc"
        assert rec["passed"] is True

    def test_kinematic_negative_seed_exits_2(self, tromino_file, capsys):
        assert main(["kinematic", tromino_file, "--degree", "1", "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, not -5\n"

    def test_product(self, tromino_file, tmp_path, capsys):
        other = tmp_path / "interval.json"
        other.write_text(
            json.dumps(
                {
                    "kind": "cellset",
                    "dimension": 1,
                    "resolution": "1",
                    "cells": [[0], [1]],
                }
            )
        )
        assert main(["product", tromino_file, str(other)]) == 0

    def test_gen_pipes_into_check(self, tmp_path, capsys):
        assert main(["gen", "--bound", "4", "--density", "0.4", "--seed", "11"]) == 0
        doc_text = capsys.readouterr().out
        gen = tmp_path / "gen.json"
        gen.write_text(doc_text)
        assert main(["check-convex", str(gen)]) == 0

    def test_gen_deterministic(self, capsys):
        assert main(["gen", "--seed", "4", "--mode", "staircase"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--seed", "4", "--mode", "staircase"]) == 0
        assert capsys.readouterr().out == first

    def test_verify_small(self, capsys):
        assert main(["verify", "steiner", "--instances", "2", "--dimension", "2"]) == 0
        assert "pass" in capsys.readouterr().out.lower()

    def test_verify_json_deterministic(self, capsys):
        args = [
            "verify",
            "valuation",
            "--instances",
            "2",
            "--dimension",
            "2",
            "--json",
        ]
        assert main(args) == 0
        a = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        b = json.loads(capsys.readouterr().out)
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b
        assert a["records"]

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["check-convex", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_library_refusal_exits_2(self, tmp_path, capsys):
        # the library, not the flag parser, refuses the empty interval
        one = tmp_path / "one.json"
        doc = {"kind": "cellset", "dimension": 2, "resolution": "1", "cells": [[0, 0]]}
        one.write_text(json.dumps(doc))
        assert main(["kinematic", "--box-min", "2,0", "--box-max", "1,1", str(one)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_oversized_steiner_exits_2(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        doc = {"kind": "cellset", "dimension": 3, "resolution": "1", "cells": [[0, 0, 0]]}
        one.write_text(json.dumps(doc))
        assert main(["steiner", "--max-dilation", "2000", str(one)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "8012006001 cells" in err

    def test_missing_file(self, capsys):
        assert main(["volumes", "/nonexistent/path.json"]) == 2

    def test_wrong_kind_for_command(self, tmp_path, capsys):
        shape = tmp_path / "shape.json"
        shape.write_text(BALL_DOC)
        assert main(["check-convex", str(shape)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {shape}: expected a cellset document, got kind='shape'\n"

    def test_bad_usage(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    def test_stdin_dash(self, tromino_file, capsys, monkeypatch):
        import io

        text = open(tromino_file).read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["volumes", "-"]) == 0


# positional arguments of each subcommand, and a value for each flag
POSITIONALS = {
    "check-convex": ["a.json"],
    "volumes": ["a.json"],
    "pixellate": ["a.json"],
    "convexify": ["a.json"],
    "steiner": ["a.json"],
    "crofton": ["a.json"],
    "kubota": ["a.json"],
    "kinematic": ["a.json"],
    "product": ["a.json", "b.json"],
    "gen": [],
    "verify": ["steiner"],
}
FLAG_VALUES = {
    "--json": [], "--seed": ["1"], "--samples": ["10"], "--dimension": ["2"],
    "--resolution": ["1/2"], "--max-dilation": ["2"], "--k": ["1"], "--degree": ["1"],
    "--box-min": ["0,0"], "--box-max": ["1,1"], "--bound": ["3"], "--density": ["0.5"],
    "--mode": ["blob"], "--instances": ["2"], "--mc-cases": ["1"], "--threads": ["1"],
}
# every option of every subcommand: 37 in all
KEPT_FLAGS = [
    ("check-convex", "--json"),
    ("volumes", "--json"),
    ("pixellate", "--json"), ("pixellate", "--resolution"),
    ("convexify", "--json"),
    *[(cmd, f) for cmd in ("steiner", "crofton", "kubota", "product") for f in ("--json", "--seed")],
    ("steiner", "--max-dilation"), ("crofton", "--k"), ("kubota", "--k"),
    *[(cmd, flag) for cmd in ("kinematic", "gen", "verify") for flag in ("--json", "--seed")],
    *[("kinematic", f) for f in ("--samples", "--degree", "--box-min", "--box-max")],
    *[("gen", f) for f in ("--dimension", "--bound", "--density", "--mode", "--resolution")],
    *[("verify", f) for f in ("--samples", "--dimension", "--instances", "--mc-cases")],
    ("verify", "--bound"), ("verify", "--density"),
]
# flags a subcommand never read: --seed where nothing is random, --samples
# and --dimension where no corpus is drawn, the corpus resolution knob, and
# the thread count of a pool that no longer exists
REMOVED_FLAGS = [
    *[(cmd, "--samples") for cmd in POSITIONALS if cmd not in ("kinematic", "verify")],
    *[(cmd, "--dimension") for cmd in POSITIONALS if cmd not in ("gen", "verify")],
    *[(cmd, "--seed") for cmd in ("check-convex", "volumes", "pixellate", "convexify")],
    ("verify", "--resolution"), ("verify", "--threads"),
]


def _argv(command, flag):
    return [command, *POSITIONALS[command], flag, *FLAG_VALUES[flag]]


class TestCliFlags:
    def test_counts(self):
        assert len(set(KEPT_FLAGS)) == 37 and len(set(REMOVED_FLAGS)) == 24

    @pytest.mark.parametrize("command, flag", KEPT_FLAGS)
    def test_kept_flag_parses(self, command, flag):
        args = _build_parser().parse_args(_argv(command, flag))
        assert args.command == command

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
    def test_removed_flag_is_refused(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(_argv(command, flag))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_gen_dimension_is_one_integer(self, capsys):
        assert main(["gen", "--dimension", "3", "--seed", "2", "--bound", "2"]) == 0
        assert parse_set(capsys.readouterr().out).dimension == 3

    def test_verify_config_has_no_resolution(self):
        # the suites draw their corpora at their own resolutions
        with pytest.raises(TypeError):
            VerifyConfig(resolution=F(1, 2))

    def test_verify_config_stores_no_threads(self):
        # suites run in the calling thread; threads=1 is still accepted
        assert len(dataclasses.fields(VerifyConfig)) == 7
        assert VerifyConfig(threads=1) == VerifyConfig(threads=None) == VerifyConfig()
        with pytest.raises(ValueError, match="one thread"):
            VerifyConfig(threads=2)
