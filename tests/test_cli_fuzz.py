"""Fuzz of the command line: any config and any small ballot file end in a
documented exit code and, on failure, an ``error:`` line, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradevote.cli import main

METHODS = ["mj", "mj3", "approval3", "bracket"]
SCALES = (
    ["positive", "neutral", "negative"],
    ["strong", "weak", "none"],
    ["A", "B", "C", "D"],
    ["yes", "no"],
)
# the scales each method accepts in a config (bracket: none)
METHOD_SCALES = {"mj": SCALES, "mj3": SCALES[:2], "approval3": SCALES[1:2], "bracket": ()}
GRADES = sorted({label for scale in SCALES for label in scale}) + ["bogus", ""]
VOTERS = ["v1", "v2", "v3", "v4", ""]
CANDIDATES = ["a", "b", "c", "z", ""]

# any JSON value, small
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(-10, 10)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)

# the config fields set to any JSON value, one at a time
FIELDS = ["config", "method", "scale", "candidates", "options", "limit", "seed",
          "id", "name", "party", "profession"]


@st.composite
def configs(draw, bad_field=None):
    """A valid config, or one with ``bad_field`` set to any JSON value."""
    ids = draw(st.lists(st.sampled_from(CANDIDATES[:3]), unique=True, max_size=3))
    method = draw(st.sampled_from(METHODS))
    config = {
        "method": method,
        "candidates": [{"id": cid} for cid in ids],
        "options": {
            "limit": draw(st.integers(2, 8)),
            "seed": draw(st.none() | st.integers(0, 5)),
        },
    }
    if METHOD_SCALES[method] and draw(st.booleans()):
        config["scale"] = draw(st.sampled_from(METHOD_SCALES[method]))
    if bad_field is None:
        return config
    value = draw(json_values)
    if bad_field == "config":
        return value
    if bad_field in ("limit", "seed"):
        config["options"][bad_field] = value
    elif bad_field in ("id", "name", "party", "profession"):
        config["candidates"] = config["candidates"] or [{"id": "a"}]
        config["candidates"][0][bad_field] = value
    else:
        config[bad_field] = value
    return config


@st.composite
def cells(draw, values):
    """One of ``values``, sometimes padded with whitespace or quoted."""
    pads = st.sampled_from(["", "", "", " ", "\t"])
    cell = draw(pads) + draw(st.sampled_from(values)) + draw(pads)
    return f'"{cell}"' if draw(st.integers(0, 3)) == 0 else cell


@st.composite
def ballot_files(draw, config):
    """A small long-format CSV whose rows mostly name the candidates and
    grades of a valid ``config``, with a few bad or junk rows, quoted or
    padded cells, CRLF line ends and, rarely, a field over the csv module's
    size limit."""
    default = SCALES[1] if config["method"] == "approval3" else SCALES[0]
    scale = config.get("scale", default)
    ids = [row["id"] for row in config["candidates"]]
    # sampled_from picks evenly, so repeats weight the good values; "v,5"
    # is one voter when quoted and a ragged row when not
    row = st.tuples(
        cells(VOTERS[:4] * 3 + VOTERS[4:] + ["v,5"]),
        cells((ids or CANDIDATES[:3]) * 6 + CANDIDATES[3:]),
        cells(scale * 4 + ["bogus", ""]),
    ).map(",".join)
    lines = draw(st.lists(row, min_size=1, max_size=10))
    for junk in draw(st.lists(st.text(alphabet=',ab"\n ', max_size=6), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    if draw(st.integers(0, 7)) == 7:
        lines.insert(draw(st.integers(0, len(lines))), "v1,a," + "x" * 131_073)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    header = draw(st.sampled_from(["voter_id,candidate,grade"] * 4 + ["voter,grade", ""]))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return bom + end.join([header, *lines]) + end


tally_flags = st.sampled_from(["table", "json", "csv"]).map(
    lambda fmt: ["tally", "--format", fmt]
)
check_flags = st.builds(
    lambda fmt, random_n, samples, seed, probe: ["check", "--format", fmt]
    + (["--random", str(random_n)] if random_n else [])
    + (["--samples", str(samples)] if samples else [])
    + (["--seed", str(seed)] if seed is not None else [])
    + (["--probe", probe] if probe else []),
    st.sampled_from(["text", "json"]),
    st.integers(0, 2),
    st.none() | st.integers(1, 20),
    st.none() | st.none() | st.integers(0, 5),
    st.none() | st.sampled_from(VOTERS[:4]),
)


def _run(config, ballots, argv):
    """Run ``main`` on the two files and check how it ended."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        ballots_path = Path(tmp) / "ballots.csv"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        ballots_path.write_text(ballots, encoding="utf-8")
        argv = [*argv, "--config", str(config_path), "--ballots", str(ballots_path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().splitlines()[-1].startswith("error: ")


VALID_BALLOTS = "voter_id,candidate,grade\nv1,a,positive\nv2,b,neutral\nv3,a,negative\n"


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_survives_any_config(field, data):
    config = data.draw(configs(bad_field=field))
    _run(config, VALID_BALLOTS, ["check", "--random", "1", "--samples", "2", "--probe", "v1"])
    _run(config, VALID_BALLOTS, ["tally", "--format", "table"])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.data())
def test_cli_survives_any_ballot_file(data):
    config = data.draw(configs())
    ballots = data.draw(ballot_files(config))
    argv = data.draw(tally_flags | check_flags)
    method = data.draw(st.none() | st.sampled_from(METHODS))
    _run(config, ballots, argv + (["--method", method] if method else []))
