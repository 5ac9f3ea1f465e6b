"""Mutated inputs through every surface of the CLI: framework documents of
every space and of mixed teams, --config documents, and argv for analyze,
batch, gen and export-dot.

Whatever the input, cli.main returns one of the documented exit codes
without raising: 0 with nothing on stderr, or 2, 3 or 4 with exactly one
stderr line that starts with "error:". batch isolates each file, so a
file that fails gives it exit 1 (the documented "some files failed"), an
ERROR row in its table and nothing on stderr. pytest turns RuntimeWarning
into an error, so an overflow warning fails the run too. Every test runs
cli.main inside its own temporary directory, so a mutated output path
writes nothing where the tests were started.
"""
import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bearing_rigidity import GeneratorSpec, MetricSpace, fixture, random_framework
from bearing_rigidity.cli import main
from bearing_rigidity.formats import framework_to_json

FUZZ = settings(max_examples=70, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _documents():
    """Valid framework documents: the fixtures (r2, r2s1, se3 and the mixed
    case study) and generated r3, r3s1 and mixed teams."""
    docs = [framework_to_json(fixture(name)) for name in
            ("triangle-r2-complete", "star-r2", "triangle-r2s1-complete",
             "cube-se3-complete", "hetero-case-study")]
    for space in (MetricSpace.rd(3), MetricSpace.rd_s1(3, (0.0, 0.0, 1.0)),
                  (MetricSpace.rd_s1(2), MetricSpace.se3(), MetricSpace.rd(3))):
        if isinstance(space, tuple):
            space = tuple(space[a % 3] for a in range(5))
        docs.append(framework_to_json(random_framework(
            GeneratorSpec(space=space, n=5, graph_density=0.6, seed=1))))
    return docs


DOCUMENTS = _documents()
CONFIG = {"rank_rtol": None, "subspace_tol": 1e-8, "fd_step": 1e-6, "seed": 0}

numbers = st.one_of(
    st.integers(-10, 10),
    st.sampled_from([0.0, -0.0, 1e-300, 1e-15, 0.5, 1.0 + 1e-7, 1e15, 1e200, 1e308,
                     -1e308, math.inf, -math.inf, math.nan, 10 ** 400]),
    st.floats(-1e3, 1e3))
json_scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6))
json_values = st.recursive(
    json_scalars, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                          st.dictionaries(st.text(max_size=4), inner,
                                                          max_size=3)),
    max_leaves=6)


def _paths(node, path=()):
    """Every path to a value inside a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _paths(value, path + (k,))


@st.composite
def mutated(draw, doc):
    """doc after one to three edits: a number moved a little or set to
    another (extremes and NaN included), a value replaced, a key or item
    dropped, a number scaled to an extreme, or a key added."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        edit = draw(st.sampled_from(["nudge", "number", "replace", "drop", "scale",
                                     "add"]))
        # an integer beyond the float range is only ever replaced
        is_number = (isinstance(value, (int, float)) and not isinstance(value, bool)
                     and abs(value) <= sys.float_info.max)
        if edit == "nudge" and is_number:
            parent[key] = value + draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 1.0]))
        elif edit == "number" and is_number:
            parent[key] = draw(numbers)
        elif edit == "drop":
            del parent[key]
        elif edit == "scale" and is_number:
            parent[key] = value * draw(st.sampled_from([0, -1, 1e-200, 1e200, 1e308]))
        elif edit == "add" and isinstance(parent, dict):
            parent[draw(st.text(max_size=5))] = draw(json_values)
        else:
            parent[key] = draw(json_values)
    return doc


def text_of(doc, cut):
    """The document as JSON text (NaN and infinities as Python writes them),
    or a cut-off prefix of it."""
    text = json.dumps(doc)
    return text if cut is None else text[:cut]


@contextlib.contextmanager
def inside(path):
    """Run with path as the working directory (contextlib.chdir needs
    Python 3.11)."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_documented(argv, code, out, err):
    lines = err.splitlines()
    if code == 1:
        assert argv[0] == "batch", (argv, out)
        assert "ERROR" in out and err == "", (argv, err)
    elif code == 0:
        assert err == "", (argv, err)
    else:
        assert code in (2, 3, 4), (argv, code, err)
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)


@pytest.fixture(autouse=True, scope="module")
def no_profile():
    with pytest.MonkeyPatch.context() as m:
        m.delenv("BRL_TOLERANCE_PROFILE", raising=False)
        yield


# a document cut off at a random character, one time in eight
cuts = st.integers(0, 7).flatmap(lambda k: st.integers(0, 40) if k == 0 else st.none())


@FUZZ
@given(st.data(), st.sampled_from(range(len(DOCUMENTS))),
       st.sampled_from(["analyze", "export-dot", "batch"]), cuts)
def test_mutated_framework_documents(data, which, command, cut):
    doc = data.draw(mutated(DOCUMENTS[which]))
    with tempfile.TemporaryDirectory() as tmp, inside(tmp):
        path = os.path.join(tmp, "fw.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text_of(doc, cut))
        argv = {"analyze": ["analyze", path, "--fd-trials", "3"],
                "export-dot": ["export-dot", path, "--augment"],
                "batch": ["batch", tmp, "--fd-trials", "3"]}[command]
        assert_documented(argv, *run_main(argv))


@FUZZ
@given(st.data(), cuts)
def test_mutated_config_documents(data, cut):
    config = data.draw(mutated(CONFIG))
    with tempfile.TemporaryDirectory() as tmp, inside(tmp):
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text_of(config, cut))
        argv = ["analyze", "square-cycle-r2", "--fd-trials", "3", "--config", path]
        assert_documented(argv, *run_main(argv))


# valid command lines of every command, which the argv test then edits
COMMANDS = [
    ["analyze", "{dir}/fw.json", "--fd-trials", "3"],
    ["analyze", "star-r2", "--matrix-csv", "{dir}/m", "--representation", "unified",
     "--config", "{dir}/cfg/config.json"],
    ["batch", "{dir}", "--fd-trials", "3", "--seed", "1"],
    ["gen", "--space", "r3s1", "--axis", "0,0,1", "--n", "5", "--density", "0.5",
     "-o", "{dir}/gen.json"],
    ["gen", "--fixture", "hetero-case-study"],
    ["export-dot", "{dir}/fw.json", "--augment", "-o", "{dir}/fw.dot"],
]
FLAGS = ["--rank-rtol", "--subspace-tol", "--fd-step", "--seed", "--config",
         "--report", "--matrix-csv", "--representation", "--fd-trials", "--timing",
         "--fixture", "--space", "--n", "--density", "--placement", "--axis",
         "-o", "--output", "--augment", "--bogus"]
# small numbers only: a document or a generated framework stays a few agents
TOKENS = ["0", "-1", "1", "3", "6", "0.5", "1e-9", "1e-15", "1e300", "nan", "inf",
          "-inf", "abc", "", "r2", "r3", "r2s1", "r3s1", "se3", "mixed", "auto",
          "per-space", "unified", "generic", "collinear", "1,0,0", "0,0,1", "1,2",
          "x,y,z", "star-r2", "triangle-r2s1-complete", "cube-se3-complete",
          "hetero-case-study", "square-cycle-r2", "analyze", "batch", "gen",
          "export-dot", "{dir}", "{dir}/fw.json", "{dir}/cfg/config.json", "{dir}/cfg",
          "{dir}/out", "{dir}/missing/out", "{dir}/none.json"]
tokens = st.one_of(st.sampled_from(FLAGS), st.sampled_from(TOKENS),
                   st.text(alphabet="abc-,.=xz ", max_size=6))


@st.composite
def mutated_argv(draw):
    """A valid command line after zero to three edits (none or one in two
    thirds of the draws): a token replaced, dropped or inserted."""
    argv = list(draw(st.sampled_from(COMMANDS)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        k = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["replace", "drop", "insert"]))
        if edit == "insert" or k == len(argv):
            argv.insert(k, draw(tokens))
        elif edit == "drop":
            del argv[k]
        else:
            argv[k] = draw(tokens)
    return argv


@FUZZ
@given(mutated_argv())
def test_mutated_argv(argv):
    with tempfile.TemporaryDirectory() as tmp, inside(tmp):
        with open(os.path.join(tmp, "fw.json"), "w", encoding="utf-8") as fh:
            json.dump(DOCUMENTS[1], fh)
        os.mkdir(os.path.join(tmp, "cfg"))
        with open(os.path.join(tmp, "cfg", "config.json"), "w", encoding="utf-8") as fh:
            json.dump(CONFIG, fh)
        argv = [t.replace("{dir}", tmp) for t in argv]
        assert_documented(argv, *run_main(argv))
