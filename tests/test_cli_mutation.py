"""Mutated input files map to a documented exit code, never to a traceback.

Valid witness JSON, point files and edge files are mutated at random and
handed to `fqsim.cli.main` in-process.  Every run must return one of the
documented exit codes; the only exception allowed out of `main` is
argparse's own usage error, which exits 3.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings, strategies as st

from fqsim import (
    Space,
    find_det_similar,
    find_similar_config,
    make_field,
    random_pointset,
)
from fqsim.cli import main

from helpers import format_pointset

EXIT_CODES = {0, 1, 2, 3, 4}
MUTATION_SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


F5 = make_field(5)
PUNCTURED = Space.punctured(F5, 2)
SIMILARITY_WITNESS = find_similar_config(random_pointset(F5, 2, 9, seed=3), F5(4), 2).to_json()
DET_WITNESS = find_det_similar(PUNCTURED, F5(4), 2).to_json()
POINT_FILE = format_pointset(random_pointset(F5, 2, 12, seed=5)).encode()
PUNCTURED_FILE = format_pointset(PUNCTURED).encode()
EDGE_FILE = b"# a triangle\n1,2\n2,3\n1,3\n"

# Bytes the formats are made of, digits most often, plus a few that no
# valid file holds.
FORMAT_BYTES = st.sampled_from(list(b"0123456789")) | st.sampled_from(
    list(b",=-#qd \n\t.x{}[]\":") + [0, 0xC3, 0xFF])
JSON_LEAVES = (
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-10, 10) | st.sampled_from([2, 4, 97, 2 ** 32, 2 ** 64, -(2 ** 40)])
    | st.floats(allow_nan=True, allow_infinity=True)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def mutate_bytes(data, content: bytes) -> bytes:
    """One to four byte insertions, deletions or replacements."""
    buf = bytearray(content)
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        i = data.draw(st.integers(0, max(len(buf) - 1, 0)))
        if op == "insert":
            buf.insert(i, data.draw(FORMAT_BYTES))
        elif buf:
            if op == "delete":
                del buf[i]
            else:
                buf[i] = data.draw(FORMAT_BYTES)
    return bytes(buf)


def mutate_json(data, node):
    """Replace or delete the value at a randomly chosen path; integers are
    mostly nudged, which keeps the schema and reaches the verifiers."""
    # Hypothesis draws small values first, so 0 and False pick the gentler move.
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 4)) < 4:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys))
        if data.draw(st.integers(0, 4)) == 4:
            del node[key]
        else:
            node[key] = mutate_json(data, node[key])
        return node
    if isinstance(node, int) and not isinstance(node, bool) and not data.draw(st.booleans()):
        return node + data.draw(st.integers(-3, 3))
    return data.draw(JSON_VALUES)


def run_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate points and empty sets warn
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 3, f"SystemExit({exc.code!r}) from {argv}"
            return 3


def run_on_file(content: bytes, argv_for) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        return run_main(argv_for(path))


@MUTATION_SETTINGS
@given(st.data())
def test_mutated_witness_json(data):
    witness = copy.deepcopy(data.draw(st.sampled_from([SIMILARITY_WITNESS, DET_WITNESS])))
    for _ in range(data.draw(st.integers(1, 3))):
        witness = mutate_json(data, witness)
    content = json.dumps(witness).encode()
    if data.draw(st.integers(0, 3)) == 3:
        content = mutate_bytes(data, content)
    assert run_on_file(content, lambda path: ["verify-witness", path]) in EXIT_CODES


@MUTATION_SETTINGS
@given(st.data())
def test_mutated_point_file(data):
    finder, content = data.draw(st.sampled_from([
        ("find-similar", POINT_FILE), ("find-det-similar", PUNCTURED_FILE),
    ]))
    argv = [finder, "--q", "5", "--d", "2", "--r", "4", "--k", "2", "--set"]
    assert run_on_file(mutate_bytes(data, content), lambda path: argv + [path]) in EXIT_CODES


@MUTATION_SETTINGS
@given(st.data())
def test_mutated_edge_file(data):
    argv = ["find-similar", "--q", "5", "--d", "2", "--r", "4", "--k", "2",
            "--random", "12", "--seed", "5", "--edges"]
    content = mutate_bytes(data, EDGE_FILE)
    assert run_on_file(content, lambda path: argv + ["pairs:" + path]) in EXIT_CODES
