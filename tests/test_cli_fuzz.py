"""Fuzz of the CLI entry point: arbitrary degree text and tree-file bytes
must end in a documented exit code (0-4), never a traceback or exit 5."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from sombortrees.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)

# Characters the degree parser treats specially, plus one non-ASCII digit
# that int() accepts (U+0663) and one it refuses (U+00B2).
degree_texts = st.one_of(
    st.text(alphabet="0123456789,; \t\n[]()-+_.ex\u0663\u00b2", max_size=24),
    st.lists(st.integers(0, 6), max_size=12).map(lambda ds: ",".join(map(str, ds))),
)

labels = st.integers(-1, 9)
edge_lists = st.lists(st.tuples(labels, labels), max_size=10)
tree_files = st.one_of(
    st.binary(max_size=64),
    edge_lists.map(lambda es: "".join(f"{u} {v}\n" for u, v in es).encode()),
    st.builds(
        lambda n, es: json.dumps({"n": n, "edges": es}).encode(),
        st.one_of(st.integers(-1, 10), st.floats(), st.booleans(), st.none()),
        st.lists(st.lists(labels, max_size=3), max_size=10),
    ),
)


def _exit_code(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@FUZZ
@given(degree_texts)
def test_greedy_degree_text(text):
    assert 0 <= _exit_code("greedy", f"--degrees={text}") <= 4


@FUZZ
@given(degree_texts)
def test_verify_degree_text(text):
    assert 0 <= _exit_code("verify", f"--degrees={text}", "--cap", "2000") <= 4


@FUZZ
@given(degree_texts)
def test_descend_random_degree_text(text):
    assert 0 <= _exit_code("descend", "--random", f"--degrees={text}") <= 4


@FUZZ
@given(tree_files)
def test_index_tree_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-tree"
    path.write_bytes(data)
    assert 0 <= _exit_code("index", str(path), "--q", "auto") <= 4


@FUZZ
@given(tree_files)
def test_descend_tree_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-tree"
    path.write_bytes(data)
    assert 0 <= _exit_code("descend", str(path)) <= 4
