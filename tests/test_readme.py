"""The README's examples run as written.

Every ```python block runs in order in one namespace, one statement at a
time. A print statement whose line ends in a one-word comment (# IBR,
# 13) must print exactly that word; longer comments are prose. Every `brl`
line of the ```sh blocks runs in order, through cli.main, in one empty
directory, and exits 0.
"""
import ast
import contextlib
import io
import pathlib
import re
import shlex
import tokenize

from bearing_rigidity import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      flags=re.S)


def annotations(source):
    """line number -> the one-word comment that ends that line."""
    found = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            word = tok.string[1:].strip()
            if word and not any(c.isspace() for c in word):
                found[tok.start[0]] = word
    return found


def is_print(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name) and stmt.value.func.id == "print")


def test_readme_python_blocks_run_and_print_their_annotations():
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    checked = 0
    for block in blocks:
        expected = annotations(block)
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            if is_print(stmt) and stmt.end_lineno in expected:
                assert out.getvalue().strip() == expected[stmt.end_lineno], \
                    ast.get_source_segment(block, stmt)
                checked += 1
    assert checked >= 3


def brl_lines():
    """Every `brl ...` line of the README's ```sh blocks, in order."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("brl ")]


def test_readme_cli_block_runs_in_an_empty_directory(tmp_path, monkeypatch):
    monkeypatch.delenv("BRL_TOLERANCE_PROFILE", raising=False)
    monkeypatch.chdir(tmp_path)
    lines = brl_lines()
    assert len(lines) >= 8
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(shlex.split(line)[1:])
        assert code == 0, line
