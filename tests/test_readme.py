"""The README's examples run as written, so a renamed or deleted API name or option fails here."""

import os
import re
import shlex

from powertriad import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _blocks(language):
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```", fh.read(), re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert blocks, "README.md has no ```python block"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_command_lines_run_as_written(tmp_path, monkeypatch, capsys):
    """Every `powertriad ...` line of the sh blocks, on the pairs.csv and controller.cfg
    they name, exits 0 or 3 with nothing on stderr."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["zoo", "run", "--problem", "gaussian_shrinkage", "--samples", "1000",
                     "--out", "pairs.csv"]) == 0
    (tmp_path / "controller.cfg").write_text("kind = gradient\neta = 0.1\nmax_steps = 200\n")
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("powertriad ")]
    assert lines, "README.md has no `powertriad` command line"
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        assert code in (0, 3) and capsys.readouterr().err == "", line
