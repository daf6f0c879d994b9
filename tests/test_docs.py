"""The code the README documents runs as written."""

import re
import shlex
from pathlib import Path

from motzkin.cli import run_command

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "toeplitz_residuals(system)" in code
    exec(compile(code, str(README), "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # Every command of the "Command line" block exits 0, in order, in one
    # directory (`pair make` writes the pair.json the next commands read).
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) > 10 and all(argv[0] == "motzkin" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_command(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if argv[1:] == ["dims", "--n", "4", "--kmax", "5"]:
            assert out == "1,3,8,21,55,144\n"
    assert (tmp_path / "pair.json").exists()
