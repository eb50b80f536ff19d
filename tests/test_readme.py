"""README's Quick start runs as written."""

import io
import pathlib
import re
import shlex

from cqe import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_lines():
    """The lines of the fenced bash block under "## Quick start", with its ``\\`` continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_quick_start_commands_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    monkeypatch.chdir(tmp_path)
    write, cd, *commands = [shlex.split(line) for line in quick_start_lines()]
    assert write[:2] == ["python3", "-c"] and cd[0] == "cd"
    exec(write[2], {})  # writes the planted dataset, as the block's first line does
    monkeypatch.chdir(cd[1])
    assert commands and [argv[0] for argv in commands] == ["cqe"] * len(commands)
    failed = []
    for argv in commands:
        monkeypatch.setattr("sys.stdin", io.StringIO("topic0 overview\nexit\n"))  # what converse reads
        if cli.main(argv[1:]) != 0:
            failed.append(argv[1])
    assert failed == [], capsys.readouterr().err
