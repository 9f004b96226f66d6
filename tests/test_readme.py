"""README.md's examples run as written: the Quickstart transcript prints
what it shows, and the Library-use block executes."""

import re
import shlex
from pathlib import Path

from sslhop.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, lang: str) -> list[str]:
    """The lines of the first ``lang`` fenced block under ``## section``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {section}\n")
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.S | re.M).search(
        text, start)
    assert match, f"no {lang} block under {section}"
    return match.group(1).splitlines()


def _transcript(lines: list[str]):
    """``(command, heredoc lines, shown output lines)`` of each ``$``
    command of a console block; a trailing backslash continues a command,
    and blank lines are skipped."""
    steps, lines = [], iter(lines)
    for line in lines:
        if line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            heredoc = []
            if "<<'EOF'" in command:
                heredoc = list(iter(lambda: next(lines), "EOF"))
            steps.append((command, heredoc, []))
        elif line.strip():
            steps[-1][2].append(line)
    return steps


def test_quickstart_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    """Each ``sslhop`` command runs through ``sslhop.cli.main`` and prints
    exactly the lines shown under it; ``cat > file <<'EOF'`` writes its
    heredoc and ``head -N file`` shows the file's first lines."""
    monkeypatch.chdir(tmp_path)
    steps = _transcript(_block("Quickstart", "console"))
    assert steps
    for command, heredoc, shown in steps:
        argv = shlex.split(command.split("<<")[0])
        if argv[0] == "sslhop":
            assert main(argv[1:]) == 0, command
            printed = capsys.readouterr().out.splitlines()
        elif argv[0] == "cat":
            assert argv[1] == ">"
            Path(argv[2]).write_text("\n".join(heredoc) + "\n")
            printed = []
        else:
            assert argv[0] == "head", command
            count = int(argv[1].lstrip("-"))
            printed = Path(argv[2]).read_text().splitlines()[:count]
        assert printed == shown, command


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile("\n".join(_block("Library use", "python")), "README.md",
                 "exec"), {})
    assert Path("demo/model.sslm").is_file()
    assert capsys.readouterr().out.split() == ["1.0", "1.0"]
