import re
import shlex
from pathlib import Path

from vtrim.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_is_bound():
    import vtrim

    assert [name for name in vtrim.__all__ if not hasattr(vtrim, name)] == []
    namespace: dict = {}
    exec("from vtrim import *", namespace)
    assert set(vtrim.__all__) <= set(namespace)


def test_readme_library_surface_imports():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_walkthrough_commands_parse():
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI walkthrough", 1)[1]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    data_dir = re.search(r"^D=(\S+)$", script, re.M).group(1)
    commands = [shlex.split(line.replace("$D", data_dir))[1:]
                for line in script.splitlines() if line.startswith("vtrim ")]
    assert len(commands) == 11
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a flag the CLI lacks exits with status 2
