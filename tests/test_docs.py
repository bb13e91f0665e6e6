import ast
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from vtrim.cli import build_parser
from vtrim.errors import VtError
from vtrim.metrics import EvalReport
from vtrim.subvocab import ScriptSpec

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def _walkthrough_commands() -> list[list[str]]:
    """The argv of each ``vtrim`` command in the README's CLI walkthrough."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI walkthrough", 1)[1]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    data_dir = re.search(r"^D=(\S+)$", script, re.M).group(1)
    return [shlex.split(line.replace("$D", data_dir))[1:]
            for line in script.splitlines() if line.startswith("vtrim ")]


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


def test_readme_eval_report_keys_match_the_report():
    # The eval report is written from EvalReport's fields and nothing in the
    # package reads it back, so this is what pins its documented keys.
    text = README.read_text(encoding="utf-8")
    entry = re.search(r"\*\*Eval report\*\*.*?\{(.*?)\}", text, re.S).group(1)
    assert re.findall(r'"(\w+)"', entry) == [f.name for f in dataclasses.fields(EvalReport)]


def test_readme_script_spec_keys_are_the_keys_a_spec_file_takes(tmp_path):
    # A file with exactly the documented keys loads, and one more key fails,
    # so the entry can neither miss a key nor list one the loader ignores.
    text = README.read_text(encoding="utf-8")
    entry = re.search(r"\*\*Script spec\*\*.*?`(\{.*?\})`", text, re.S).group(1)
    values = {"name": "latin", "allowed_ranges": [[97, 122]]}
    spec = {key: values[key] for key in re.findall(r'"(\w+)"', entry)}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert ScriptSpec.from_json_file(str(path)).allowed_ranges == ((97, 122),)
    for extra in ("tolerated", "ranges"):
        path.write_text(json.dumps({**spec, extra: []}), encoding="utf-8")
        with pytest.raises(VtError, match=f"unknown key '{extra}'$"):
            ScriptSpec.from_json_file(str(path))


def test_readme_walkthrough_commands_parse():
    commands = _walkthrough_commands()
    assert len(commands) == 11
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a flag the CLI lacks exits with status 2


def test_options_named_in_readme_prose_exist():
    # Prose such as `decode --sub` or `bench --trimmed MODEL SUB` names a
    # subcommand's option; the walkthrough's own commands are parsed above.
    subcommands = next(a for a in build_parser()._actions if isinstance(a.choices, dict)).choices
    text = README.read_text(encoding="utf-8")
    prose = re.sub(r"## CLI walkthrough.*?```sh\n.*?```", "", text, flags=re.S)
    named = re.findall(rf"`(?:vtrim\s+)?({'|'.join(subcommands)})\s+(--[\w-]+)[^`]*`", prose)
    assert {("decode", "--sub"), ("bench", "--trimmed")} <= set(named)
    unknown = [(name, opt) for name, opt in named
               if opt not in subcommands[name]._option_string_actions]
    assert unknown == []


def test_every_cli_option_is_set_by_a_test_or_the_walkthrough():
    # An option that no test and no walkthrough step sets is a knob nothing
    # exercises. A test sets one in an argv: a list, tuple or call whose
    # first string is the subcommand, or one string such as "trim --sub {bad}".
    subcommands = next(a for a in build_parser()._actions if isinstance(a.choices, dict)).choices
    declared = {(name, opt) for name, p in subcommands.items()
                for action in p._actions for opt in action.option_strings
                if opt not in ("-h", "--help")}
    argvs = _walkthrough_commands()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                items = node.args
            elif isinstance(node, (ast.List, ast.Tuple)):
                items = node.elts
            else:
                continue
            argvs.append([word for item in items
                          if isinstance(item, ast.Constant) and isinstance(item.value, str)
                          for word in item.value.split()])
    used = {(argv[0], word) for argv in argvs if argv and argv[0] in subcommands
            for word in argv if word.startswith("--")}
    assert sorted(declared - used) == []
