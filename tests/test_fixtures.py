import subprocess
import sys
from importlib import resources
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_demo_fixtures.py"


def test_committed_demo_fixtures_are_regenerated_byte_for_byte(tmp_path):
    subprocess.run([sys.executable, str(TOOL), str(tmp_path)], check=True,
                   capture_output=True, timeout=120)
    data = resources.files("vtrim") / "data"
    for name in ("demo_vocab.json", "demo_merges.txt", "prompts_en.jsonl"):
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name
