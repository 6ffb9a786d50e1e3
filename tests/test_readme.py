"""The README's examples hold as written: every ```python block runs, in
order and in one namespace, in a directory holding the `noisy.csv` it reads,
and every `tmest` command of a ```bash block parses with the CLI's parser."""

import re
import shlex
from pathlib import Path

import tmest as tm
from tmest.cli import build_parser
from tmest.noise import NoiseScheme, build_transition, inject_noise

from conftest import two_blob_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 2
    t = build_transition(NoiseScheme("binary", e1=0.2, e2=0.2), 2)
    tm.save_dataset(inject_noise(two_blob_dataset(0, n=1000), t, seed=0),
                    str(tmp_path / "noisy.csv"))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "report.json").is_file()
    assert namespace["stats"].n == namespace["graph"].rows.size == 1000


def test_readme_cli_commands_parse():
    text = README.read_text(encoding="utf-8")
    lines = "".join(re.findall(r"^```bash\n(.*?)^```", text, re.S | re.M))
    commands = [shlex.split(line)[1:] for line in lines.replace("\\\n", " ").splitlines()
                if line.startswith("tmest ")]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
