import contextlib
import io
import json
import re
from pathlib import Path

import superpert as sp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    # the library quick start is the first python block of the README
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert float(lines[0]) > 0.0  # the stage-3 ground energy


def test_readme_public_api_is_all():
    # the "Public API" list names every public name once, sorted
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Public API") :].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([^`]+)`", section, re.MULTILINE)
    assert listed == sorted(sp.__all__)


def test_readme_model_files_load():
    # every JSON block of the "Model files" section is a valid model document
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Model files") :].split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 2
    for block in blocks:
        model = sp.model_from_dict(json.loads(block), "README.md")
        assert model.provenance == "README.md"
