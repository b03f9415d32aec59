"""Tier-1 guard: the fenced ``python`` blocks in the user-facing docs run.

Mirrors the CI "docs" job (`tools/run_doc_examples.py`): each file's
blocks are concatenated in order and executed in a fresh interpreter,
so documentation drift — an example importing something renamed, or
asserting something no longer true — fails the test suite, not just a
reader.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNNER = REPO_ROOT / "tools" / "run_doc_examples.py"

DOC_FILES = [
    "README.md",
    "docs/TUTORIAL.md",
    "docs/ARCHITECTURE.md",
    "docs/PERFORMANCE.md",
    "docs/DISTRIBUTED.md",
    "docs/OBSERVABILITY.md",
]


@pytest.mark.parametrize("doc", DOC_FILES)
def test_doc_examples_run(doc):
    proc = subprocess.run(
        [sys.executable, str(RUNNER), doc],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("OK")


def test_runner_extracts_only_python_fences(tmp_path):
    from importlib import util

    spec = util.spec_from_file_location("run_doc_examples", RUNNER)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = (
        "prose\n```bash\nexit 1\n```\n"
        "```python\nx = 1\n```\nmore\n```\nnot code\n```\n"
        "```python\nassert x == 1\n```\n"
    )
    assert module.extract_python_blocks(text) == ["x = 1", "assert x == 1"]
    with pytest.raises(ValueError):
        module.extract_python_blocks("```python\nunclosed\n")


def test_runner_fails_on_docs_without_examples(tmp_path):
    empty = tmp_path / "empty.md"
    empty.write_text("no code here\n")
    proc = subprocess.run(
        [sys.executable, str(RUNNER), str(empty)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "no ```python blocks" in proc.stdout
