"""The structural guard steps of the CI workflow, run as tests.

Every ``run`` step before "Install" in .github/workflows/tests.yml greps the
source tree for a pattern the design rules out. Each runs here from the
repository root under ``bash -eo pipefail``, the shell GitHub Actions uses
for ``run`` steps, so the guards hold wherever the tests run.
"""

import subprocess
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def guard_steps() -> list[dict]:
    steps = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tests"]["steps"]
    names = [step.get("name") for step in steps]
    return [step for step in steps[:names.index("Install")] if "run" in step]


def test_the_workflow_has_its_guards():
    assert len(guard_steps()) >= 10


@pytest.mark.parametrize("step", guard_steps(), ids=lambda step: step["name"])
def test_ci_guard_passes(step):
    result = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", step["run"]],
                            cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, f"{step['name']} failed:\n{result.stdout}{result.stderr}"
