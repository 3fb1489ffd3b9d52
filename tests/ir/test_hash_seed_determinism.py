"""IR extraction must not depend on the interpreter's hash seed."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SCRIPT = """
import json
import sys
from repro.ir import extract_ir
from repro.models.registry import build_model
model = build_model(sys.argv[1])
ir = extract_ir(model, *model.example_inputs())
sys.stdout.write(json.dumps(ir.to_json(), sort_keys=True))
"""


def _ir_json(model: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.join(ROOT, "src"))
    completed = subprocess.run([sys.executable, "-c", SCRIPT, model],
                               env=env, capture_output=True, text=True,
                               timeout=300, check=True)
    return completed.stdout


@pytest.mark.parametrize("model", ["pointpillars", "smoke"])
def test_ir_json_is_identical_across_hash_seeds(model):
    first = _ir_json(model, "0")
    assert first
    assert _ir_json(model, "1") == first
