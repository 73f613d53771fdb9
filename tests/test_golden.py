"""The committed golden values still follow from the code that generates them."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "generate_golden.py"


def load_generator():
    spec = importlib.util.spec_from_file_location("generate_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_reproduces_committed_values(golden):
    fresh = load_generator().golden_values()
    assert sorted(fresh) == sorted(golden)
    for key, value in fresh.items():
        assert np.allclose(value, golden[key], rtol=0.0, atol=1e-12), key
