"""Process-wide settings made at `import fome`, and the package's public
surface."""

import argparse
import ast
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fome

resource = pytest.importorskip("resource")

# 4 rounds of allocating and freeing 48 arrays of 2 MiB each (under numpy's
# 4 MiB huge-page cut); prints each round's minor page faults
_ROUNDS = """
import resource
import fome
import numpy as np

for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(2 << 17) for _ in range(48)]
    del arrays
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_freed_heap_is_reused_without_page_faults():
    src = str(Path(fome.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _ROUNDS], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    faults = [int(line) for line in done.stdout.split()]
    assert len(faults) == 4
    # the first round maps the memory; later rounds reuse the heap the frees
    # left in place (glibc's default thresholds return it each round)
    assert all(f < 1000 for f in faults[1:]), faults


# public module-level functions and classes, and public methods of public
# classes, that no code in src/fome names, each with the reason it stays
UNCALLED = {
    "preprocess.notch_filter": "acceptance criterion 4 runs the stage on a whole recording",
    "preprocess.bandpass_filter": "acceptance criterion 4 runs the stage on a whole recording",
    "preprocess.resample": "acceptance criterion 4 runs the stage on a whole recording",
    "preprocess.standardize_ema": "acceptance criterion 4 runs the stage on a whole recording",
    "spectral.dft": "acceptance criterion 3 checks it against the naive transform",
    "model.load_params": "acceptance criterion 7 loads its checkpoint through it",
    "model.ParameterStore.clone": "bench/workloads.py copies the initial store once per "
                                  "timed call",
}


# fields of the run configs that no `fome` flag and no keyword in src/fome or
# bench/ sets, each with the reason it stays a field
UNSET_FIELDS = {
    "PreprocessConfig.notch_q": "acceptance criterion 4 runs the notch stage at this Q",
    "PreprocessConfig.ema_alpha": "acceptance criterion 4 constructs PreprocessConfig with it",
    "PreprocessConfig.eps": "acceptance criterion 4 constructs PreprocessConfig with it",
}


def test_every_config_field_is_set_somewhere():
    from dataclasses import fields

    from fome import cli
    from fome.preprocess import PreprocessConfig
    from fome.trainer import TrainConfig

    root = Path(fome.__file__).resolve().parents[2]
    keywords = {node.arg for folder in ("src/fome", "bench")
                for path in sorted((root / folder).glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.keyword)}
    dests, parsers = set(), [cli.build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.option_strings:
                dests.add(action.dest)
    unset = {f"{cls.__name__}.{f.name}" for cls in (TrainConfig, PreprocessConfig)
             for f in fields(cls) if f.name not in dests | keywords}
    assert unset == set(UNSET_FIELDS)


def test_every_public_definition_is_named_in_the_package():
    src = Path(fome.__file__).resolve().parent
    defined, named = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
                for method in node.body if isinstance(node, ast.ClassDef) else []:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        defined[f"{path.stem}.{node.name}.{method.name}"] = method.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    uncalled = {key for key, name in defined.items() if name not in named}
    assert uncalled == set(UNCALLED)
