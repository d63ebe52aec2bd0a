"""Mutation fuzzer for the exit-code contract.

Each example takes one input document (a run config with its pipeline and
models documents inlined, a sweep config on the batch_size or the lambda
axis, or the bundled calibration observations), changes one field at a
random path and runs the CLI on it in process. Whatever the change, the
exit is 0, 2 or 3, no exception escapes, stderr holds no traceback, and a
command that exits 0 writes no NaN or infinity into a report or profile. A
refused input (exit 2) creates no output directory, and an infeasible one
(exit 3) leaves at most a sweep's ``sweep_partial.csv`` there.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
import yaml

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from agentsim.cli import main

PROFILES = Path(__file__).parents[1] / "src" / "agentsim" / "profiles"
CURVE = Path(__file__).parent / "data" / "throughput_curve.yaml"


def _bundled(name: str) -> dict:
    return yaml.safe_load((PROFILES / f"{name}.yaml").read_text())


def _run_config(pipelines, batch_size, policy, models, seed, cores=None, jitter=0.05, out=None):
    """A golden-style run config with every profile it names inlined."""
    if isinstance(pipelines, str):
        workload = {"profile": _bundled(pipelines)}
    else:
        workload = {"mix": [{"pipeline": _bundled(p), "proportion": share}
                            for p, share in pipelines]}
    doc = {
        "schema_version": 1,
        "workload": {**workload, "batch_size": batch_size, "jitter_cv": jitter},
        "policy": policy,
        "models": _bundled(models),
        "seed": seed,
    }
    if cores is not None:
        doc["resources"] = {"logical_cores": cores}
    if out is not None:  # read and checked, then replaced by --out
        doc["out"] = out
    return doc


# input name -> (subcommand, document)
INPUTS = {
    "freshqa_cgam_overlap_b8": ("run", _run_config(
        "langchain_freshqa", 8, {"name": "cgam_overlap", "b_cap": 4},
        "emerald_rapids_b200", seed=2, cores=96)),
    "mix_maws_cgam_b8": ("run", _run_config(
        [("swe_agent_apps", 0.5), ("langchain_guardrail", 0.5)], 8,
        {"name": "maws_cgam", "b_cap": 4, "theta": 0.4, "thread_pool_cores": 4},
        "emerald_rapids_b200", seed=5, cores=32, out="runs/maws_cgam")),
    "energyhost_multithreading_b7": ("run", _run_config(
        "langchain_freshqa_energyhost", 7, {"name": "multithreading", "pool_size": 4},
        "threadripper_h200_energy", seed=1, jitter=0.0)),
    "toolformer_batch_size_sweep": ("sweep", {
        "schema_version": 1,
        "workload": {"profile": "toolformer_mawps", "batch_size": 4},
        "policy": {"name": "cgam", "b_cap": 2},
        "models": "emerald_rapids_b200",
        "seed": 0,
        "sweep": {"axis": "batch_size", "values": [2, 4]},
    }),
    "freshqa_lambda_sweep": ("sweep", {
        "schema_version": 1,
        "workload": {"profile": "langchain_freshqa", "batch_size": 8, "jitter_cv": 0.05},
        "policy": {"name": "cgam", "b_cap": 4},
        "models": "emerald_rapids_b200",
        "seed": 0,
        "sweep": {"axis": "lambda", "values": [1.1, 1.95], "curve": str(CURVE)},
    }),
    "langchain_batch_sweep": ("calibrate", _bundled("langchain_batch_sweep")),
}

# any value may be dropped or replaced by one of another type
CHANGES = [("drop", None)] + [
    (f"retype {value!r}", lambda _, value=value: copy.deepcopy(value))
    for value in (None, "x", [1], {"a": 1}, True)
]
# a number may also be moved
NUMBER_CHANGES = [
    ("zero", lambda v: 0), ("minus one", lambda v: -1),
    ("double", lambda v: v * 2), ("halve", lambda v: v * 0.5),
    ("nan", lambda v: math.nan), ("inf", lambda v: math.inf), ("-inf", lambda v: -math.inf),
    ("huge", lambda v: 10**400),  # an int no float can hold
]

NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _paths(node, prefix=()):
    """The path of every mapping value and list item below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, steps):
    """The mapping or list in ``doc`` that holds the item at ``steps``, and its key."""
    *parents, key = steps
    for step in parents:
        doc = doc[step]
    return doc, key


@st.composite
def mutated_inputs(draw):
    name = draw(st.sampled_from(sorted(INPUTS)))
    command, doc = INPUTS[name]
    doc = copy.deepcopy(doc)
    parent, key = _parent(doc, draw(st.sampled_from(list(_paths(doc)))))
    value = parent[key]
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    _, apply = draw(st.sampled_from(CHANGES + (NUMBER_CHANGES if numeric else [])))
    if apply is None:
        del parent[key]
    else:
        parent[key] = apply(value)
    return command, doc


def _main(command: str, doc: dict, tmp: Path) -> tuple[int, str]:
    """The exit code and stderr of ``command`` on ``doc``, written to a file
    in ``tmp``; its outputs go to ``tmp / "out"``, and a fit is named by
    ``--name`` (the document's ``name`` is still read)."""
    path, out = tmp / "input.yaml", tmp / "out"
    path.write_text(yaml.safe_dump(doc))
    if command == "calibrate":
        argv = ["calibrate", "--observations", str(path), "--name", "fit",
                "--base", "emerald_rapids_b200", "--out", str(out)]
    else:
        argv = [command, "--config", str(path), "--out", str(out)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@settings(max_examples=350, derandomize=True)
@given(mutated_inputs())
def test_one_mutated_field_keeps_the_exit_code_contract(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        code, stderr = _main(command, doc, Path(tmp))
        assert code in (0, 2, 3), stderr
        assert "Traceback" not in stderr
        out = Path(tmp) / "out"
        if code == 0:
            for written in out.rglob("*"):
                if written.is_file() and written.name != "trace.txt":
                    assert not NON_FINITE.search(written.read_text()), written.name
        elif code == 2:
            assert not out.exists(), stderr
        else:  # only a sweep's run can have failed after the first was written
            assert {p.name for p in out.glob("*")} <= {"sweep_partial.csv"}, stderr


def _keys(node, where, prefix=()):
    """``(steps, path)`` for every mapping key below ``node``: the steps
    that reach the key, and the path the reader names its mapping by,
    rooted at the kind of the document it is in (``config`` for a run or
    sweep config), a list item by its index. The keys of a ``sources``
    mapping are free text, so their path is None."""
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield from _keys(child, f"{where}[{i}]", prefix + (i,))
    elif isinstance(node, dict):
        if "schema_version" in node:  # a document of its own, inline or not
            where = node.get("kind", "config")
        for key, child in node.items():
            steps = prefix + (key,)
            yield steps, where
            if key == "sources":
                yield from ((steps + (k,), None) for k in child)
            else:
                yield from _keys(child, key if where == "config" else f"{where}.{key}", steps)


def _renamed(doc, steps, new):
    """A copy of ``doc`` whose key at ``steps`` is renamed ``new``."""
    doc = copy.deepcopy(doc)
    node, key = _parent(doc, steps)
    node[new] = node.pop(key)
    return doc


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_a_renamed_key_exits_2_naming_its_path(name, tmp_path):
    """Renaming any key of an input document, such as ``oversub_kappa`` to
    ``oversub_kappax``, exits 2 naming the new key, the path of its mapping
    and the keys accepted there: nothing reads the new key, so it would
    otherwise run on the default the old one meant to change. A key of a
    ``sources`` mapping is provenance text, and renaming it changes nothing."""
    command, doc = INPUTS[name]
    for steps, where in _keys(doc, "config"):
        new = f"{steps[-1]}x"
        code, stderr = _main(command, _renamed(doc, steps, new), tmp_path)
        if where is None:
            assert code == 0, (steps, stderr)
        else:
            assert code == 2 and stderr.startswith(
                f"configuration error: unknown field {new!r} in {where}; expected one of "), (
                steps, stderr)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_an_ill_typed_field_exits_2(name, tmp_path):
    """Setting any field or list item of an input document to a mapping no
    reader takes, ``{"a": 1}``, exits 2 and creates no output directory. That
    holds for a field a flag replaces too: ``out`` under ``--out`` and the
    observations' ``name`` under ``--name`` are read before they are
    replaced. Provenance text (``sources``, ``source``) is read by no one."""
    command, doc = INPUTS[name]
    for steps in _paths(doc):
        if {"sources", "source"} & set(steps):
            continue
        changed = copy.deepcopy(doc)
        node, key = _parent(changed, steps)
        node[key] = {"a": 1}
        code, stderr = _main(command, changed, tmp_path)
        assert code == 2, (steps, stderr)
        assert not (tmp_path / "out").exists(), steps
