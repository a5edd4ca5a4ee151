"""Byte identity of the command line, checked against a manifest.

Each case runs `smemsynth` commands in process, in order, in a fresh
directory, and records for each command its exit code and the sha256 of
its stdout, its stderr and every file in its --out directory (name and
bytes).  tests/golden_manifest.json holds the records.  Inputs are
written under relative paths, so no temporary path reaches the hashed
text.

A change meant to alter an output rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py --write

and names the changed entries in CHANGES.md.  The manifest is a check:
it is never rewritten to hide a change nobody intended.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
from pathlib import Path

import pytest

from smemsynth.cli import main

FIXTURES = Path(__file__).parent.parent / "src" / "smemsynth" / "fixtures"
MANIFEST = Path(__file__).parent / "golden_manifest.json"


def _sram_trace(seed: str, words: int, bits: int, n_ops: int = 300) -> str:
    """Writes, reads and IDLE over a few addresses; some reads come before
    any write to their address."""
    rng = random.Random(seed)
    pool = rng.sample(range(words), 24)
    lines = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.45:
            lines.append(f"W {rng.choice(pool)} {rng.getrandbits(bits):x}")
        elif r < 0.9:
            lines.append(f"R {rng.choice(pool)}")
        else:
            lines.append("IDLE")
    return "\n".join(lines) + "\n"


def _pa_trace(seed: str, m: int, n: int, pixel_bits: int, n_ops: int = 300) -> str:
    """Pixel writes to a third of the surface, window reads at corners on
    and off it, and IDLE; windows over unwritten pixels warn."""
    rng = random.Random(seed)
    W, H = 1 << m, 1 << n
    pool = rng.sample([(x, y) for x in range(W) for y in range(H)], W * H // 3)
    lines = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.4:
            x, y = rng.choice(pool)
            lines.append(f"W {(x << n) | y} {rng.getrandbits(pixel_bits):x}")
        elif r < 0.9:
            lines.append(f"WIN {rng.randrange(-3, W + 3)} {rng.randrange(-3, H + 3)}")
        else:
            lines.append("IDLE")
    return "\n".join(lines) + "\n"


def _pa_sim_case(specs: list):
    """`pa` of each (spec, boundary), then `sim` of both its netlists on
    one seeded trace of 8-bit pixels."""
    inputs, commands = {}, []
    for spec, boundary in specs:
        m, n, *_ = map(int, spec.split(","))
        tag = f"{spec.replace(',', '')}_{boundary}"
        inputs[f"{tag}.tr"] = _pa_trace(tag, m, n, 8)
        commands.append(["pa", "--spec", spec, "--boundary", boundary,
                         "--out", f"pa_{tag}"])
        commands += [["sim", f"pa_{tag}/pa_{mode}.nl", f"{tag}.tr",
                      "--out", f"sim_{tag}_{mode}"] for mode in ("sm", "tm")]
    return inputs, commands


def _sram_case(config: str, words: int, bits: int):
    variant, *factors = config.split(",")
    name = "sram_{}_r{}c{}k{}m{}".format(variant, *factors)
    lib = ["--lib", "lib/library.json"]
    return ({"ops.tr": _sram_trace(config, words, bits)}, [
        ["genlib", "--out", "lib"],
        ["synth", "--config", config, *lib, "--out", "synth"],
        ["sim", f"synth/{name}.nl", "ops.tr", *lib, "--out", "sim"],
    ])


# case -> ({input file: text}, [argv, ...]); paths are relative to the
# case's directory, which holds a copy of the shipped fixtures
CASES = {
    # the README's Command line walkthrough
    "readme": ({"ops.tr": "W 0x00 a5\nW 0x01 3c\nIDLE\nR 0x00\nR 0x01\n"}, [
        ["genlib", "--out", "build/lib"],
        ["explore", "--spec", "fixtures/spec_256x8.json",
         "--lib", "fixtures/lib_32x8.json", "--out", "build/explore"],
        ["synth", "--config", "build/explore/chosen.json",
         "--lib", "fixtures/lib_32x8.json", "--out", "build/synth"],
        ["pa", "--spec", "5,5,1,1", "--out", "build/pa"],
        ["sim", "build/synth/sram_ba_32x8_r1c4k2m4.nl", "ops.tr",
         "--out", "build/sim"],
        ["leafcell", "--out", "build/leaf"],
    ]),
    # M > 1 with R and K > 1, and M = 1 with a tall bank column
    "sram_ba_32x8_2_2_2_2": _sram_case("ba_32x8,2,2,2,2", 256, 8),
    "sram_ba_8x8_1_8_64_1": _sram_case("ba_8x8,1,8,64,1", 512, 64),
    # one slot: no bank, ba or msel selects
    "sram_ba_32x8_1_1_1_1": _sram_case("ba_32x8,1,1,1,1", 32, 8),
    # R > 1 with K = 1
    "sram_ba_32x8_4_1_1_1": _sram_case("ba_32x8,4,1,1,1", 128, 8),
    # M > 1 across 8 columns
    "sram_ba_64x64_1_8_4_8": _sram_case("ba_64x64,1,8,4,8", 2048, 64),
    "pa": ({}, [
        ["pa", "--spec", spec, "--boundary", boundary,
         "--out", f"pa_{spec.replace(',', '')}_{boundary}"]
        for spec in ("3,3,1,1", "4,3,0,1") for boundary in ("wrap", "clamp")
    ]),
    # sim of both window memories: writes, off-surface corners and
    # windows over unwritten pixels
    "pa_sim": _pa_sim_case([("4,3,2,1", "clamp"), ("3,3,1,1", "wrap")]),
    "explore": ({}, [
        ["explore", "--spec", "4096x32", "--ar-target", "1.0",
         "--ar-tol", "0.2", "--out", "explore_ar"],
        # limits no config meets: the least violating one, exit 1
        ["explore", "--spec", "4096x32", "--t-max-ps", "200",
         "--e-max-fj", "100", "--out", "explore_limits"],
    ]),
    "synth_logic_transpose": ({}, [
        ["synth", "--config", "ba_32x8,2,2,2,2", "--logic-area-um2", "120.25",
         "--transpose", "--ar-target", "1.0", "--ar-tol", "0.1",
         "--out", "synth"],
    ]),
    # fractional delay coefficients and a non-default wire energy: the
    # .nl meta's t_cycle_ps and e_wire_op_fj follow TechParams' float order
    "tech_fractional": ({"tech.json": json.dumps(
        {"d0_ps": 50.1, "d1_ps": 12.3, "m0_ps": 20.3, "m1_ps": 10.7,
         "e_wire_per_um_fj": 0.23})}, [
        ["pa", "--spec", "5,5,1,1", "--tech", "tech.json", "--out", "pa"],
        ["synth", "--config", "ba_32x8,2,2,2,2", "--tech", "tech.json",
         "--out", "synth"],
        ["explore", "--spec", "4096x32", "--tech", "tech.json",
         "--out", "explore"],
    ]),
    # one malformed file for each JSON input, and a --config file that is
    # not there: each run exits 2 with one line naming the file
    "bad_inputs": ({
        "spec.json": '{"words": 256,, "bits": 8}\n',
        "pa.json": "[4, 4, 1, 1]\n",
        "chosen.json": json.dumps({"config": {"variant": "ba_32x8", "R": 1,
                                              "C": 1, "K": 2, "M": 1, "N": 2}}),
        "tech.json": json.dumps({"pitch": 48}),
        "lib.json": json.dumps({"tech": {}}),
    }, [
        ["explore", "--spec", "spec.json", "--out", "spec"],
        ["pa", "--spec", "pa.json", "--out", "pa"],
        ["synth", "--config", "chosen.json", "--out", "config"],
        ["synth", "--config", "ba_32x8,1,1,2,1", "--tech", "tech.json",
         "--out", "tech"],
        ["explore", "--spec", "256x8", "--lib", "lib.json", "--out", "lib"],
        ["synth", "--config", "missing.json", "--out", "missing"],
    ]),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, work: Path) -> list:
    """Run case `name` in the empty directory `work`; one record per
    command.  Every hashed text is checked to hold no part of `work`."""
    inputs, commands = CASES[name]
    shutil.copytree(FIXTURES, work / "fixtures")
    for fname, text in inputs.items():
        (work / fname).write_text(text)
    records = []
    here = os.getcwd()
    os.chdir(work)
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            outdir = Path(argv[argv.index("--out") + 1])
            texts = {"stdout": out.getvalue().encode(),
                     "stderr": err.getvalue().encode()}
            # a run refused before it makes --out has no files
            files = sorted(outdir.iterdir()) if outdir.is_dir() else []
            texts |= {f"file {p.name}": p.read_bytes() for p in files}
            assert [k for k, v in texts.items() if str(work).encode() in v] == []
            records.append({"argv": " ".join(argv), "exit": code}
                           | {k: _sha(v) for k, v in texts.items()})
    finally:
        os.chdir(here)
    return records


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_manifest(name, tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    assert sorted(manifest) == sorted(CASES)
    assert run_case(name, tmp_path) == manifest[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    import tempfile
    records = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            records[case] = run_case(case, Path(d))
    MANIFEST.write_text(json.dumps(records, indent=1) + "\n")
