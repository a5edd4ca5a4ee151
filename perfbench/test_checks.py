"""Each checker passes real smemsynth outputs and rejects a corrupted copy.

    python3 -m pytest perfbench/test_checks.py     (or python3 perfbench/test_checks.py)
"""

import contextlib
import io
import random
import re
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from smemsynth import cli  # noqa: E402


def smemsynth(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    assert rc == 0, (argv, rc)
    return out.getvalue()


def edit(path, fn):
    path.write_text(fn(path.read_text()))


def swap_two_lanes(text):
    """Swap the two low 8-bit lanes of the first window read where they differ."""
    lines = text.splitlines(True)
    for i, line in enumerate(lines):
        value = line.split()[-1]
        if line.startswith("OUT ") and value[-4:-2] != value[-2:]:
            lines[i] = line.replace(value, value[:-4] + value[-2:] + value[-4:-2])
            return "".join(lines)
    raise AssertionError("no window read with two different low lanes")


class CheckerTest(unittest.TestCase):
    def setUp(self):
        (HERE.parent / ".perfbench").mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=HERE.parent / ".perfbench")
        self.dir = Path(self._tmp.name)
        smemsynth("genlib", "--out", self.dir)
        self.lib = self.dir / "library.json"

    def tearDown(self):
        self._tmp.cleanup()

    def explore(self):
        smemsynth("explore", "--spec", "1024x16", "--lib", self.lib, "--out", self.dir)
        return lambda: checks.check_explore(self.dir / "report.csv",
                                            self.dir / "chosen.json",
                                            1024, 16, self.lib)

    def test_explore_dropped_row(self):
        check = self.explore()
        self.assertEqual(check(), [])
        edit(self.dir / "report.csv", lambda t: "".join(t.splitlines(True)[:-1]))
        self.assertTrue(check())

    def test_explore_pareto_flag(self):
        check = self.explore()
        edit(self.dir / "report.csv",
             lambda t: re.sub(r",1\r?\n", ",0\n", t, count=1))
        self.assertTrue(check())

    def test_explore_chosen(self):
        check = self.explore()
        edit(self.dir / "chosen.json",
             lambda t: re.sub(r'"R": \d+', '"R": 1024', t))
        self.assertTrue(check())

    def test_explore_aspect_ratio_filter(self):
        smemsynth("explore", "--spec", "4096x32", "--lib", self.lib,
                  "--ar-target", "2.0", "--ar-tol", "0.1", "--out", self.dir)
        args = (self.dir / "report.csv", self.dir / "chosen.json", 4096, 32, self.lib)
        self.assertEqual(checks.check_explore(*args, 2.0, 0.1), [])
        self.assertTrue(checks.check_explore(*args, 2.0, 0.05))

    def synth(self):
        smemsynth("synth", "--config", "ba_16x8,2,4,16,1", "--lib", self.lib,
                  "--out", self.dir)
        return lambda: checks.check_synth(self.dir, "sram_ba_16x8_r2c4k16m1",
                                          self.lib, "ba_16x8", 2, 4, 16)

    def test_synth_moved_macro(self):
        check = self.synth()
        self.assertEqual(check(), [])
        fp = self.dir / "sram_ba_16x8_r2c4k16m1.fp"
        # bank_0_0/ba_1 onto the lower half of its neighbour ba_0
        edit(fp, lambda t: re.sub(
            r"(rect bank_0_0/ba_1 macro \d+) (\d+)",
            lambda m: f"{m.group(1)} {int(m.group(2)) - 100}", t))
        self.assertTrue(any("overlap" in p for p in check()))

    def test_synth_die_and_count(self):
        check = self.synth()
        edit(self.dir / "sram_ba_16x8_r2c4k16m1.fp",
             lambda t: re.sub(r"rect bank_1_3/ba_15 macro.*\n", "", t))
        self.assertTrue(check())

    def test_synth_undriven_net(self):
        check = self.synth()
        edit(self.dir / "sram_ba_16x8_r2c4k16m1.nl",
             lambda t: re.sub(r"conn bank_0_0/q_0 \S+ drive\n", "", t))
        self.assertTrue(any("no driver" in p for p in check()))

    def test_synth_second_plain_driver(self):
        check = self.synth()
        edit(self.dir / "sram_ba_16x8_r2c4k16m1.nl",
             lambda t: t + "conn rdata dec.rdata drive\n")
        self.assertTrue(any("not all tristate" in p for p in check()))

    def test_sim_flipped_out(self):
        self.synth()
        trace = self.dir / "ops.tr"
        workloads._write_lines(trace, workloads.sram_trace(
            random.Random(1), 512, 32, 2000))
        stdout = smemsynth("sim", self.dir / "sram_ba_16x8_r2c4k16m1.nl", trace,
                           "--lib", self.lib, "--out", self.dir)
        result = self.dir / "result.txt"
        self.assertEqual(checks.check_sim(result, trace, 32, stdout), [])
        edit(result, lambda t: re.sub(r"(OUT \d+ \w*)(\w)\n",
                                      lambda m: m.group(1) + ("0" if m.group(2) != "0" else "1") + "\n",
                                      t, count=1))
        self.assertTrue(checks.check_sim(result, trace, 32, stdout))
        bad = stdout.replace("cross-check: ", "cross-check: 1")
        self.assertTrue(checks._check_energy_line(bad))

    def test_pa_wrong_lane(self):
        for boundary in ("wrap", "clamp"):
            smemsynth("pa", "--spec", "4,5,1,2", "--boundary", boundary,
                      "--out", self.dir)
            self.assertEqual(checks.check_pa_verify(self.dir / "pa_verify.txt", 4, 5), [])
            trace = self.dir / "ops.tr"
            workloads._write_lines(trace, workloads.window_trace(
                random.Random(2), 4, 5, 3000))
            results = {}
            for mode in ("sm", "tm"):
                out = self.dir / mode
                smemsynth("sim", self.dir / f"pa_{mode}.nl", trace, "--out", out)
                results[mode] = out / "result.txt"
            spec = (4, 5, 1, 2, 8)
            self.assertEqual(checks.check_window_sim(results["tm"], trace, spec,
                                                     boundary, results["sm"]), [])
            edit(results["tm"], swap_two_lanes)
            problems = checks.check_window_sim(results["tm"], trace, spec,
                                               boundary, results["sm"])
            self.assertIn("sm and tm outputs differ", problems)
            self.assertGreater(len(problems), 1)

    def test_pa_verify_mismatch(self):
        smemsynth("pa", "--spec", "4,4,1,1", "--out", self.dir)
        edit(self.dir / "pa_verify.txt",
             lambda t: t.replace("tm origins=256 mismatches=0", "tm origins=256 mismatches=3"))
        self.assertTrue(checks.check_pa_verify(self.dir / "pa_verify.txt", 4, 4))


class OverlapTest(unittest.TestCase):
    def test_sweep_matches_pairwise(self):
        rng = random.Random(7)
        for _ in range(300):
            rects = [(f"r{i}", rng.randrange(40), rng.randrange(40),
                      rng.randrange(1, 9), rng.randrange(1, 9))
                     for i in range(rng.randrange(1, 12))]
            pairwise = any(
                a[1] < b[1] + b[3] and b[1] < a[1] + a[3]
                and a[2] < b[2] + b[4] and b[2] < a[2] + a[4]
                for i, a in enumerate(rects) for b in rects[i + 1:])
            self.assertEqual(checks.first_overlap(rects) is not None, pairwise)


if __name__ == "__main__":
    unittest.main()
