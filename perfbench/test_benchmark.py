"""Checks BENCHMARK.json: it parses, has the benchmark contract's shape and
name grammar, and lists exactly the metrics the binary reports.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The catalogue test builds the benchmark
(into $CARGO_TARGET_DIR, default .bench_build).
"""

import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def test_keys_and_limits(self):
        b = load()
        self.assertEqual(
            set(b),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_names_units_and_bounds(self):
        b = load()
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = [w["name"] for w in b["workloads"]]
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_grammar_rejects_bad_names(self):
        for bad in ["", "_lead", ".lead", "a b", "x" * 65, "p99µs"]:
            self.assertIsNone(NAME.match(bad), bad)
        for good in ["p99_us", "kvs.router.failovers_per_op", "kvs-hot", "9x"]:
            self.assertIsNotNone(NAME.match(good), good)

    def test_matches_the_binary_catalogue(self):
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
        out = subprocess.run(
            [
                "cargo", "run", "--release", "--offline", "--quiet",
                "--manifest-path", os.path.join(HERE, "Cargo.toml"),
                "--", "--list-metrics",
            ],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        cat = json.loads(out.strip().splitlines()[-1])
        b = load()
        strip = lambda ms: [{k: m[k] for k in ("name", "unit", "better")} for m in ms]
        self.assertEqual(strip(b["end_to_end"]), cat["end_to_end"])
        self.assertEqual(b["per_layer"], cat["per_layer"])


if __name__ == "__main__":
    unittest.main()
