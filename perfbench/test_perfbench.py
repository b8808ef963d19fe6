"""Self-tests of the benchmark: `python3 perfbench/test_perfbench.py`."""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from check import check_op  # noqa: E402
from run import END_TO_END, layer_metric_units  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 7), workloads.build(name, 7)
            self.assertEqual(a.files, b.files, name)
            self.assertEqual(a.ops + a.probes, b.ops + b.probes, name)

    def test_other_seed_gives_other_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(workloads.build(name, 7).files,
                                workloads.build(name, 8).files, name)

    def test_typical_tree_is_a_tree_of_median_wiener_index(self):
        import random
        for n in (2, 14, 40):
            g = workloads.typical_tree(n, random.Random(n))
            self.assertEqual((g[0], len(g[1])), (n, n - 1))
            rows = workloads.bfs_rows(*g)
            self.assertNotIn(-1, sum(rows, []))
            self.assertEqual(workloads.tree_wiener(g), sum(map(sum, rows)) // 2)

    def test_closed_forms_match_the_oracle(self):
        from helly.geometry import hyperbolicity_oracle
        from helly.graphs import Graph
        for n in range(4, 17):
            g = Graph(*workloads.cycle(n))
            self.assertEqual(hyperbolicity_oracle(g), workloads.cycle_two_delta(n), n)
        for k in range(2, 7):
            g = Graph(*workloads.king(k, k))
            self.assertEqual(hyperbolicity_oracle(g), workloads.king_two_delta(k), k)


def _run(w, op, work):
    import helly.cli
    argv = [str(work / a) if a in w.files else a for a in op.argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = helly.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class Checker(unittest.TestCase):
    """Real outputs pass; each tampered output is flagged."""

    TAMPER = {
        "check": lambda o: {**o, "is_helly": not o["is_helly"]},
        "hyp": lambda o: {**o, "two_delta": o["two_delta"] + 2},
        "hull": lambda o: {**o, "forms": o["forms"][:-1]},
        "pair": lambda o: {**o, "normal_paths": o["normal_paths"][:1] * 2},
        "coarse": lambda o: {"defect": o["defect"] + 1},
        "same-graph": lambda o: {**o, "edges": o["edges"][1:]},
        "face": lambda o: {**o, "n": o["n"] + 1},
        "fix": lambda o: {**o, "group_order": o["group_order"] * 2},
        "hyper-check": lambda o: {**o, "conformal": not o["conformal"]},
        "fellow": lambda o: {**o, "tuples_checked": o["tuples_checked"] + 1},
    }

    def test_tampered_outputs_are_flagged(self):
        queries = workloads.build("queries", 3)
        cases = [(queries, op) for op in queries.ops]
        for name, op_id in (("fellow", "fellow:king4x4"), ("classify", "hyp:hyp-cycle40")):
            w = workloads.build(name, 3)
            cases.append((w, next(op for op in w.ops if op.id == op_id)))
        seen = set()
        with tempfile.TemporaryDirectory() as tmp:
            for w, op in cases:
                kind = op.check[0]
                if kind in seen or kind not in self.TAMPER:
                    continue
                seen.add(kind)
                work = Path(tmp) / w.name
                work.mkdir(exist_ok=True)
                for name, text in w.files.items():
                    (work / name).write_text(text)
                code, out = _run(w, op, work)
                self.assertIsNone(check_op(op, w.files, code, out), op.id)
                bad = json.dumps(self.TAMPER[kind](json.loads(out)))
                self.assertIsNotNone(check_op(op, w.files, code, bad), op.id)
                self.assertIsNotNone(check_op(op, w.files, code + 1, out), op.id)
        self.assertEqual(seen, set(self.TAMPER))


class Names(unittest.TestCase):
    def test_printed_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(declared, END_TO_END)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(declared, layer_metric_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for name in list(END_TO_END) + list(layer_metric_units()) + list(workloads.WORKLOADS):
            self.assertIsNotNone(NAME.fullmatch(name), name)

    def test_a_run_prints_every_declared_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "queries", "--seed", "5",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=180, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            self.assertEqual(last["failed"], 0)
            self.assertEqual({n: m["unit"] for n, m in last["metrics"].items()},
                             {m["name"]: m["unit"] for m in spec[key]})


if __name__ == "__main__":
    unittest.main()
