import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helly import claims, cli, constructions, geometry
from helly.graphs import Graph


def run_cli(args):
    """Run through main() capturing stdout, as subprocesses would."""
    import contextlib
    import io
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, buf.getvalue(), err.getvalue()


@pytest.fixture()
def graph_file(tmp_path):
    def write(g, name="g.json"):
        path = tmp_path / name
        path.write_text(g.to_json())
        return str(path)
    return write


def test_check_subcommand(graph_file):
    code, out, _ = run_cli(["check", graph_file(geometry.sun3())])
    assert code == 0
    data = json.loads(out)
    assert data["is_helly"] is False
    assert data["weakly_modular"] is True
    code, out, _ = run_cli(["check", graph_file(geometry.king_graph(3, 3))])
    assert json.loads(out)["is_helly"] is True


def test_check_reports_median_verdict_on_large_graphs(graph_file):
    code, out, _ = run_cli(["check", graph_file(geometry.path_graph(300))])
    assert code == 0 and '"is_median":true' in out


def test_gen_check_round_trip(tmp_path):
    code, out, _ = run_cli(["gen", "king", "3", "3"])
    assert code == 0
    g = Graph.from_json(out)
    assert g == geometry.king_graph(3, 3)
    code, dot, _ = run_cli(["gen", "sun3", "--dot"])
    assert code == 0 and dot.startswith("graph G {")


def test_gen_unknown_is_validation_error():
    code, _, err = run_cli(["gen", "nonexistent"])
    assert code == 3 and "unknown generator" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2


def test_hull_subcommand(graph_file, tmp_path):
    code, out, _ = run_cli(["hull", graph_file(geometry.cycle_graph(4))])
    assert code == 0
    data = json.loads(out)
    assert len(data["forms"]) == 5 and data["distance_profile"] == 1
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({"d": [[0, 2], [2, 0]]}))
    code, out, _ = run_cli(["hull", str(metric)])
    assert code == 0 and len(json.loads(out)["forms"]) == 3


def test_hull_of_the_empty_metric_is_refused(tmp_path):
    # no forms, so no edges: the hull graph refuses zero vertices
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({"d": []}))
    assert run_cli(["hull", str(metric)]) == (3, "", "error: graph needs at least one vertex\n")


def l1_points(seed):
    """The l1 metric of 6 distinct seeded points of the 6 x 6 grid, sorted."""
    rng = random.Random(seed)
    points = set()
    while len(points) < 6:
        points.add((rng.randrange(6), rng.randrange(6)))
    points = sorted(points)
    return {"d": [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in points] for a in points]}


# SHA-256 of `helly hull` stdout per input, which pins the forms, edges,
# embedding and distance profile byte for byte
HULL_DIGESTS = {
    "cycle5": "35c65ee15626d73e1c46e960801b21db4c35dbd92fcc969c7576491ea2db6c95",
    "cycle8": "bf6befdb1f273bb967a70ca51b147811694570782f493c9ece27f338b49b3f0d",
    "cycle9": "4e1078b0cf8acfb4dc5c346afb68072193ae9af37bf64458e82e4568f221a590",
    "cycle10": "44107c3ab060553d37f2ec3400f7f5593a8f553aaecb12ca3735af11c0152d4a",
    "cycle11": "03bc9da0c00471edb95c88cf7cc74560df4c025b518836c367c44ebb559a1100",
    "cycle12": "5b4c6b71b61b09634902ef8c68b7c63af0a1601db3b4add6046b5a09391073ec",
    "grid4x4": "2a07035b87b0cccc5ac428fbeb4389b02ec14d129097083a0accf374693a4810",
    "grid4x5": "bf6d170daf376fbf35c6a0d2928d5327fc9d32cfd75d74f507f246148907089f",
    "grid6x6": "83111b6682dbbde7b75d1c0c4fb687e236657b7f387e083ef3c32f46fb10f762",
    "l1grid2": "0291809a82203e06a9d54fb159d08f27ad89000955bae96c75eb84472c0f3010",
    "king5x5": "11df9e937d332678d9be0d5c937be1367b0f6dde9fc86e0617c67cb7c7c8ab0d",
    "tree30": "7360744b003c0f30f4e8e1ba0bf4b12c0ae17b5f689c874d88140d0e0a3b074a",
    "points1": "c303b1edc054f230652b31de340ac8172c871920c370d4d2f7eee9c09a1e043b",
    "points2": "f3b1ee8c33faf68ef59ef847d3a68e4055fe90da9154e111c917b99d634ba5f2",
    "points3": "26b6884a5b92a7fd0d934548e839ec1b060c297d9121c4817ac03bd0ce26c02e",
}
HULL_INPUTS = {
    **{f"cycle{n}": lambda n=n: geometry.cycle_graph(n).to_json() for n in (5, 8, 9, 10, 11, 12)},
    "grid4x4": lambda: geometry.grid_graph(4, 4).to_json(),
    "grid4x5": lambda: geometry.grid_graph(4, 5).to_json(),
    "grid6x6": lambda: geometry.grid_graph(6, 6).to_json(),
    "l1grid2": lambda: geometry.l1_grid(2)[0].to_json(),
    "king5x5": lambda: geometry.king_graph(5, 5).to_json(),
    "tree30": lambda: geometry.random_tree(30, 1).to_json(),
    **{f"points{seed}": lambda seed=seed: json.dumps(l1_points(seed)) for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("name", list(HULL_DIGESTS))
def test_hull_stdout_is_byte_identical_to_the_recorded_digest(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(HULL_INPUTS[name]())
    code, out, err = run_cli(["hull", str(path)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HULL_DIGESTS[name]


# SHA-256 of `helly check` stdout per input, which pins the verdicts of both
# routes, the dismantling order or stuck set and the failing triangle
CHECK_DIGESTS = {
    "king10x10": "b5607efc5811ee925a238b40e3115816ddd6cae736c40e91a7ef2a2c880c52af",
    "tree120": "539814615c0bf9ddf3251e4218ad4013c75df47335b7b9b857f7f89c9bdf3c0c",
    "tree3000": "1f0ad61e7b8c1771fc1ce7164488825cbb5c3ab3f2ab8bde43922cfc875024f4",
    "paths4x4x4": "0b26b29fd2630794fdd1a5438027fa066a834b90e959c55cae1d0ae69223cff8",
    "cycle80": "b8cfef9b400a8490300c0aefa23727714925884f9b62bc7a723a32af813b55d3",
    "grid8x8": "339310cae63b2848ae2e16231c5c71219df520baeb157f737e05c3409381a900",
    "cycle4": "f557b4a2a5ab531fe00e86fb6d257dc127b61e4ce321cd3937048fbd65dc0f93",
    "sun3": "67ee4f6fc60d827f93c78afd5e4dd943ec2e57c4e8cdbcde081fa728bcb35111",
    "t3patch4": "b745eba00be068fc8abbaa6bfb88c2f6fb751200936bf3281db8f4582e63b1c2",
}
CHECK_INPUTS = {
    "king10x10": lambda: geometry.king_graph(10, 10),
    "tree120": lambda: geometry.random_tree(120, 1),
    "tree3000": lambda: geometry.random_tree(3000, 1),
    "paths4x4x4": lambda: constructions.strong_product([geometry.path_graph(4)] * 3)[0],
    "cycle80": lambda: geometry.cycle_graph(80),
    "grid8x8": lambda: geometry.grid_graph(8, 8),  # stuck, 64 vertices: not certified
    "cycle4": lambda: geometry.cycle_graph(4),  # stuck and certified
    "sun3": geometry.sun3,
    "t3patch4": lambda: geometry.t3_patch(4)[0],  # fails at (1, 6, 7), not the first triangle
}


@pytest.mark.parametrize("name", list(CHECK_DIGESTS))
def test_check_stdout_is_byte_identical_to_the_recorded_digest(graph_file, name):
    code, out, err = run_cli(["check", graph_file(CHECK_INPUTS[name]())])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGESTS[name]


def random_hyper(seed, edges, size):
    """`edges` seeded random edges of 1 to `size` vertices over 12 vertices."""
    rng = random.Random(seed)
    return {"n": 12, "edges": [sorted(rng.sample(range(12), rng.randint(1, size)))
                               for _ in range(edges)]}


def unit_balls(g):
    return {"n": g.n, "edges": [[v for v in range(g.n) if g.ball1_mask[c] >> v & 1]
                                for c in range(g.n)]}


# SHA-256 of `helly hyper-check` stdout per input, which pins all six fields:
# the Helly and Gilmore verdicts with their witnesses, triangle-freeness and
# the dual's Helly verdict
HYPER_CHECK_DIGESTS = {
    "random1": "90e90ecdcf331e86a5c64505d3f64155175f12091aea9528eaf2c8b64d4cdd8b",
    "random2": "e579802154b034ae46c29e7ecf6d84a649ad5c6d5d6681aec1acd69afce5900c",
    "sparse3": "f4b398c2f867e49f006bc4f0d73d40a6592b04879db0f2a83639bbe2ed1fdd83",
    "balls-tree40": "f4b398c2f867e49f006bc4f0d73d40a6592b04879db0f2a83639bbe2ed1fdd83",
    "balls-king6x6": "211186cc1d02887de5bc055925e8d00a412a25ed2627fb0af248c32a110367c7",
    "cliques-king7x7": "f4b398c2f867e49f006bc4f0d73d40a6592b04879db0f2a83639bbe2ed1fdd83",
    "balls-cycle6": "38f120fe2b563e08362a9e8cb45586f75ee630cb31d70a2a210fb57dd37462ec",
    "triangle-with-face": "24549892a0059ce14e9047256c102002c976c1616aecac0610fad382ba781400",
    "triangle-dual": "a9d37a27c865975a493026bf679eb129cdcd19aa204bfe2697b9e8b2857aeef6",
}
HYPER_CHECK_INPUTS = {
    "random1": lambda: random_hyper(1, 10, 5),
    "random2": lambda: random_hyper(2, 10, 5),
    "sparse3": lambda: random_hyper(3, 6, 3),
    "balls-tree40": lambda: unit_balls(geometry.random_tree(40, 1)),
    "balls-king6x6": lambda: unit_balls(geometry.king_graph(6, 6)),  # not triangle-free
    "cliques-king7x7": lambda: {"n": 49, "edges": [
        [v, v + 1, v + 7, v + 8] for v in range(48) if v % 7 < 6 and v < 42]},
    "balls-cycle6": lambda: unit_balls(geometry.cycle_graph(6)),
    "triangle-with-face": lambda: {"n": 3, "edges": [[0, 1], [1, 2], [0, 2], [0, 1, 2]]},
    "triangle-dual": lambda: {"n": 4, "edges": [[0, 2, 3], [0, 1, 3], [1, 2, 3]]},
}


@pytest.mark.parametrize("name", list(HYPER_CHECK_DIGESTS))
def test_hyper_check_stdout_is_byte_identical_to_the_recorded_digest(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(HYPER_CHECK_INPUTS[name]()))
    code, out, err = run_cli(["hyper-check", str(path)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HYPER_CHECK_DIGESTS[name]


# SHA-256 of `helly hyp` stdout per input: 2*delta and its least witness
HYP_DIGESTS = {
    "tree40": "049ae21bb563551cd9263d2b8ffe69fe4c9b9a970519c26dcfe8c7f7aa1093bd",
    "complete10": "049ae21bb563551cd9263d2b8ffe69fe4c9b9a970519c26dcfe8c7f7aa1093bd",
    "glued-cliques": "049ae21bb563551cd9263d2b8ffe69fe4c9b9a970519c26dcfe8c7f7aa1093bd",
    "cycle9": "6dbc18f169ab005f6c165f1fa6cb292c34719359487286c7d00d72bc86223dcb",
    "king5x5": "6f9f4c039411ddea1bbae647be8eb5070c58b45f49c186675c704bf7b1a581fb",
}
HYP_INPUTS = {
    "tree40": lambda: geometry.random_tree(40, 1),
    "complete10": lambda: geometry.complete_graph(10),
    "glued-cliques": lambda: constructions.glue_at_vertices(
        [geometry.complete_graph(5), geometry.path_graph(4), geometry.complete_graph(3)],
        [(0, 4, 1, 0), (1, 3, 2, 0)])[0],
    "cycle9": lambda: geometry.cycle_graph(9),
    "king5x5": lambda: geometry.king_graph(5, 5),
}


@pytest.mark.parametrize("name", list(HYP_DIGESTS))
def test_hyp_stdout_is_byte_identical_to_the_recorded_digest(graph_file, name):
    code, out, err = run_cli(["hyp", graph_file(HYP_INPUTS[name]())])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HYP_DIGESTS[name]


def test_hull_form_cap_refusal_is_unchanged(graph_file, monkeypatch):
    # C10 has 122 forms
    monkeypatch.setenv("HELLY_MAX_FORMS", "100")
    assert run_cli(["hull", graph_file(geometry.cycle_graph(10))]) == (
        3, "", "error: extremal form count exceeds cap 100\n")


def test_bicombing_subcommand(graph_file):
    path = graph_file(geometry.king_graph(3, 3))
    code, out, _ = run_cli(["bicombing", path, "--pair", "0", "8"])
    assert code == 0
    data = json.loads(out)
    assert data["clique_path"][0] == [0] and data["clique_path"][-1] == [8]
    code, out, _ = run_cli(["bicombing", path, "--fellow-traveler"])
    data = json.loads(out)
    assert data["clique_constant"] <= 1 and data["path_constant"] <= 3


def test_build_subcommands(graph_file):
    p3 = graph_file(geometry.path_graph(3), "p3.json")
    code, out, _ = run_cli(["build", "product", p3, p3])
    assert Graph.from_json(out) == geometry.king_graph(3, 3)
    g33 = graph_file(geometry.grid_graph(3, 3), "g33.json")
    code, out, _ = run_cli(["build", "thicken", g33])
    assert Graph.from_json(out) == geometry.king_graph(3, 3)
    code, out, _ = run_cli(["build", "rips", p3, "--delta", "2"])
    assert Graph.from_json(out) == geometry.complete_graph(3)
    tri = graph_file(geometry.complete_graph(3), "k3.json")
    code, out, _ = run_cli(["build", "glue", tri, tri, "--gluings", "[[0,0,1,0]]"])
    assert Graph.from_json(out).n == 5


def test_build_sgp(tmp_path):
    p2 = {"n": 2, "edges": [[0, 1]]}
    desc = {"factors": [p2, p2],
            "pieces": [[None, 0], [0, None], [None, None]]}
    path = tmp_path / "sgp.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli(["build", "sgp", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["three_piece"] is True and data["graph"]["n"] == 4


def test_coarse_subcommand(graph_file):
    c6 = graph_file(geometry.cycle_graph(6))
    code, out, _ = run_cli(["coarse", c6, "--centers", "0", "2", "4",
                            "--radii", "1", "1", "1"])
    assert code == 0 and json.loads(out)["defect"] == 1
    code, _, err = run_cli(["coarse", c6, "--centers", "0", "3", "--radii", "1", "1"])
    assert code == 3
    code, out, _ = run_cli(["coarse", c6, "--centers", "0", "3",
                            "--radii", "1", "1", "--no-pairwise-check"])
    assert code == 0 and json.loads(out)["defect"] == 1


def test_fix_subcommand(graph_file, tmp_path):
    star = graph_file(geometry.star_graph(4))
    action = tmp_path / "act.json"
    action.write_text(json.dumps({"perms": [[0, 2, 3, 4, 1]]}))
    code, out, _ = run_cli(["fix", star, str(action)])
    assert code == 0
    data = json.loads(out)
    assert data["fixed_clique"] == [0] and data["group_order"] == 4


def test_hyper_check_subcommand(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    code, out, _ = run_cli(["hyper-check", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["helly_property"] is False
    assert data["helly_failing_triple"] == [0, 1, 2]
    assert data["conformal"] is False
    assert data["gilmore_failing_edge_triple"] == [0, 1, 2]
    assert data["dual_helly_property"] is False


def test_hyp_subcommand(graph_file):
    code, out, _ = run_cli(["hyp", graph_file(geometry.cycle_graph(6))])
    assert code == 0 and json.loads(out)["two_delta"] == 2
    # beyond the cap the sampled lower bound is reported, seeded
    path = graph_file(geometry.king_graph(4, 4), "king4.json")
    code, out, _ = run_cli(["hyp", path, "--cap", "10", "--sample", "2000"])
    data = json.loads(out)
    assert code == 0 and data["seed"] == 0 and data["two_delta_lower_bound"] >= 0


def test_gen_random_params():
    code, out, _ = run_cli(["gen", "random", "8", "35", "7"])
    assert code == 0
    g = Graph.from_json(out)
    assert g.n == 8
    assert g == geometry.random_connected_graph(8, 0.35, 7)


def test_repro_all_fast_pass():
    for name in claims.CLAIMS:
        code, out, _ = run_cli(["repro", name])
        assert code == 0 and out.strip().endswith("PASS"), name


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    code, _, err = run_cli(["check", str(bad)])
    assert code == 3 and "disconnected" in err


def test_output_determinism(graph_file):
    path = graph_file(geometry.king_graph(3, 3))
    outs = {run_cli(["check", path])[1] for _ in range(3)}
    assert len(outs) == 1
    outs = {run_cli(["hull", path])[1] for _ in range(3)}
    assert len(outs) == 1


def test_console_entry_point():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # the same helly package
    proc = subprocess.run([sys.executable, "-m", "helly.cli", "repro", "--list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.split() == list(claims.CLAIMS)


def test_every_tracer_target_exists():
    # the per-layer benchmark wraps these names; a rename would zero its metrics
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().missing == []


@pytest.mark.parametrize("pair", [("0", "99"), ("-1", "0"), ("0", "9")])
def test_bicombing_pair_out_of_range(graph_file, pair):
    path = graph_file(geometry.king_graph(3, 3))
    code, out, err = run_cli(["bicombing", path, "--pair", *pair])
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "[0, 9)" in err


@pytest.mark.parametrize("argv, text", [
    (["check", "{}"], '{"n": 3, "edges": [[0, 1], '),
    (["check", "{}"], '{"n": 3, "edges": [[0, 1, 2]]}'),
    (["check", "{}"], '{"n": 2.5, "edges": [[0, 1]]}'),
    (["check", "{}"], '{"n": true, "edges": [[0, 1]]}'),
    (["check", "{}"], '[3, [[0, 1]]]'),
    (["hull", "{}"], '{"d": [[0, 1], [1, 0.5]]}'),
    (["hyper-check", "{}"], '{"n": 3}'),
    (["build", "sgp", "{}"], '{"factors": [{"n": 2.5, "edges": [[0, 1]]}], "pieces": [[0]]}'),
    (["coarse", "{}", "--centers", "0", "5", "--radii", "1", "1"],
     '{"n": 3, "edges": [[0, 1], [1, 2]]}'),
    (["coarse", "{}", "--centers", "-1", "0", "--radii", "1", "1"],
     '{"n": 3, "edges": [[0, 1], [1, 2]]}'),
    (["hyper-check", "{}"], '{"n": -1, "edges": []}'),
    (["gen", "king", "2"], None),
    (["gen", "path"], None),
    (["gen", "sun3", "1"], None),
    (["bicombing", "{}", "--fellow-traveler", "--budget", "-5"],
     '{"n": 3, "edges": [[0, 1], [1, 2]]}'),
    (["check", "no-such-file.json"], None),
    (["build", "glue", "{}", "{}", "--gluings", "abc"], '{"n": 3, "edges": [[0, 1], [1, 2]]}'),
    (["build", "glue", "{}", "{}", "--gluings", "[[0,0,1]]"],
     '{"n": 3, "edges": [[0, 1], [1, 2]]}'),
    (["build", "glue", "{}", "{}", "--gluings", "[[0,0.5,1,0]]"],
     '{"n": 3, "edges": [[0, 1], [1, 2]]}'),
    (["build", "glue", "{}", "{}", "--gluings", "[[0,1.0,1,0]]"],
     '{"n": 3, "edges": [[0, 1], [1, 2]]}'),
    (["check", "{}"], b"\xff\xfe{}"),
    (["gen", "hypercube", "-1"], None),
    (["hyp", "{}", "--cap", "10", "--sample", "-3"], '{"n": 12, "edges": %s}'
     % [[i, i + 1] for i in range(11)]),
    (["hyp", "{}", "--cap", "-1"], '{"n": 3, "edges": [[0, 1], [1, 2]]}'),
    (["hull", "{}"], '{"d": [[0, 1]]}'),  # not square
    (["hull", "{}"], '{"d": [[0, 1], [2, 0]]}'),  # not symmetric
    (["hull", "{}"], '{"d": [[0, 0], [0, 0]]}'),  # distinct points at distance 0
])
def test_malformed_input_is_refused(tmp_path, argv, text):
    if text is not None:
        path = tmp_path / "input.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        argv = [str(path) if a == "{}" else a for a in argv]
    code, out, err = run_cli(argv)
    assert (code, out, err.count("\n")) == (3, "", 1) and err.startswith("error: ")


@pytest.mark.parametrize("n, err", [
    (200000, "error: graph is disconnected (vertex 2 unreachable from 0)\n"),
    (10 ** 12, "error: graph of 1000000000000 vertices exceeds cap 200000\n"),
])
def test_an_oversized_graph_is_refused_before_its_masks_are_built(tmp_path, n, err):
    # under a 1 GB address-space limit, so that building the n masks fails
    # fast in the child instead of taking gigabytes in the test process
    import resource
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "edges": [[0, 1]]}))
    limit = (1 << 30, 1 << 30)
    proc = subprocess.run([sys.executable, "-m", "helly.cli", "check", str(path)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


@pytest.mark.parametrize("var, argv", [
    ("HELLY_MAX_CLIQUES", ["build", "nerve"]),
    ("HELLY_MAX_FORMS", ["hull"]),
])
@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_bad_env_cap_is_validation_error(graph_file, monkeypatch, var, argv, value):
    path = graph_file(geometry.complete_graph(3))
    monkeypatch.setenv(var, value)
    code, out, err = run_cli(argv + [path])
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and var in err


# -- input-boundary fuzzing -----------------------------------------------------

GRAPH_JSON = st.one_of(
    st.fixed_dictionaries({
        "n": st.integers(-1, 6),
        "edges": st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=9)}),
    # mostly connected: a spanning tree plus extra pairs, some out of range
    st.integers(1, 6).flatmap(lambda n: st.fixed_dictionaries({
        "n": st.just(n),
        "edges": st.tuples(*[st.integers(0, v - 1).map(lambda u, v=v: [u, v])
                             for v in range(1, n)]).map(list)
                 .flatmap(lambda tree: st.lists(st.lists(st.integers(-1, n), min_size=2,
                                                         max_size=2), max_size=n)
                          .map(lambda extra: tree + extra))})))
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "edges", "d", "perms", "factors", "pieces"]), inner, max_size=4),
    max_leaves=12)
FILE_JSON = st.one_of(
    GRAPH_JSON, ANY_JSON,
    st.fixed_dictionaries({"d": st.lists(st.lists(st.integers(-1, 3), max_size=4), max_size=4)}),
    st.fixed_dictionaries({"perms": st.lists(st.lists(st.integers(-1, 3), max_size=4),
                                             max_size=2)}),
    st.fixed_dictionaries({"factors": st.lists(GRAPH_JSON, max_size=2),
                           "pieces": st.lists(st.lists(st.none() | st.integers(-1, 3),
                                                       max_size=2), max_size=3)}))
FILE_BYTES = st.one_of(st.binary(max_size=48), FILE_JSON.map(json.dumps).map(str.encode))

# every subcommand that reads files; "{}" is the fuzzed file, "{g}" a path graph
FILE_COMMANDS = [
    ["check", "{}"], ["hull", "{}"], ["hyp", "{}"], ["hyper-check", "{}"],
    ["bicombing", "{}", "--pair", "0", "1"],
    ["bicombing", "{}", "--fellow-traveler", "--budget", "30"],
    ["coarse", "{}", "--centers", "0", "--radii", "1"],
    ["fix", "{}", "{g}"], ["fix", "{g}", "{}"],
    ["build", "product", "{}", "{g}"], ["build", "glue", "{g}", "{}", "--gluings", "[[0,0,1,0]]"],
] + [["build", kind, "{}"] for kind in ("thicken", "rips", "face", "nerve", "sgp")]


def run_cli_to_exit(argv):
    """Like run_cli, with argparse's usage exits turned into their code."""
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code, "", ""


def assert_clean_exit(code, out, err):
    assert code in (0, 2, 3) and "Traceback" not in err
    if code:
        assert err.count("\n") == 1 and out == "", err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "g.json").write_text(geometry.path_graph(3).to_json())
    return path


@settings(max_examples=300, deadline=None)
@given(argv=st.sampled_from(FILE_COMMANDS), data=FILE_BYTES)
def test_every_file_subcommand_exits_cleanly_on_arbitrary_input(fuzz_dir, argv, data):
    (fuzz_dir / "in.json").write_bytes(data)
    files = {"{}": str(fuzz_dir / "in.json"), "{g}": str(fuzz_dir / "g.json")}
    assert_clean_exit(*run_cli_to_exit([files.get(a, a) for a in argv]))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["gen", "repro"]),
       name=st.one_of(st.sampled_from(sorted(cli._GENERATORS)), st.text(max_size=8)),
       params=st.lists(st.integers(-2, 4), max_size=3))
def test_named_subcommands_exit_cleanly_on_arbitrary_names(command, name, params):
    argv = [command, "--", name] + ([str(p) for p in params] if command == "gen" else [])
    assert_clean_exit(*run_cli_to_exit(argv))


def run_fresh(argv, code):
    """Exit code and stdout of `python -c code argv...` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # the same helly package
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv, loaded", [
    ([], "helly helly.cli helly.errors"),
    (["repro", "--list"], "helly helly.claims helly.cli helly.errors"),
    # no generator uses numpy, and the graph modules import it only where they use it
    (["gen", "king", "4", "6"], "helly helly.cli helly.errors helly.geometry helly.graphs"),
])
def test_the_cli_loads_only_the_modules_a_command_runs(argv, loaded):
    code = ("import sys, helly.cli\n"
            "if sys.argv[1:]: helly.cli.main(sys.argv[1:])\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('helly', 'numpy')))")
    code, out = run_fresh(argv, code)
    assert code == 0 and out.splitlines()[-1] == loaded


@pytest.fixture(scope="module")
def command_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("commands")
    for name, g in (("king", geometry.king_graph(3, 3)), ("p3", geometry.path_graph(3)),
                    ("grid", geometry.grid_graph(3, 3)), ("k3", geometry.complete_graph(3)),
                    ("c6", geometry.cycle_graph(6)), ("star", geometry.star_graph(4))):
        (path / f"{name}.json").write_text(g.to_json())
    p2 = {"n": 2, "edges": [[0, 1]]}
    files = {"act": {"perms": [[0, 2, 3, 4, 1]]},
             "h": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
             "sgp": {"factors": [p2, p2], "pieces": [[None, 0], [0, None], [None, None]]}}
    for name, data in files.items():
        (path / f"{name}.json").write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("argv", [
    ["check", "king.json"], ["hull", "c6.json"], ["bicombing", "king.json", "--pair", "0", "8"],
    ["bicombing", "king.json", "--fellow-traveler"], ["build", "product", "p3.json", "p3.json"],
    ["build", "thicken", "grid.json"], ["build", "rips", "p3.json", "--delta", "2"],
    ["build", "face", "k3.json"], ["build", "nerve", "king.json"], ["build", "sgp", "sgp.json"],
    ["build", "glue", "k3.json", "k3.json", "--gluings", "[[0,0,1,0]]"],
    ["gen", "king", "3", "3"], ["hyp", "c6.json"],
    ["coarse", "c6.json", "--centers", "0", "2", "4", "--radii", "1", "1", "1"],
    ["fix", "star.json", "act.json"], ["hyper-check", "h.json"], ["repro", "--list"],
    ["repro", "ncp-figure"],
])
def test_every_subcommand_runs_alone_in_a_fresh_interpreter(command_dir, argv):
    # in-process, every module is loaded already and would hide a missing import
    argv = [str(command_dir / a) if a.endswith(".json") else a for a in argv]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert run_fresh(argv, "import sys, helly.cli; sys.exit(helly.cli.main(sys.argv[1:]))") == (
        code, out)


@pytest.mark.parametrize("maker, argv, size", [
    ("path_graph", ["path", "200000"], 200000),
    ("path_graph", ["path", "200001"], 200001),
    ("grid_graph", ["grid", "400", "500"], 200000),
    ("grid_graph", ["grid", "1", "200001"], 200001),
    ("hypercube_graph", ["hypercube", "17"], 131072),
    ("hypercube_graph", ["hypercube", "18"], 262144),
    ("z3_box", ["z3-box", "28"], 185193),
    ("z3_box", ["z3-box", "29"], 205379),
    ("complete_graph", ["complete", "632"], 199396),  # pairs visited, n(n - 1)/2
    ("complete_graph", ["complete", "633"], 200028),
    ("random_connected_graph", ["random", "632", "1", "0"], 199396),
    ("random_connected_graph", ["random", "633", "1", "0"], 200028),
])
def test_gen_refuses_a_graph_past_the_size_cap_before_building_it(monkeypatch, maker, argv,
                                                                   size):
    built, small = [], geometry.path_graph(2)
    made = (small, {}) if maker == "z3_box" else small  # z3_box returns (graph, index)
    monkeypatch.setattr(geometry, maker, lambda *params: built.append(params) or made)
    code, out, err = run_cli(["gen", *argv])
    if size <= 200000:
        assert (code, out, err, len(built)) == (0, small.to_json() + "\n", "", 1)
    else:
        assert (code, out, built) == (3, "", [])
        assert err == f"error: generator {argv[0]!r} size {size} exceeds cap 200000\n"
