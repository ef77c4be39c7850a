"""The statistics of ``tools/bench_pairs.py`` on canned benchmark result lines."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "small_job_ms", "unit": "ms", "better": "lower", "bound": 0.1},
]


def line(jobs, small, correct=True, failed=0):
    return json.dumps({
        "correct": correct,
        "attempted": 40,
        "failed": failed,
        "metrics": {"jobs_per_s": {"value": jobs, "unit": "1/s"},
                    "small_job_ms": {"value": small, "unit": "ms"}},
    })


def test_reads_the_last_nonblank_line():
    stdout = "workload expand seed 1: 21 jobs\nattempted 40\n" + line(140.0, 1.5) + "\n\n"
    assert bench_pairs.read_result(stdout)["metrics"]["jobs_per_s"]["value"] == 140.0
    with pytest.raises(ValueError):
        bench_pairs.read_result("\n")


def test_medians_iqr_and_wins():
    parent = [line(v, 1.0) for v in (100, 104, 98, 102, 101)]
    change = [line(v, s) for v, s in ((110, 0.9), (103, 1.1), (99, 0.95), (120, 0.8), (100, 1.0))]
    pairs = [(json.loads(p), json.loads(c)) for p, c in zip(parent, change)]
    jobs, small = bench_pairs.compare(pairs, METRICS)
    assert (jobs.parent, jobs.change) == (101, 103)
    # quartiles of 98, 100, 101, 102, 104 (inclusive): 100 and 102
    assert jobs.parent_iqr == 2
    assert (jobs.wins, jobs.pairs, jobs.worse) == (3, 5, False)
    # lower is better: 0.9, 0.95 and 0.8 beat 1.0; a tie is no win
    assert (small.parent, small.change, small.parent_iqr) == (1.0, 0.95, 0)
    assert (small.wins, small.worse) == (3, False)


def test_worse_than_bound_in_either_direction():
    pairs = [(json.loads(line(100, 1.0)), json.loads(line(84, 1.11)))]
    jobs, small = bench_pairs.compare(pairs, METRICS)
    assert jobs.worse and small.worse and jobs.parent_iqr == 0
    pairs = [(json.loads(line(100, 1.0)), json.loads(line(86, 1.09)))]
    assert not any(row.worse for row in bench_pairs.compare(pairs, METRICS))
    report = bench_pairs.format_rows("expand", bench_pairs.compare(
        [(json.loads(line(100, 1.0)), json.loads(line(50, 1.0)))], METRICS))
    assert "jobs_per_s" in report and "WORSE THAN BOUND" in report and "0/1" in report


def test_spread_wider_than_the_bound_is_unresolved():
    # jobs_per_s: parent IQR 40 against a bound of 0.15 x 100 = 15
    parent = [line(v, 1.0) for v in (60, 80, 100, 120, 140)]
    overlapping = [line(v, 1.0) for v in (70, 90, 105, 125, 130)]
    jobs, small = bench_pairs.compare(
        [(json.loads(p), json.loads(c)) for p, c in zip(parent, overlapping)], METRICS)
    assert (jobs.parent_iqr, jobs.worse, jobs.unresolved) == (40, False, True)
    assert not small.unresolved  # no spread at all
    report = bench_pairs.format_rows("convert", [jobs, small])
    assert report.count("UNRESOLVED") == 1
    # every change run beats every parent run: resolved despite the spread
    separated = [line(v, 1.0) for v in (150, 160, 170, 180, 190)]
    jobs, _ = bench_pairs.compare(
        [(json.loads(p), json.loads(c)) for p, c in zip(parent, separated)], METRICS)
    assert not jobs.unresolved


def test_faults_are_wrong_answers_and_failed_operations():
    assert bench_pairs.faults(json.loads(line(1, 1))) == []
    assert bench_pairs.faults(json.loads(line(1, 1, correct=False))) == ["correct is not true"]
    assert bench_pairs.faults(json.loads(line(1, 1, failed=2))) == ["failed 2"]


@pytest.mark.parametrize("change_jobs, status", [(0.84, 1), (0.86, 0), (1.2, 0)])
def test_main_exits_1_when_a_median_is_worse_than_its_bound(monkeypatch, capsys,
                                                           change_jobs, status):
    # jobs_per_s is bounded at 15%; every other metric ties
    benchmark = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())

    def run_once(tree, workload, seconds, seed):
        metrics = {m["name"]: {"value": 1.0} for m in benchmark["end_to_end"]}
        if tree.name == "change":
            metrics["jobs_per_s"] = {"value": change_jobs}
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "convert"]) == status
    assert ("WORSE THAN BOUND" in capsys.readouterr().out) == bool(status)


def test_main_runs_ten_alternating_pairs_of_the_benchmark_run_length(monkeypatch, capsys):
    benchmark = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    runs = []

    def run_once(tree, workload, seconds, seed):
        side = tree.name
        runs.append((side, workload, seconds))
        assert seed == 1
        return {"correct": True, "failed": int(side == "change" and len(runs) == 3),
                "metrics": {m["name"]: {"value": 1.0} for m in benchmark["end_to_end"]}}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "expand"]) == 1
    assert len(runs) == 2 * bench_pairs.PAIRS >= 20
    assert {(w, s) for _, w, s in runs} == {("expand", benchmark["run_seconds"])}
    firsts = [side for side, _, _ in runs[::2]]
    assert firsts == ["parent", "change"] * (bench_pairs.PAIRS // 2)
    out = capsys.readouterr()
    assert "workload expand (seed 1): 10 pairs" in out.out and "failed 1" in out.err


def test_seed_reaches_every_run_and_the_report(monkeypatch, capsys):
    """``--seed N`` runs every pair at ``perfbench/run.py --seed N``; without
    it the seed is 1."""
    benchmark = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    result = {"correct": True, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0} for m in benchmark["end_to_end"]}}
    commands = []

    def fake_run(command, cwd, capture_output, text):
        commands.append(command)
        return subprocess.CompletedProcess(command, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "convert", "--seed", "2"]) == 0
    assert len(commands) == 2 * bench_pairs.PAIRS
    assert all(command[command.index("--seed") + 1] == "2" for command in commands)
    assert "workload convert (seed 2): 10 pairs" in capsys.readouterr().out
    commands.clear()
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "convert"]) == 0
    assert {command[command.index("--seed") + 1] for command in commands} == {"1"}


def test_alternate_exports_once_and_removes_the_tree_on_break(monkeypatch):
    exported = []
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: exported.append((rev, dest)))
    orders = [[side for side, _ in order] for _, order in bench_pairs.alternate("HEAD~1", 3)]
    assert orders == [["parent", "change"], ["change", "parent"], ["parent", "change"]]
    # both sides once, into sibling directories: the parent's revision, and
    # the checkout (None)
    assert [rev for rev, _ in exported] == ["HEAD~1", None]
    assert [dest.name for _, dest in exported] == ["parent", "change"]
    assert exported[0][1].parent == exported[1][1].parent
    for _, order in bench_pairs.alternate("HEAD~1", 3):
        trees = dict(order)
        assert trees["parent"].parent.is_dir() and trees["change"] != bench_pairs.ROOT
        break
    assert not trees["parent"].parent.exists()


def snapshot(root):
    """Every file under ``root`` with its bytes."""
    return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_both_sides_are_exported_alike(tmp_path, monkeypatch):
    """The parent is the revision's files; the change is the checkout's
    tracked and unignored files as the working tree has them: edits and new
    files in, ignored and deleted files out, and nothing written under .git."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src").mkdir()
    for name in ("src/kept.py", "src/edited.py", "src/deleted.py"):
        (repo / name).write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "src/edited.py").write_text("edited\n")
    (repo / "src/deleted.py").unlink()
    (repo / "src/new.py").write_text("new\n")
    (repo / "src/__pycache__").mkdir()
    (repo / "src/__pycache__/kept.pyc").write_bytes(b"built")
    before = snapshot(repo / ".git")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    trees = {}
    for _, order in bench_pairs.alternate("HEAD", 1):
        trees = {side: snapshot(tree) for side, tree in order}
    assert trees["parent"] == {".gitignore": b"__pycache__/\n", "src/kept.py": b"committed\n",
                               "src/edited.py": b"committed\n", "src/deleted.py": b"committed\n"}
    assert trees["change"] == {".gitignore": b"__pycache__/\n", "src/kept.py": b"committed\n",
                               "src/edited.py": b"edited\n", "src/new.py": b"new\n"}
    assert snapshot(repo / ".git") == before
