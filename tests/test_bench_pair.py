"""``scripts/bench_pair.py``'s reading and assembly, on canned result lines;
no benchmark is run."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "scripts" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def canned(cold, rss, correct=True):
    """The stdout of one perfbench run: report lines, then the result line."""
    result = {"correct": correct, "attempted": 3, "failed": 0, "metrics": {
        "cold_s": {"value": cold, "unit": "s"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
    }}
    return f"workload theorem-a  seed 1\ncold_s        {cold:.4f} s\n{json.dumps(result)}\n"


def test_the_result_is_the_last_line():
    result = bench_pair.result_line(canned(1.5, 30.0))
    assert result["correct"] and result["metrics"]["cold_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError):
        bench_pair.result_line("\n")


def test_assembly_pairs_the_sides_by_seed():
    lines = {  # (seed, side) -> (cold_s, peak_rss_mib), listed out of seed order
        (3, "change"): (0.7, 30.0), (3, "parent"): (1.0, 30.0),
        (1, "parent"): (1.2, 31.0), (1, "change"): (0.8, 30.5),
        (2, "change"): (1.1, 30.0), (2, "parent"): (0.9, 30.0),
    }
    runs = [
        ("theorem-a", seed, side, bench_pair.result_line(canned(*values)))
        for (seed, side), values in lines.items()
    ]
    record = bench_pair.assemble(runs)
    cold = record["theorem-a"]["cold_s"]
    assert cold.pop("parent_iqr") == pytest.approx(1.2 - 0.9)  # quartiles of three samples
    assert cold == {
        "unit": "s",
        "seeds": [1, 2, 3],
        "parent_samples": [1.2, 0.9, 1.0],
        "change_samples": [0.8, 1.1, 0.7],
        "parent_median": 1.0,
        "change_median": 0.8,
        "change_lower_on": 2,
        "gain_rule_met": False,  # lower on two of three pairs only
    }
    rss = record["theorem-a"]["peak_rss_mib"]
    assert (rss["parent_median"], rss["change_median"], rss["change_lower_on"]) == (30.0, 30.0, 1)


def test_a_seed_with_an_incorrect_side_is_left_out_of_the_pairs():
    lines = {  # (seed, side) -> (cold_s, peak_rss_mib, correct)
        (1, "parent"): (1.2, 31.0, True), (1, "change"): (0.8, 30.5, True),
        (2, "parent"): (0.9, 30.0, True), (2, "change"): (0.1, 29.0, False),
        (3, "parent"): (5.0, 30.0, False), (3, "change"): (0.7, 30.0, True),
        (4, "change"): (0.6, 30.0, True),  # its parent run is missing
        (5, "parent"): (1.0, 30.0, True), (5, "change"): (0.9, 30.0, True),
    }
    runs = [
        ("theorem-a", seed, side, bench_pair.result_line(canned(*values)))
        for (seed, side), values in lines.items()
    ]
    cold = bench_pair.assemble(runs)["theorem-a"]["cold_s"]
    assert cold["seeds"] == [1, 5]
    assert (cold["parent_samples"], cold["change_samples"]) == ([1.2, 1.0], [0.8, 0.9])
    assert cold["parent_median"] == pytest.approx(1.1)
    assert cold["change_median"] == pytest.approx(0.85)
    assert cold["change_lower_on"] == 2


def test_the_parent_spread_is_its_interquartile_range():
    """Ten seeds with parent cold_s 1.0..1.9: quartiles 1.175 and 1.725
    (statistics.quantiles' exclusive method); one seed has no spread."""
    runs = [
        ("nerve", seed, side, bench_pair.result_line(canned(0.9 + seed / 10, 30.0)))
        for seed in range(1, 11) for side in bench_pair.SIDES
    ]
    cold = bench_pair.assemble(runs)["nerve"]["cold_s"]
    assert cold["parent_median"] == pytest.approx(1.45)
    assert cold["parent_iqr"] == pytest.approx(1.725 - 1.175)
    assert bench_pair.assemble(runs[:2])["nerve"]["cold_s"]["parent_iqr"] == 0


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    files = {  # path -> lines, in two trees
        "parent/src/pkg/a.py": 3, "parent/src/pkg/sub/b.py": 2, "parent/src/pkg/c.txt": 7,
        "parent/tests/test_a.py": 5, "change/src/pkg/a.py": 1,
    }
    for name, count in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x = 1\n" * count)
    assert bench_pair.src_lines(tmp_path / "parent") == 5
    assert bench_pair.src_lines(str(tmp_path / "change")) == 1
    assert bench_pair.src_lines(ROOT) == sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


@pytest.mark.parametrize("drop,higher,met", [
    (0.7, {3}, True),  # the change median 0.85 lies 0.6 below
    (0.7, {3, 8}, False),
    (0.5, set(), False),
], ids=["lower on nine of ten, by more than the spread", "lower on eight of ten",
        "lower on all ten, by less than the spread"])
def test_the_gain_rule_needs_nine_in_ten_pairs_and_a_drop_past_the_spread(drop, higher, met):
    """Parent cold_s 1.0..1.9 (median 1.45, interquartile range 0.55); the
    change reads ``drop`` below the parent on each seed but those in
    ``higher``, where it reads 0.5 above.  peak_rss_mib does not move."""
    runs = []
    for seed in range(1, 11):
        parent = 0.9 + seed / 10
        change = parent + 0.5 if seed in higher else parent - drop
        runs.append(("nerve", seed, "parent", bench_pair.result_line(canned(parent, 30.0))))
        runs.append(("nerve", seed, "change", bench_pair.result_line(canned(change, 30.0))))
    record = bench_pair.assemble(runs)["nerve"]
    assert record["cold_s"]["change_lower_on"] == 10 - len(higher)
    assert record["cold_s"]["gain_rule_met"] is met
    assert record["peak_rss_mib"]["gain_rule_met"] is False
