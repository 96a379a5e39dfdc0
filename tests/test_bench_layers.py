"""The layer benchmark's generate group repeats its counts under one seed,
and a run stored under a second revision leaves the first one's bytes alone."""

import json
import sys
from pathlib import Path

# the script imports its sibling seeded_outputs, as it does when run
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_layers  # noqa: E402

TIMINGS = ("seconds", "tracemalloc_peak_bytes", "seconds_per_attempt")


def counts(rows):
    return [{key: value for key, value in row.items() if key not in TIMINGS}
            for row in rows]


def test_generate_counts_repeat_and_stored_runs_stay_byte_identical(tmp_path):
    first = bench_layers.run("generate", [300], 1, 5)
    second = bench_layers.run("generate", [300], 1, 5)
    assert counts(first) == counts(second)
    assert [(row["law"], row.get("model")) for row in first] == [
        ("poisson:3", None), ("zeta:2.5", None), ("poisson:3", "rcm")]
    for row in first[:2]:
        assert row["total_stubs"] - row["total_erased"] == row["edges"]
    # a cold parse builds the 1e6-point zeta table; a cache hit allocates
    # next to nothing
    assert first[1]["tracemalloc_peak_bytes"]["parse_law"] > 8_000_000
    assert first[2]["attempts"] >= 1

    path = tmp_path / "BENCH_generate.json"
    bench_layers.write_labelled_run(path, "generate", "rev-a",
                                    {"source_revision": "rev-a", "rows": first})
    before = path.read_text(encoding="utf-8")
    bench_layers.write_labelled_run(path, "generate", "rev-b",
                                    {"source_revision": "rev-b", "rows": second})
    after = path.read_text(encoding="utf-8")
    # everything up to the end of rev-a's run, its row lines included
    assert after.startswith(before[:-len("\n}}\n")])
    runs = json.loads(after)["runs"]
    assert list(runs) == ["rev-a", "rev-b"]
    assert runs["rev-a"] == json.loads(before)["runs"]["rev-a"]
