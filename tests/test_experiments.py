"""Experiment sweeps: seed fan-out, CSV round-trips, determinism, summaries."""

import numpy as np
import pytest

from degdep import DegreeTypePair, child_seed
from degdep.correlations import PairTable
from degdep.experiments import (
    ConsistencyRow,
    EndpointLawRow,
    ExperimentConfig,
    builtin_joint,
    generate_graph,
    read_rows_csv,
    run_consistency,
    run_endpoint_laws,
    run_null_model,
    summarize_null_model,
    write_rows_csv,
    write_summary_csv,
)


class TestChildSeed:
    def test_pinned_values(self):
        # frozen convention: first 8 LE bytes of
        # SHA-256("degdep-seed" 0x1f master 0x1f part ...)
        assert child_seed(0, 0, 0, "generate") == 5795858891698404777
        assert child_seed(42, 1, 3, "tie-break") == 705321691663988092
        assert child_seed(7, "x") == 6458235744733570337

    def test_distinct_across_parts(self):
        seeds = {
            child_seed(0, i, j, tag)
            for i in range(4)
            for j in range(4)
            for tag in ("a", "b")
        }
        assert len(seeds) == 32

    def test_no_concatenation_collisions(self):
        assert child_seed(0, 12, 3) != child_seed(0, 1, 23)
        assert child_seed(0, "ab", "c") != child_seed(0, "a", "bc")


class TestConfigValidation:
    def test_rejects_descending_sizes(self):
        with pytest.raises(ValueError, match="ascending"):
            ExperimentConfig(
                model="cm", sizes=(100, 10), replicas=1,
                out_law="poisson:1", in_law="poisson:1", seed=0,
            )

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measures"):
            ExperimentConfig(
                model="cm", sizes=(10,), replicas=1,
                out_law="poisson:1", in_law="poisson:1", seed=0,
                measures=("kendall", "tau-b"),
            )

    def test_rejects_bad_model(self):
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig(
                model="erdos", sizes=(10,), replicas=1,
                out_law="poisson:1", in_law="poisson:1", seed=0,
            )


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        model="ecm", sizes=(60, 120), replicas=3,
        out_law="poisson:2", in_law="poisson:2", seed=5,
        tie_break_replicas=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestNullModelSweep:
    def test_row_grid_complete(self):
        config = small_config()
        rows = run_null_model(config)
        assert len(rows) == 2 * 3 * 4 * 3  # sizes x replicas x pairs x measures
        keys = {(r.n, r.replica, r.pair, r.measure) for r in rows}
        assert len(keys) == len(rows)

    def test_values_bounded_or_undefined(self):
        rows = run_null_model(small_config())
        for row in rows:
            if row.defined:
                assert -1.0 <= row.value <= 1.0
            else:
                assert row.value is None

    def test_deterministic(self):
        assert run_null_model(small_config()) == run_null_model(small_config())

    def test_jobs_do_not_change_rows(self):
        assert run_null_model(small_config()) == run_null_model(small_config(jobs=4))

    def test_pair_subset_keeps_each_pairs_draws(self):
        # a pair's tie-break draws are seeded by its index among all pairs,
        # not among the pairs asked for
        everything = run_null_model(small_config(tie_break_replicas=2))
        in_in = run_null_model(small_config(tie_break_replicas=2, pairs=("in-in",)))
        assert len(in_in) == 2 * 3 * 3
        assert in_in == [row for row in everything if row.pair == "in-in"]

    def test_generation_failures_become_undefined_rows(self):
        config = small_config(model="rcm", sizes=(200,), replicas=2,
                              out_law="zeta:2.1", in_law="zeta:2.1", max_attempts=2)
        rows = run_null_model(config)
        assert len(rows) == 2 * 4 * 3
        assert all(not r.defined for r in rows)
        assert all(r.attempts == 2 for r in rows)

    def test_ecm_rows_carry_erased_fraction(self):
        rows = run_null_model(small_config(sizes=(80,), replicas=1))
        assert all(r.erased_fraction is not None for r in rows)

    def test_rcm_mean_abs_decreases_with_size(self):
        # poisson(1) keeps the per-attempt simplicity probability high, so the
        # repeated model is cheap enough to check the shrink-toward-zero trend
        config = small_config(
            model="rcm", sizes=(300, 3000), replicas=6,
            out_law="poisson:1", in_law="poisson:1",
            max_attempts=5000, seed=21,
        )
        summary = summarize_null_model(run_null_model(config))
        mean_abs = {(e["n"], e["pair"], e["measure"]): e["mean_abs"] for e in summary}
        shrunk = sum(
            mean_abs[(3000, pair, measure)] < mean_abs[(300, pair, measure)]
            for pair in ("out-in", "in-out", "out-out", "in-in")
            for measure in ("spearman_uniform", "spearman_average", "kendall")
        )
        assert shrunk >= 11  # allow one noisy cell out of twelve
        for key, value in mean_abs.items():
            if key[0] == 3000:
                assert value <= 0.08, (key, value)

    def test_default_uniform_rank_value_is_the_exact_mean(self):
        config = small_config(tie_break_replicas=None, replicas=2)
        rows = run_null_model(config)
        checked = 0
        for row in rows:
            if row.measure != "spearman_uniform":
                continue
            size_index = config.sizes.index(row.n)
            graph = generate_graph(
                config.model, row.n, *config.laws(),
                np.random.default_rng(child_seed(config.seed, size_index, row.replica,
                                                 "generate"))).graph
            table = PairTable.of_graph(graph, DegreeTypePair.from_label(row.pair))
            assert row.value == table.spearman_uniform_mean()
            checked += 1
        assert checked == 2 * 2 * 4

    def test_csv_round_trip_lossless(self, tmp_path):
        rows = run_null_model(small_config(sizes=(60,), replicas=2))
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        back = read_rows_csv(path)
        assert back == rows

    @pytest.mark.parametrize("overrides", [
        # every rcm attempt fails: value and erased_fraction are empty cells
        dict(model="rcm", sizes=(200,), replicas=2, out_law="zeta:2.1",
             in_law="zeta:2.1", max_attempts=2),
        # cm records no erasure: erased_fraction is an empty cell
        dict(model="cm", sizes=(60,), replicas=2),
    ], ids=["rcm-failed", "cm"])
    def test_csv_round_trip_keeps_empty_cells(self, tmp_path, overrides):
        rows = run_null_model(small_config(**overrides))
        assert all(row.erased_fraction is None for row in rows)
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        assert read_rows_csv(path) == rows

    def test_summary_block(self, tmp_path):
        rows = run_null_model(small_config())
        summary = summarize_null_model(rows)
        cells = {(e["n"], e["pair"], e["measure"]) for e in summary}
        assert len(cells) == 2 * 4 * 3
        for entry in summary:
            assert entry["replicas"] == 3
            if entry["defined"]:
                assert abs(entry["mean"]) <= 1.0
                assert entry["mean_abs"] >= 0.0
        write_summary_csv(rows, tmp_path / "summary.csv")
        text = (tmp_path / "summary.csv").read_text()
        assert text.splitlines()[0] == "n,pair,measure,replicas,defined,mean,std,mean_abs"

    def test_empty_summary_writes_its_header(self, tmp_path):
        write_summary_csv([], tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_text() == (
            "n,pair,measure,replicas,defined,mean,std,mean_abs\n")


class TestConsistencySweep:
    def test_targets_and_errors(self):
        joint = builtin_joint("bernoulli-equal")
        rows = run_consistency(joint, sizes=(5000,), replicas=2, seed=3,
                               tie_break_replicas=4)
        by_measure = {}
        for row in rows:
            by_measure.setdefault(row.measure, []).append(row)
        assert by_measure["spearman_uniform"][0].target == pytest.approx(0.75)
        assert by_measure["kendall"][0].target == pytest.approx(0.5)
        assert by_measure["spearman_average"][0].target == pytest.approx(1.0)
        for row in rows:
            assert row.defined
            assert row.abs_error == pytest.approx(abs(row.value - row.target))
            assert row.abs_error < 0.1

    def test_default_uniform_rank_value_is_the_exact_mean(self):
        joint = builtin_joint("bernoulli-product")
        rows = run_consistency(joint, sizes=(50, 400), replicas=3, seed=6)
        checked = 0
        for row in rows:
            if row.measure != "spearman_uniform":
                continue
            size_index = (50, 400).index(row.n)
            x, y = joint.sample(np.random.default_rng(
                child_seed(6, size_index, row.replica, "consistency-sample")), row.n)
            assert row.value == PairTable(x, y).spearman_uniform_mean()
            checked += 1
        assert checked == 2 * 3

    def test_jobs_do_not_change_rows(self):
        rows = [
            run_consistency(builtin_joint("bernoulli-product"), sizes=(50, 400), replicas=3,
                            seed=6, tie_break_replicas=2, jobs=jobs)
            for jobs in (1, 3)
        ]
        assert rows[0] == rows[1]

    def test_repeated_sizes_accepted(self):
        rows = run_consistency(builtin_joint("bernoulli-product"), sizes=(50, 50),
                               replicas=1, seed=6)
        assert [row.n for row in rows] == [50] * 2 * 3

    def test_error_shrinks_with_size(self):
        joint = builtin_joint("bernoulli-equal")
        rows = run_consistency(joint, sizes=(500, 50_000), replicas=4, seed=4,
                               tie_break_replicas=4)
        err = {n: [] for n in (500, 50_000)}
        for row in rows:
            err[row.n].append(row.abs_error)
        assert np.mean(err[50_000]) < np.mean(err[500])

    def test_error_rate_roughly_root_n(self):
        # mean error should scale like n^(-1/2); allow a factor-2 band
        joint = builtin_joint("bernoulli-equal")
        rows = run_consistency(joint, sizes=(1000, 100_000), replicas=12, seed=8,
                               tie_break_replicas=2)
        err = {1000: [], 100_000: []}
        for row in rows:
            err[row.n].append(row.abs_error)
        ratio = np.mean(err[1000]) / np.mean(err[100_000])
        assert 10 / 2 <= ratio <= 10 * 2  # sqrt(100) = 10 expected

    def test_degenerate_joint_rejected(self):
        from degdep import DegenerateLawError, JointPmf

        bad = JointPmf.from_entries({(0, 0): 0.5, (0, 1): 0.5})
        with pytest.raises(DegenerateLawError):
            run_consistency(bad, sizes=(100,), replicas=1, seed=0)

    def test_builtin_joints_cover_reference_cases(self):
        assert builtin_joint("bernoulli-opposite").xs.tolist() == [0, 1]
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_joint("cauchy")

    def test_csv_round_trip(self, tmp_path):
        rows = run_consistency(builtin_joint("bernoulli-product"), sizes=(300,),
                               replicas=2, seed=5, tie_break_replicas=2)
        path = tmp_path / "consistency.csv"
        write_rows_csv(rows, path)
        assert read_rows_csv(path, ConsistencyRow) == rows

    @pytest.mark.parametrize("tamper, message", [
        (lambda cells: cells[:-1], ":3: 6 cells, the header has 7"),
        (lambda cells: cells + ["1"], ":3: 8 cells, the header has 7"),
        (lambda cells: cells[:6] + ["yes"] + cells[7:],
         ":3: a bool cell must be true or false, got 'yes'"),
    ], ids=["short", "extra-cell", "bool-not-true-or-false"])
    def test_malformed_record_rejected_with_its_line(self, tmp_path, tamper, message):
        rows = run_consistency(builtin_joint("bernoulli-product"), sizes=(300,),
                               replicas=1, seed=5)
        path = tmp_path / "consistency.csv"
        write_rows_csv(rows, path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(tamper(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            read_rows_csv(path, ConsistencyRow)
        assert str(excinfo.value) == f"{path}{message}"
        assert type(excinfo.value) is ValueError

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "consistency.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header None does not match"):
            read_rows_csv(path, ConsistencyRow)


class TestEndpointLawSweep:
    def test_requires_cm(self):
        with pytest.raises(ValueError, match="cm"):
            run_endpoint_laws(small_config(model="ecm"))

    def test_rows_and_tv_small_for_point_mass(self):
        config = ExperimentConfig(
            model="cm", sizes=(50,), replicas=2,
            out_law="uniform:1..1", in_law="uniform:1..1", seed=6,
        )
        rows = run_endpoint_laws(config)
        assert len(rows) == 2 * 4 * 2  # replicas x pairs x sides
        assert all(r.tv_distance == 0.0 for r in rows)

    def test_jobs_do_not_change_rows(self):
        rows = [
            run_endpoint_laws(ExperimentConfig(
                model="cm", sizes=(50, 200), replicas=3,
                out_law="poisson:2", in_law="poisson:2", seed=6, jobs=jobs))
            for jobs in (1, 3)
        ]
        assert rows[0] == rows[1]

    def test_tv_moderate_at_small_n(self, tmp_path):
        config = ExperimentConfig(
            model="cm", sizes=(2000,), replicas=1,
            out_law="poisson:3", in_law="poisson:3", seed=7,
        )
        rows = run_endpoint_laws(config)
        assert all(r.tv_distance < 0.1 for r in rows)
        write_rows_csv(rows, tmp_path / "tv.csv")
        assert read_rows_csv(tmp_path / "tv.csv", EndpointLawRow) == rows
