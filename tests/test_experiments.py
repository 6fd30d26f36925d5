"""Integration tests: the experiments reproduce the paper's shapes.

These run the quick configurations; the benchmarks run the full ones.
"""

import warnings

import pytest

from repro.experiments.adaptive import WorkloadCase
from repro.experiments.figure4 import (
    Figure4Config,
    check_figure4a,
    check_figure4b,
    check_figure4c,
    check_figure4d,
    run_figure4_routine,
    run_figure4d,
)
from repro.experiments.figure5 import (
    Figure5Config,
    check_figure5,
    matrix_job,
    run_figure5,
)
from repro.experiments.report import (
    ExperimentSeries,
    ShapeCheck,
    all_passed,
    checks_table,
    render_checks,
)
from repro.runtime.adaptive import AdaptiveConfig
from repro.sim.engine.backends import reset_backend, set_backend
from repro.sim.engine.spec import CACHE_FORMAT_VERSION


@pytest.fixture(scope="module")
def fig4_config():
    return Figure4Config().quick()


class TestFigure4:
    def test_dequant_shape(self, fig4_config):
        series = run_figure4_routine("dequant", fig4_config)
        assert all_passed(check_figure4a(series)), render_checks(
            check_figure4a(series)
        )

    def test_plus_shape(self, fig4_config):
        series = run_figure4_routine("plus", fig4_config)
        assert all_passed(check_figure4b(series)), render_checks(
            check_figure4b(series)
        )

    def test_idct_shape(self, fig4_config):
        series = run_figure4_routine("idct", fig4_config)
        assert all_passed(check_figure4c(series)), render_checks(
            check_figure4c(series)
        )

    def test_combined_shape(self, fig4_config):
        result = run_figure4d(fig4_config)
        assert all_passed(check_figure4d(result)), render_checks(
            check_figure4d(result)
        )

    def test_combined_improvement_positive(self, fig4_config):
        result = run_figure4d(fig4_config)
        assert result.improvement > 0

    def test_unknown_routine(self):
        with pytest.raises(ValueError):
            run_figure4_routine("dct")

    def test_series_renders(self, fig4_config):
        series = run_figure4_routine("plus", fig4_config)
        text = series.to_table()
        assert "cache_columns" in text and "cycles" in text

    def test_layout_rerun_per_partition(self, fig4_config):
        """The sweep re-runs the layout algorithm per partition: the
        scratchpad byte count varies across partitions."""
        series = run_figure4_routine("dequant", fig4_config)
        pinned = series.series["scratchpad_bytes"]
        assert pinned[0] > 0  # all-scratchpad pins data
        assert pinned[-1] == 0  # all-cache pins nothing


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        config = Figure5Config().quick()
        return config, run_figure5(config)

    def test_all_shape_checks(self, result):
        config, series = result
        checks = check_figure5(series, config)
        assert all_passed(checks), render_checks(checks)

    def test_four_curves_present(self, result):
        _, series = result
        assert set(series.series) == {
            "gzip.16k", "gzip.16k mapped",
            "gzip.128k", "gzip.128k mapped",
        }

    def test_cpis_at_least_one(self, result):
        _, series = result
        for curve in series.series.values():
            assert all(cpi >= 1.0 for cpi in curve)

    def test_table_renders(self, result):
        _, series = result
        assert "quantum" in series.to_table()


class TestFigure5MatrixJob:
    """The Figure 5 matrix job keeps its cache identity.

    ``Figure5Config.horizon_instructions`` was once spelled
    ``budget_instructions``; the job parameter keeps that spelling, so
    results cached on disk before the rename are still served.
    """

    #: ``matrix_job(Figure5Config().quick()).content_hash()`` on the
    #: numpy kernel.  A change here invalidates every cached Figure 5
    #: result; bump ``CACHE_FORMAT_VERSION`` deliberately, not by
    #: accident.
    QUICK_HASH = (
        "ee2482c127b5a262de19baff31f7ce74d3fd21660a6f96c55bb5809d0ca32797"
    )

    def test_job_keeps_budget_key(self):
        config = Figure5Config().quick()
        params = matrix_job(config).params
        assert params["budget_instructions"] == config.horizon_instructions
        assert "horizon_instructions" not in params

    def test_content_hash_is_stable(self):
        assert CACHE_FORMAT_VERSION == 2
        set_backend("numpy")
        try:
            digest = matrix_job(Figure5Config().quick()).content_hash()
        finally:
            reset_backend()
        assert digest == self.QUICK_HASH


#: Config fields renamed by the naming pass: (class, the fields it
#: needs besides the renamed one, retired spelling, canonical name).
RENAMED_FIELDS = [
    pytest.param(
        AdaptiveConfig, {}, "window_size", "window_accesses",
        id="AdaptiveConfig.window_size",
    ),
    pytest.param(
        WorkloadCase, {"workload": "gzip"}, "window_size",
        "window_accesses", id="WorkloadCase.window_size",
    ),
    pytest.param(
        Figure5Config, {}, "budget_instructions", "horizon_instructions",
        id="Figure5Config.budget_instructions",
    ),
]


class TestConfigVocabulary:
    @pytest.mark.parametrize(
        "cls,required,retired,canonical", RENAMED_FIELDS
    )
    def test_canonical_name_does_not_warn(
        self, cls, required, retired, canonical
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            instance = cls(**required, **{canonical: 4096})
        assert getattr(instance, canonical) == 4096

    @pytest.mark.parametrize(
        "cls,required,retired,canonical", RENAMED_FIELDS
    )
    def test_retired_spelling_is_rejected(
        self, cls, required, retired, canonical
    ):
        """No silent alias: the old keyword fails loudly and the old
        attribute is gone."""
        with pytest.raises(TypeError, match=retired):
            cls(**required, **{retired: 4096})
        instance = cls(**required, **{canonical: 4096})
        assert not hasattr(instance, retired)


class TestReportHelpers:
    def test_series_add_validates_length(self):
        series = ExperimentSeries("x", "q", [1, 2])
        with pytest.raises(ValueError):
            series.add("bad", [1])

    def test_shape_check_str(self):
        check = ShapeCheck("claim", True, "detail")
        assert "PASS" in str(check) and "detail" in str(check)
        assert "FAIL" in str(ShapeCheck("c", False))

    def test_checks_table(self):
        text = checks_table([ShapeCheck("a", True), ShapeCheck("b", False)])
        assert "PASS" in text and "FAIL" in text

    def test_all_passed(self):
        assert all_passed([ShapeCheck("a", True)])
        assert not all_passed([ShapeCheck("a", True), ShapeCheck("b", False)])
