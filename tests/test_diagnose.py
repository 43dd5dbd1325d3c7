"""Saturation-point bottleneck diagnosis: search, perturb, rank, render."""

import json

import pytest

from repro.cli import main
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.cpu.params import CpuParams, cpu_params_from_overrides
from repro.diagnose.driver import run_diagnosis
from repro.diagnose.perturb import PERTURB_SPECS, resolve_knobs
from repro.diagnose.report import render_diagnosis
from repro.diagnose.saturation import SaturationSearch, find_saturation
from repro.net.params import NetParams

#: A cheap cell every expensive test here shares (1+3ms windows).
SMALL = dict(
    message_size=8192, n_connections=2, warmup_ms=1, measure_ms=3, seed=7,
)


class TestConfigPlumbing:
    def test_defaults_stay_out_of_cache_keys(self):
        # Golden SHAs depend on to_dict(): the new fields must vanish
        # at their defaults so pre-diagnosis cache keys are unchanged.
        d = ExperimentConfig(direction="rx").to_dict()
        assert "net_overrides" not in d
        assert "cpu_overrides" not in d
        assert "offered_gbps" not in d

    def test_round_trips_through_to_dict(self):
        config = ExperimentConfig(
            direction="rx",
            offered_gbps=1.5,
            net_overrides={"copy_cost_scale": 1.25},
            cpu_overrides={"l2_size": 131072},
            **SMALL
        )
        again = ExperimentConfig(**config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_offered_gbps_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(direction="rx", offered_gbps=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(direction="rx", offered_gbps=-1.0)

    def test_offered_gbps_requires_ttcp(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                direction="rx", workload="webserve", offered_gbps=1.0
            )

    def test_label_carries_perturbation_and_load(self):
        config = ExperimentConfig(
            direction="rx",
            offered_gbps=1.5,
            net_overrides={"copy_cost_scale": 1.25},
            **SMALL
        )
        assert config.label().endswith("+pert+load1.5")


class TestOverrides:
    def test_cpu_overrides_resize_geometry(self):
        base = CpuParams()
        params = cpu_params_from_overrides(
            {"l2_size": base.l2.size // 2, "dtlb_entries": 32}
        )
        assert params.l2.size == base.l2.size // 2
        assert params.l2.ways == base.l2.ways
        assert params.dtlb.entries == 32
        assert params.l1.size == base.l1.size

    def test_cpu_overrides_reject_unknown_keys(self):
        with pytest.raises(ValueError):
            cpu_params_from_overrides({"l9_size": 1024})

    def test_net_cost_scales_reject_discounts(self):
        with pytest.raises(ValueError):
            NetParams(copy_cost_scale=0.5)
        with pytest.raises(ValueError):
            NetParams(lock_hold_scale=0.99)


class TestPacing:
    def test_rx_pacing_tracks_offered_load(self):
        closed = run_experiment(ExperimentConfig(direction="rx", **SMALL))
        offered = round(closed.throughput_gbps * 0.5, 4)
        paced = run_experiment(
            ExperimentConfig(direction="rx", offered_gbps=offered, **SMALL)
        )
        # Peer-side pacing is cycle-accurate: delivered == offered
        # within a few percent even on a 3ms window.
        assert paced.throughput_gbps == pytest.approx(offered, rel=0.05)

    def test_tx_pacing_bounds_offered_load(self):
        closed = run_experiment(ExperimentConfig(direction="tx", **SMALL))
        offered = round(closed.throughput_gbps * 0.5, 4)
        paced = run_experiment(
            ExperimentConfig(direction="tx", offered_gbps=offered, **SMALL)
        )
        # Task-side pacing is tick-quantized (1ms kernel timers) with
        # work-conserving catch-up, so short windows can overshoot --
        # but it must clearly throttle below the closed-loop rate.
        assert paced.throughput_gbps < closed.throughput_gbps
        assert 0.7 * offered < paced.throughput_gbps < 1.6 * offered


class TestSaturationSearch:
    def test_rejects_paced_base_config(self):
        with pytest.raises(ValueError):
            SaturationSearch(
                ExperimentConfig(direction="rx", offered_gbps=1.0, **SMALL)
            )

    def test_failed_ceiling_probe_fails_the_search(self):
        search = SaturationSearch(
            ExperimentConfig(direction="rx", **SMALL), steps=3
        )
        search.observe(None)  # quarantined ceiling cell
        assert search.done and search.failed
        summary = search.summary()
        assert summary["failed"] is True
        assert summary["closed_loop_gbps"] is None
        assert summary["probes"] == []

    def test_find_saturation_is_deterministic_and_sane(self):
        config = ExperimentConfig(direction="rx", **SMALL)
        first = find_saturation(config, steps=3)
        second = find_saturation(config, steps=3)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["failed"] is False
        assert first["closed_loop_gbps"] > 0
        assert len(first["probes"]) == 3
        offered = first["saturation_offered_gbps"]
        if offered is not None:
            assert offered <= first["closed_loop_gbps"] * 1.25
            assert first["saturation_gbps"] > 0


class TestPerturbRegistry:
    def test_every_knob_applies_a_cost_increase(self):
        for spec in PERTURB_SPECS.values():
            patch, effective = spec.apply(1.25)
            assert effective > 1.0
            assert patch, spec.name
            for field, overrides in patch.items():
                assert field in (
                    "net_overrides", "cpu_overrides", "cost_overrides",
                )
                assert overrides
            # Every patch must build a valid config.
            ExperimentConfig(direction="rx", **dict(SMALL, **patch))

    def test_discount_factors_are_rejected(self):
        for spec in PERTURB_SPECS.values():
            with pytest.raises(ValueError):
                spec.apply(1.0)

    def test_l2_knob_is_quantized_to_a_halving(self):
        patch, effective = PERTURB_SPECS["l2-size"].apply(1.25)
        assert effective == 2.0
        assert patch["cpu_overrides"]["l2_size"] == CpuParams().l2.size // 2

    def test_resolve_knobs(self):
        assert [s.name for s in resolve_knobs()] == list(PERTURB_SPECS)
        assert [s.name for s in resolve_knobs(["tlb-miss"])] == ["tlb-miss"]
        with pytest.raises(ValueError):
            resolve_knobs(["bogus"])


class TestRunDiagnosis:
    @pytest.fixture(scope="class")
    def report(self):
        return run_diagnosis(
            directions=("rx",), modes=("none",),
            knobs=("copy-engine", "nic-coalesce"),
            steps=1, **SMALL
        )

    def test_report_structure(self, report):
        assert report["schema"] == 1
        assert report["params"]["knobs"] == ["copy-engine", "nic-coalesce"]
        base = report["baselines"]["rx/none"]
        assert base["failed"] is False
        assert base["closed_loop_gbps"] > 0
        assert set(base["bins_pct"])  # Table 1 bins present
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            assert cell["baseline_gbps"] == base["closed_loop_gbps"]
            assert cell["perturbed_gbps"] is not None
            assert cell["delta_pct"] is not None
        assert sorted(report["ranking"]["rx/none"]) == [
            "copy-engine", "nic-coalesce",
        ]

    def test_render_mentions_every_knob(self, report):
        text = render_diagnosis(report)
        assert "Diagnosis: RX 8192B, affinity=none" in text
        assert "copy-engine" in text and "nic-coalesce" in text
        assert "cross-check vs Table 1" in text

    def test_copies_dominate_64kb_rx_none(self):
        # The acceptance corner, shrunk: the paper's Table 1 says copies
        # dominate 64KB RX without affinity, and the machine-generated
        # ranking must agree -- copy-engine above both latency- and
        # interrupt-cost knobs.
        report = run_diagnosis(
            directions=("rx",), modes=("none",),
            knobs=("copy-engine", "irq-overhead", "nic-coalesce"),
            message_size=65536, n_connections=4,
            warmup_ms=2, measure_ms=5, seed=3, steps=0,
        )
        assert report["ranking"]["rx/none"][0] == "copy-engine"
        text = render_diagnosis(report)
        assert "CONSISTENT" in text and "DIVERGENT" not in text


class TestNoneCellPropagation:
    def _report(self, perturbed):
        return {
            "schema": 1,
            "params": {
                "directions": ["rx"], "modes": ["none", "full"],
                "message_size": 65536,
            },
            "knob_info": {
                "lock-hold": {
                    "description": "", "bin": "locks",
                    "affinity_sensitive": True,
                },
            },
            "baselines": {
                "rx/none": {
                    "failed": False, "closed_loop_gbps": 2.0,
                    "saturation_offered_gbps": 1.8,
                    "saturation_gbps": 1.75, "probes": [],
                    "bins_pct": {"copies": 0.4, "locks": 0.1},
                },
                "rx/full": {"failed": True, "closed_loop_gbps": None,
                            "probes": []},
            },
            "cells": [{
                "knob": "lock-hold", "direction": "rx", "mode": "none",
                "factor": 1.25, "effective_factor": 1.25, "patch": {},
                "baseline_gbps": 2.0, "perturbed_gbps": perturbed,
                "delta_pct": None if perturbed is None else -5.0,
                "sensitivity": None if perturbed is None else 0.2,
            }],
        }

    def test_failed_cells_render_as_fail_without_raising(self):
        text = render_diagnosis(self._report(perturbed=None))
        assert "FAIL" in text
        assert "lock-hold" in text
        # The failed baseline renders its own FAIL line, not a crash.
        assert "baseline FAIL" in text

    def test_incomplete_affinity_pairs_are_marked(self):
        text = render_diagnosis(self._report(perturbed=1.9))
        assert "incomplete" in text


class TestCli:
    def test_diagnose_smoke(self, capsys, tmp_path):
        out_json = tmp_path / "diag.json"
        rc = main([
            "diagnose", "--direction", "rx", "--modes", "none",
            "--knobs", "copy-engine", "--size", "8192",
            "--connections", "2", "--warmup-ms", "1", "--measure-ms", "3",
            "--steps", "1", "--seed", "7", "--jobs", "1",
            "--json", str(out_json),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Diagnosis: RX 8192B, affinity=none" in out
        report = json.loads(out_json.read_text())
        assert report["ranking"]["rx/none"] == ["copy-engine"]

    def test_diagnose_rejects_unknown_mode(self, capsys):
        rc = main(["diagnose", "--modes", "bogus"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_diagnose_rejects_unknown_knob(self, capsys):
        rc = main(["diagnose", "--knobs", "bogus"])
        assert rc == 2
        assert "unknown knob" in capsys.readouterr().err

    def test_diagnose_rejects_discount_factor(self, capsys):
        rc = main(["diagnose", "--factor", "0.8"])
        assert rc == 2
        assert "factor" in capsys.readouterr().err
