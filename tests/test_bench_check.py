"""The bench-regression gate: ``repro.tools.bench_check``.

CI regenerates every ``BENCH_*.json`` and compares it against the
committed snapshot; these tests pin the comparison semantics — ratio
fields get a one-sided 15% band (regressions fail, improvements never
do), exact fields (equivalence booleans, barrier/step/retry counts)
must match bit-for-bit, and a committed snapshot whose fresh
counterpart vanished is itself a failure.
"""

from __future__ import annotations

import io
import json

from repro.tools.bench_check import (
    SPECS,
    BenchSpec,
    check_dirs,
    check_payloads,
    lookup,
    main,
)

SPEC = BenchSpec(
    file="BENCH_demo.json",
    ratio_fields=("speedup",),
    exact_fields=("observables_identical", "configs.on.set_ops"),
)

BASE = {
    "speedup": 2.0,
    "observables_identical": True,
    "configs": {"on": {"set_ops": 123}},
}


def _fresh(**overrides):
    fresh = json.loads(json.dumps(BASE))
    for path, value in overrides.items():
        node = fresh
        parts = path.split("__")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
    return fresh


class TestFieldSemantics:
    def test_identical_payloads_pass(self):
        assert check_payloads(BASE, _fresh(), SPEC).ok

    def test_ratio_within_band_passes(self):
        assert check_payloads(BASE, _fresh(speedup=1.72), SPEC).ok

    def test_ratio_regression_fails(self):
        result = check_payloads(BASE, _fresh(speedup=1.6), SPEC)
        assert not result.ok
        assert "speedup" in result.failures[0]

    def test_ratio_improvement_never_fails(self):
        assert check_payloads(BASE, _fresh(speedup=97.0), SPEC).ok

    def test_exact_boolean_drift_fails(self):
        result = check_payloads(
            BASE, _fresh(observables_identical=False), SPEC
        )
        assert not result.ok

    def test_exact_counter_drift_fails_both_directions(self):
        for value in (122, 124):
            result = check_payloads(
                BASE, _fresh(configs__on__set_ops=value), SPEC
            )
            assert not result.ok, value

    def test_field_missing_from_fresh_fails(self):
        fresh = _fresh()
        del fresh["speedup"]
        result = check_payloads(BASE, fresh, SPEC)
        assert not result.ok

    def test_field_missing_from_committed_is_skipped(self):
        """A committed snapshot that predates a field must not block the
        upgrade that introduces it."""
        committed = json.loads(json.dumps(BASE))
        del committed["speedup"]
        assert check_payloads(committed, _fresh(), SPEC).ok

    def test_lookup_resolves_dotted_paths(self):
        assert lookup(BASE, "configs.on.set_ops") == 123


class TestDirectorySweep:
    def _write(self, directory, payload):
        directory.mkdir(exist_ok=True)
        (directory / SPEC.file).write_text(json.dumps(payload))

    def test_missing_committed_snapshot_is_skipped(self, tmp_path):
        committed, fresh = tmp_path / "a", tmp_path / "b"
        committed.mkdir()
        self._write(fresh, _fresh())
        results = check_dirs(committed, fresh, [SPEC])
        assert all(r.ok for r in results)

    def test_missing_fresh_snapshot_fails(self, tmp_path):
        committed, fresh = tmp_path / "a", tmp_path / "b"
        self._write(committed, BASE)
        fresh.mkdir()
        results = check_dirs(committed, fresh, [SPEC])
        assert not results[0].ok

    def test_cli_exit_codes_and_report(self, tmp_path):
        """The CLI checks the real registry, so exercise it with the real
        tier-ablation snapshot name."""
        payload = {
            "geomean_fig8_tier2_vs_table": 2.0,
            "observables_identical": True,
        }
        committed, fresh = tmp_path / "a", tmp_path / "b"
        committed.mkdir()
        fresh.mkdir()
        (committed / "BENCH_jit_tier.json").write_text(json.dumps(payload))
        (fresh / "BENCH_jit_tier.json").write_text(json.dumps(payload))
        out = io.StringIO()
        assert main([str(committed), str(fresh)], out=out) == 0
        assert "ok" in out.getvalue()

        regressed = dict(payload, geomean_fig8_tier2_vs_table=1.1)
        (fresh / "BENCH_jit_tier.json").write_text(json.dumps(regressed))
        out = io.StringIO()
        assert main([str(committed), str(fresh)], out=out) == 1
        assert "FAIL" in out.getvalue()


class TestRegistry:
    def test_registry_covers_every_committed_snapshot(self):
        """Every BENCH_*.json at the repo root must have a spec — a new
        benchmark snapshot without a gate silently escapes CI."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        committed = {p.name for p in root.glob("BENCH_*.json")}
        specced = {spec.file for spec in SPECS}
        assert committed <= specced, committed - specced

    def test_registry_gates_the_tier_ablation(self):
        spec = {s.file: s for s in SPECS}["BENCH_jit_tier.json"]
        assert spec.ratio_fields == ("geomean_fig8_tier2_vs_table",)
        assert "observables_identical" in spec.exact_fields

    def test_registry_gates_the_cluster_snapshot(self):
        spec = {s.file: s for s in SPECS}["BENCH_cluster_throughput.json"]
        assert "scaling_ratio_4x" in spec.ratio_fields
        assert "parity.audit_parity" in spec.exact_fields
        assert "parity.traffic_parity" in spec.exact_fields
        assert "flume.flume_deferred" in spec.exact_fields
        # Multiprocess wall-clock ratios are noisier than in-process ones.
        assert spec.tolerance > 0.15
