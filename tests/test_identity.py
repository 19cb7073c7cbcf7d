"""The differ of tools/identity.py on synthetic output directories (no invocation runs)."""

import importlib.util
import json
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location("identity", Path(__file__).resolve().parent.parent / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def _write_outputs(root: Path, h: float, residual: float) -> Path:
    root.mkdir()
    (root / "trajectory.csv").write_text("t,K1,H\n0,0.5,0.25\n%.17g,0.5,%.17g\n" % (1e-3, h))
    report = {"rank": 2, "suites": [{"suite": "gauge", "checks": [{"id": "gauge-zero", "max_residual": 0.0},
                                                                   {"id": "gauge-match", "max_residual": residual}]}]}
    (root / "report.json").write_text(json.dumps(report, indent=2))
    return root


def test_differ_names_the_csv_cell_and_json_path_with_their_ulps(tmp_path):
    h, residual = 0.1 + 0.2, 3e-16
    a = _write_outputs(tmp_path / "a", h, residual)
    assert identity.compare_dirs(a, _write_outputs(tmp_path / "same", h, residual)) == []
    b = _write_outputs(tmp_path / "b", float(np.nextafter(h, 1.0)), 2 * residual)
    assert identity.compare_dirs(a, b) == [
        "report.json: suites[0].checks[1].max_residual: 3e-16 vs 6e-16 (4503599627370496 ulp)",
        "trajectory.csv: row 2 (H): '0.30000000000000004' vs '0.3000000000000001' (1 ulp)",
    ]
    (b / "summary.json").write_text("{}")
    assert identity.compare_dirs(a, b)[1] == "summary.json: only on the working tree"


def test_ulps_counts_across_zero_and_skips_what_is_not_a_finite_number():
    tiny = float(np.nextafter(0.0, 1.0))
    assert identity.ulps(-tiny, tiny) == 2 and identity.ulps(-0.0, 0.0) == 0
    assert identity.ulps("nan", 1.0) is None and identity.ulps("x", 1.0) is None and identity.ulps(True, 1.0) is None
    assert identity.compare_records([0, "a\n", ""], [1, "a\n", ""]) == ["exit code: 0 vs 1"]
