"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.config import presets, save_system_config
from repro.config.loader import system_config_to_dict

from tests.conftest import make_tiny_config


class TestStartup:
    def test_importing_the_cli_leaves_the_chip_model_unloaded(self):
        """``--help`` and ``lint`` must not pay for the model build
        imports; a fresh interpreter shows what ``import repro.cli``
        loads."""
        code = (
            "import sys\n"
            "import repro.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('repro.chip', 'repro.config'))))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"


class TestReport:
    def test_preset_report(self, capsys):
        assert main(["report", "niagara1", "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "TDP" in out
        assert "mm^2" in out
        assert "Niagara" in out

    def test_json_config_report(self, tmp_path, capsys):
        path = tmp_path / "chip.json"
        save_system_config(
            presets.manycore_cluster(n_cores=4, cores_per_cluster=2), path)
        assert main(["report", str(path), "--depth", "1"]) == 0
        assert "TDP" in capsys.readouterr().out

    def test_unknown_config_fails(self):
        with pytest.raises(SystemExit, match="unknown config"):
            main(["report", "not-a-chip"])

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json at all")
        with pytest.raises(SystemExit, match="not valid JSON") as excinfo:
            main(["report", str(path)])
        assert str(path) in str(excinfo.value)

    def test_malformed_config_reports_path(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"this": "is not a SystemConfig"}))
        with pytest.raises(SystemExit, match="malformed") as excinfo:
            main(["report", str(path)])
        assert str(path) in str(excinfo.value)

    def test_timing_breakdown(self, capsys):
        assert main(["report", "niagara1", "--depth", "1",
                     "--timing-breakdown"]) == 0
        out = capsys.readouterr().out
        assert "Model-build wall time" in out
        assert "core.ifu" in out
        assert "report assembly" in out

    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])


class TestExperimentCommands:
    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "lstp" in out
        assert "leak %" in out

    def test_clustering_small(self, capsys):
        assert main(["clustering", "--cores", "8"]) == 0
        out = capsys.readouterr().out
        assert "EDP" in out


class TestSweep:
    @pytest.fixture()
    def tiny_json(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(system_config_to_dict(make_tiny_config())))
        return str(path)

    def test_sweep_over_config_file(self, tiny_json, capsys):
        assert main(["sweep", tiny_json, "--axis", "cores=1,2"]) == 0
        out = capsys.readouterr().out
        assert "2-point sweep of tiny" in out
        assert "cores" in out
        assert "TDP W" in out

    def test_bad_axis_spec_fails(self, tiny_json):
        with pytest.raises(SystemExit, match="bad --axis"):
            main(["sweep", tiny_json, "--axis", "cores"])

    def test_unknown_axis_fails(self, tiny_json):
        with pytest.raises(SystemExit, match="unknown sweep axis"):
            main(["sweep", tiny_json, "--axis", "warp_factor=1,2"])

    def test_unknown_workload_fails(self, tiny_json):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["sweep", tiny_json, "--axis", "cores=1",
                  "--workload", "doom"])


class TestSurrogate:
    @pytest.fixture()
    def tiny_json(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(system_config_to_dict(make_tiny_config())))
        return str(path)

    @pytest.fixture()
    def tiny_artifact(self, tiny_json, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert main(["surrogate", "train", "--preset", tiny_json,
                     "--output", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_train_writes_loadable_artifact(self, tiny_artifact, capsys):
        from repro.surrogate import SurrogateModel

        model = SurrogateModel.load(tiny_artifact)
        assert len(model.segments) == 1
        assert model.segments[0].name == "tiny"

    def test_check_passes_on_fresh_artifact(self, tiny_json,
                                            tiny_artifact, capsys):
        assert main(["surrogate", "check", "--model", tiny_artifact,
                     "--preset", tiny_json]) == 0
        assert "tiny: ok" in capsys.readouterr().out

    def test_check_json_format(self, tiny_json, tiny_artifact, capsys):
        assert main(["surrogate", "check", "--model", tiny_artifact,
                     "--preset", tiny_json, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["base"] == "tiny"
        assert payload[0]["ok"] is True

    def test_check_fails_out_of_domain(self, tiny_json, tiny_artifact,
                                       capsys):
        # The tiny-config artifact cannot answer a full preset: every
        # point is out of domain and the audit must say so loudly.
        assert main(["surrogate", "check", "--model", tiny_artifact,
                     "--preset", "niagara1"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_rejects_missing_model_file(self, tiny_json):
        with pytest.raises(SystemExit, match="cannot load"):
            main(["surrogate", "check", "--model", "/nope/model.json",
                  "--preset", tiny_json])
