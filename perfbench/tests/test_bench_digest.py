from dataclasses import replace

from promptseg.pipeline import PipelineConfig, run_pipeline

from digest import output_digest


def _run(tmp_path, name):
    config = PipelineConfig(dims=(16, 16, 16), organs=2, scans=3, test_scans=1,
                            rounds=1, entropy_gate_from_round=1, seed=5)
    return run_pipeline(replace(config, out_dir=str(tmp_path / name))).out_dir


def test_digest_ignores_echoed_paths_but_not_outputs(tmp_path):
    a, b = _run(tmp_path, "a"), _run(tmp_path, "b")
    assert (a / "run_manifest.txt").read_text() != (b / "run_manifest.txt").read_text()
    assert output_digest(a) == output_digest(b)

    manifest = b / "run_manifest.txt"
    manifest.write_text(manifest.read_text().replace(
        f"out_dir={b}", "out_dir=elsewhere") + "data_dir=/x\ngeneralist_exchange=/y\n")
    assert output_digest(a) == output_digest(b)

    manifest.write_text(manifest.read_text().replace("rounds=1", "rounds=2"))
    assert output_digest(a) != output_digest(b)


def test_digest_covers_reports_and_targets(tmp_path):
    out = _run(tmp_path, "a")
    before = output_digest(out)
    target = next((out / "targets").glob("*.labels.nii"))
    data = bytearray(target.read_bytes())
    data[-1] ^= 1
    target.write_bytes(bytes(data))
    assert output_digest(out) != before
    (out / "round_1.csv").write_text("changed\n")
    assert output_digest(out) != before
