import time
from pathlib import Path

import numpy as np
import pytest

from promptseg import nifti_io
from promptseg.oracles import (FileOracle, PhantomGeneralist, PhantomSpecialist,
                               TrainingExample)
from promptseg.pipeline import PipelineConfig
from promptseg.prompting import format_prompts, make_box_prompts
from promptseg.vls_loss import SupervisionTarget
from promptseg.volgrid import LabelMap

from responder import Responder, ResponderProcess, load_registry
from workloads import write_file_inputs

SEED = 3
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def inputs(tmp_path):
    config = PipelineConfig(dims=(16, 16, 16), organs=2, scans=2, test_scans=1, seed=SEED)
    data, oracle = tmp_path / "data", tmp_path / "oracle"
    write_file_inputs(config, data, oracle)
    scans = []
    for man in sorted(data.glob("*.manifest")):
        volume = nifti_io.read_volume(data / f"{man.stem}.nii")
        gt = LabelMap(nifti_io.read_volume(oracle / f"{man.stem}.gt.nii").data, 3)
        labels = LabelMap(nifti_io.read_volume(data / f"{man.stem}.labels.nii").data, 3)
        scans.append((volume, gt, labels, nifti_io.read_manifest(man)))
    assert len(list(data.glob("*.gt.nii"))) == 1
    return data, oracle, scans


def _exchange(tmp_path, name):
    spec, gen = tmp_path / name / "spec", tmp_path / name / "gen"
    spec.mkdir(parents=True)
    gen.mkdir()
    return spec, gen


def _await(path, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"no {path.name}"
        time.sleep(0.01)


def test_responder_process_answers_predict_fit_and_late_segment(tmp_path, inputs):
    data, oracle, scans = inputs
    volume, gt, _, _ = scans[0]
    registry, _ = load_registry(data, oracle)
    reference = PhantomSpecialist(registry, contradiction_weight=0.5, seed=SEED)
    generalist = PhantomGeneralist(registry, cooperativeness=0.9, assumed_padding=6,
                                   seed=SEED)
    examples = [TrainingExample(volume=v, target=SupervisionTarget(lab),
                                labeled_classes=m.classes_with_status("labeled"),
                                weight_mask=np.ones(v.dims, dtype=bool))
                for v, _, lab, m in scans]

    spec, gen = _exchange(tmp_path, "run1")
    proc = ResponderProcess(SRC, data, oracle, SEED, contradiction_weight=0.5,
                            cooperativeness=0.9, padding=6)
    try:
        assert proc.ready["ready"]
        proc.serve(spec, gen)
        client = FileOracle(spec, timeout=20.0)
        client.fit(examples, supervision="partial")
        reference.fit(examples, supervision="partial")
        probs = client.predict(volume)
        assert np.array_equal(probs.data, reference.predict(volume).data)

        prompts = make_box_prompts(gt, 1)
        nifti_io.write_volume(gen / "req_late.nii", volume)
        time.sleep(0.3)
        assert not (gen / "resp_late.nii").exists()
        assert not (gen / "resp_late.prob.nii").exists()
        (gen / "req_late.prompts").write_text(format_prompts(prompts))
        _await(gen / "resp_late.nii")
        mask, gprobs = generalist.segment(volume, prompts)
        assert np.array_equal(nifti_io.read_volume(gen / "resp_late.nii").data > 0, mask)
        assert np.array_equal(nifti_io.read_volume(gen / "resp_late.prob.nii").data,
                              gprobs.data)
        assert not list(spec.glob("*.tmp")) and not list(gen.glob("*.tmp"))

        stats = proc.end()
        assert (stats["predict"], stats["fit"], stats["segment"]) == (1, 1, 1)
        assert "errors" not in stats and stats["busy_ms"] > 0.0
    finally:
        proc.close()
    assert proc.proc.returncode == 0


def test_each_run_gets_a_fresh_specialist_and_keeps_the_caches(tmp_path, inputs):
    data, oracle, scans = inputs
    registry, registered = load_registry(data, oracle)
    responder = Responder(registry, registered, SEED, 0.5, 0.9, 6)
    responder.warm()
    fp = registered[0][0]
    cached = registry.signed_distance(fp, 1)
    volume, _, labels, man = scans[0]
    labeled = man.classes_with_status("labeled")
    example = TrainingExample(volume=volume, target=SupervisionTarget(labels),
                              labeled_classes=labeled)

    responder.begin_run(*_exchange(tmp_path, "run1"))
    first = responder.specialist
    first.fit([example], supervision="partial")
    assert responder.end_run() == {"busy_ms": 0.0}
    responder.begin_run(*_exchange(tmp_path, "run2"))
    assert responder.specialist is not first
    for c in labeled:
        assert first.quality(c) > 0.0
        assert responder.specialist.quality(c) == 0.0
    assert registry.signed_distance(fp, 1) is cached
