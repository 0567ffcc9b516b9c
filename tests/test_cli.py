import logging
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import promptseg
from promptseg import nifti_io
from promptseg.cli import main
from promptseg.oracles import FileOracle
from promptseg.prompting import format_prompts, make_box_prompts
from promptseg.refinement import OrganRefinementState, RefinementConfig, refine_pseudo_label
from promptseg.volgrid import LabelMap, ProbVolume, Volume, mask_to_labels

README = Path(__file__).resolve().parents[1] / "README.md"


def sphere_mask(dims, center, radius):
    yy, xx, zz = np.indices(dims)
    return ((yy - center[0]) ** 2 + (xx - center[1]) ** 2
            + (zz - center[2]) ** 2) <= radius ** 2


def test_phantom_gen_and_metrics_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["phantom-gen", "--out", str(data), "--scans", "2",
                 "--organs", "3", "--dims", "20,20,20", "--seed", "4"]) == 0
    files = sorted(p.name for p in data.iterdir())
    assert "scan000.nii" in files and "scan000.gt.nii" in files
    assert "scan000.manifest" in files
    csv_path = tmp_path / "m.csv"
    assert main(["metrics", "--pred", str(data / "scan000.gt.nii"),
                 "--gt", str(data / "scan000.gt.nii"),
                 "--manifest", str(data / "scan000.manifest"),
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "mean" in out and "1.0000" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "class,dsc,hd95"
    assert lines[1].startswith("1,1.000000,0.000000")


def test_metrics_dim_mismatch_exits_nonzero(tmp_path, capsys):
    a = tmp_path / "a.nii"
    b = tmp_path / "b.nii"
    nifti_io.write_volume(a, LabelMap(np.zeros((4, 4, 4), dtype=np.uint8), 2))
    nifti_io.write_volume(b, LabelMap(np.zeros((4, 4, 5), dtype=np.uint8), 2))
    assert main(["metrics", "--pred", str(a), "--gt", str(b)]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_partial_subcommand(tmp_path, capsys):
    gt_data = np.random.default_rng(0).integers(0, 16, size=(6, 6, 6)).astype(np.uint8)
    gt_path = tmp_path / "gt.nii"
    nifti_io.write_volume(gt_path, LabelMap(gt_data, 16))
    out_labels = tmp_path / "partial.nii"
    out_man = tmp_path / "partial.manifest"
    assert main(["simulate-partial", "--gt", str(gt_path), "--keep-fraction", "0.67",
                 "--seed", "1", "--scan-id", "s0", "--classes", "16",
                 "--out-labels", str(out_labels), "--out-manifest", str(out_man)]) == 0
    assert "kept 10/15 organs" in capsys.readouterr().out
    man = nifti_io.read_manifest(out_man)
    assert len(man.classes_with_status("labeled")) == 10
    assert len(man.classes_with_status("unlabeled")) == 5


def test_prompt_refine_and_vls_subcommands(tmp_path, capsys):
    dims = (40, 40, 40)
    organ = sphere_mask(dims, (20, 20, 20), 5)
    pred_path = tmp_path / "pred.nii"
    nifti_io.write_volume(pred_path, mask_to_labels(organ))
    prompts_path = tmp_path / "organ.prompts"
    assert main(["prompt", "--pred", str(pred_path), "--class-id", "1",
                 "--padding", "6", "--out", str(prompts_path)]) == 0
    lines = prompts_path.read_text().splitlines()
    assert lines[0].startswith("axial 20 ") and lines[1].startswith("sagittal 20 ")

    blob = sphere_mask(dims, (2, 37, 37), 2)  # far outside the prompt ROI
    candidate = organ | blob
    p_fg = np.where(candidate, np.float32(0.95), np.float32(0.05))
    probs = ProbVolume(np.stack([1.0 - p_fg, p_fg]))
    cand_path = tmp_path / "cand.nii"
    probs_path = tmp_path / "probs.nii"
    nifti_io.write_volume(cand_path, mask_to_labels(candidate))
    nifti_io.write_volume(probs_path, probs)
    refined_path = tmp_path / "refined.nii"
    assert main(["refine", "--candidate", str(cand_path), "--probs", str(probs_path),
                 "--prompts", str(prompts_path), "--out", str(refined_path),
                 "--tau-cls", "0.4", "--delta-roi", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("accept")
    refined = nifti_io.read_volume(refined_path)
    assert np.array_equal(refined.data > 0, organ)  # blob outside ROI removed

    # VLS: the blob rides along as a (wrong) pseudo-label; predictions disagree
    target_path = tmp_path / "target.nii"
    nifti_io.write_volume(target_path, mask_to_labels(candidate))
    man = nifti_io.ScanManifest(statuses={1: "pseudo"})
    man_path = tmp_path / "scan.manifest"
    nifti_io.write_manifest(man_path, man)
    bad_fg = np.where(organ, np.float32(0.95), np.float32(0.05))
    bad_probs_path = tmp_path / "bad_probs.nii"
    nifti_io.write_volume(bad_probs_path, ProbVolume(np.stack([1.0 - bad_fg, bad_fg])))
    mask_path = tmp_path / "vls.nii"
    assert main(["vls-mask", "--probs", str(bad_probs_path), "--target", str(target_path),
                 "--manifest", str(man_path), "--out", str(mask_path)]) == 0
    mask_img = nifti_io.read_volume(mask_path)
    kept = mask_img.data > 0
    assert not kept[blob & ~organ].any()   # disagreeing pseudo voxels dropped
    assert kept[organ].all()               # agreeing pseudo voxels kept
    assert kept[~candidate].all()          # non-pseudo voxels always kept


def test_label_outputs_keep_the_geometry_of_their_label_input(tmp_path, capsys):
    """simulate-partial, refine and vls-mask write their label image on the
    spacing and qform/sform of --gt, --candidate and --target, here (2, 1, 4)
    mm and a sform rotated about z, not at 1 mm with a diagonal sform."""
    dims = (16, 16, 16)
    organ = sphere_mask(dims, (8, 8, 8), 3)
    header = nifti_io.NiftiHeader(
        shape=(16, 16, 16), datatype=nifti_io.DT_FLOAT32, pixdim=(2.0, 1.0, 4.0),
        vox_offset=nifti_io.VOX_OFFSET, qform_code=1, sform_code=2,
        quatern=(0.0, 0.0, 0.38268343, -10.0, 12.5, 30.0),
        srow=(1.4142135, -0.70710677, 0.0, -10.0, 1.4142135, 0.70710677, 0.0, 12.5,
              0.0, 0.0, 4.0, 30.0), qfac=-1.0)
    image = Volume(np.zeros(dims, np.float32), (2.0, 1.0, 4.0), header=header)
    paths = {name: tmp_path / f"{name}.nii" for name in ("labels", "probs")}
    nifti_io.write_volume(paths["labels"], mask_to_labels(organ), template=image)
    p_fg = np.where(organ, np.float32(0.9), np.float32(0.1))
    nifti_io.write_volume(paths["probs"], ProbVolume(np.stack([1.0 - p_fg, p_fg])))  # at 1 mm
    (tmp_path / "organ.prompts").write_text(
        format_prompts(make_box_prompts(mask_to_labels(organ), 1, 2)))
    nifti_io.write_manifest(tmp_path / "scan.manifest",
                            nifti_io.ScanManifest(statuses={1: "pseudo"}))
    runs = {"partial.nii": ["simulate-partial", "--gt", str(paths["labels"]),
                            "--keep-fraction", "1", "--out-labels", str(tmp_path / "partial.nii"),
                            "--out-manifest", str(tmp_path / "partial.manifest")],
            "refined.nii": ["refine", "--candidate", str(paths["labels"]),
                            "--probs", str(paths["probs"]),
                            "--prompts", str(tmp_path / "organ.prompts"),
                            "--out", str(tmp_path / "refined.nii")],
            "vls.nii": ["vls-mask", "--probs", str(paths["probs"]),
                        "--target", str(paths["labels"]),
                        "--manifest", str(tmp_path / "scan.manifest"),
                        "--out", str(tmp_path / "vls.nii")]}
    source = nifti_io.read_nifti(paths["labels"])[0]
    assert (source.pixdim, source.sform_code, source.srow) == (
        (2.0, 1.0, 4.0), 2, tuple(float(np.float32(v)) for v in header.srow))
    for out, argv in runs.items():
        assert main(argv) == 0, out
        hdr, labels = nifti_io.read_nifti(tmp_path / out)
        assert isinstance(labels, LabelMap) and labels.dims == dims, out
        for key in ("pixdim", "qform_code", "sform_code", "quatern", "srow", "qfac"):
            assert getattr(hdr, key) == getattr(source, key), (out, key)
    capsys.readouterr()


def test_vls_mask_takes_probabilities_with_fewer_channels_than_the_manifest_classes(
        tmp_path, capsys):
    """A 3-channel probability image against a 4-class manifest: the argmax
    is relabeled to 4 classes, and the mask keeps a pseudo voxel (class 2)
    only where the argmax agrees.  A --target that is not a label image is
    refused by an error naming the file."""
    rng = np.random.default_rng(4)
    dims = (6, 5, 4)
    labels = rng.integers(0, 3, dims).astype(np.uint8)
    raw = rng.dirichlet(np.ones(3), size=dims).astype(np.float32)
    probs = ProbVolume(np.ascontiguousarray(np.moveaxis(raw, -1, 0)))
    paths = {name: tmp_path / f"{name}.nii" for name in ("probs", "target", "out")}
    nifti_io.write_volume(paths["probs"], probs)
    nifti_io.write_volume(paths["target"], LabelMap(labels, 3))
    nifti_io.write_manifest(tmp_path / "scan.manifest", nifti_io.ScanManifest(
        statuses={1: "labeled", 2: "pseudo", 3: "unlabeled"}))
    argv = ["vls-mask", "--probs", str(paths["probs"]), "--target", str(paths["target"]),
            "--manifest", str(tmp_path / "scan.manifest"), "--out", str(paths["out"])]
    assert main(argv) == 0
    expected = (labels != 2) | (np.argmax(probs.data, axis=0) == 2)
    assert np.array_equal(nifti_io.read_volume(paths["out"]).data > 0, expected)
    assert capsys.readouterr().out == f"selected {int(expected.sum())}/{expected.size} voxels\n"
    argv[4] = str(paths["probs"])
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {paths['probs']}: must be a uint8 label image on dims {dims}, "
        f"not a float32 4D probability image on {dims}\n")


def test_refine_entropy_gate_compares_with_prev_entropy(tmp_path, capsys):
    dims = (24, 24, 24)
    organ = sphere_mask(dims, (12, 12, 12), 4)
    p_fg = np.where(organ, np.float32(0.8), np.float32(0.05))
    probs = ProbVolume(np.stack([1.0 - p_fg, p_fg]))
    prompts = make_box_prompts(LabelMap(organ.astype(np.uint8), 2), 1, 2)
    h = refine_pseudo_label(organ, probs, prompts, RefinementConfig(),
                            OrganRefinementState(class_id=1)).mean_entropy
    paths = {name: tmp_path / f"{name}.nii" for name in ("cand", "probs", "out")}
    nifti_io.write_volume(paths["cand"], mask_to_labels(organ))
    nifti_io.write_volume(paths["probs"], probs)
    (tmp_path / "organ.prompts").write_text(format_prompts(prompts))
    args = ["refine", "--candidate", str(paths["cand"]), "--probs", str(paths["probs"]),
            "--prompts", str(tmp_path / "organ.prompts"), "--out", str(paths["out"]),
            "--gate-active", "--prev-entropy"]
    for prev, decision in ((np.nextafter(h, 0.0), "reject reason=entropy-not-decreased"),
                           (h, "reject reason=entropy-not-decreased"),
                           (np.nextafter(h, 1.0), "accept reason=accepted")):
        assert main(args + [repr(float(prev))]) == 0
        assert capsys.readouterr().out.startswith(decision), prev
        assert np.array_equal(nifti_io.read_volume(paths["out"]).data > 0, organ)
    three = ProbVolume(np.stack([1.0 - p_fg, p_fg / 2, p_fg / 2]))
    nifti_io.write_volume(paths["probs"], three)
    assert main(args + [repr(float(h))]) == 1
    assert "error: refinement takes 2-class probabilities" in capsys.readouterr().err


def test_phantom_gen_and_simulate_partial_check_their_config_fields_first(tmp_path, capsys):
    for flags, name in ((["--seed", "-1"], "seed"), (["--organs", "300"], "organs"),
                        (["--organs", "0"], "organs"), (["--seed", "x"], "seed"),
                        (["--scans", "0"], "scans")):
        out = tmp_path / "phantoms"
        assert main(["phantom-gen", "--out", str(out), "--dims", "16,16,16", *flags]) == 1
        assert f"error: {name}" in capsys.readouterr().err, flags
        assert not out.exists()
    gt_path = tmp_path / "gt.nii"
    nifti_io.write_volume(gt_path, LabelMap(np.ones((4, 4, 4), dtype=np.uint8), 2))
    out_labels, out_man = tmp_path / "partial.nii", tmp_path / "partial.manifest"
    assert main(["simulate-partial", "--gt", str(gt_path), "--keep-fraction", "1",
                 "--seed", "-2", "--out-labels", str(out_labels),
                 "--out-manifest", str(out_man)]) == 1
    assert "error: seed" in capsys.readouterr().err
    assert not out_labels.exists() and not out_man.exists()


def test_run_subcommand_with_config_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "oracle = phantom\n"
        "rounds = 1\n"
        "entropy_gate_from_round = 1\n"
        "scans = 3\n"
        "test_scans = 1\n"
        "organs = 2\n"
        "dims = 16,16,16\n"
        "keep_fraction = 0.5\n"
        "seed = 1\n")
    out_dir = tmp_path / "run_out"
    assert main(["run", "--config", str(cfg), "--seed", "2",
                 "--out-dir", str(out_dir)]) == 0
    assert "mean DSC" in capsys.readouterr().out
    assert (out_dir / "round_1.csv").exists()
    assert (out_dir / "final_eval.csv").exists()
    assert (out_dir / "final_summary.csv").exists()
    assert (out_dir / "run_manifest.txt").exists()
    manifest = (out_dir / "run_manifest.txt").read_text()
    assert "seed=2" in manifest  # flag overrides config
    targets = list((out_dir / "targets").glob("*.labels.nii"))
    assert len(targets) == 3


def test_run_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rounds = 2\nentropy_gate_from_round = 9\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_grid_triple_flags_reject_bad_values(tmp_path, capsys):
    gt = tmp_path / "gt.nii"
    nifti_io.write_volume(gt, LabelMap(np.ones((4, 4, 4), dtype=np.uint8), 2))
    for dims in ("16,16", "0,16,16", "a,b,c", "16,16,16,16", "-4,16,16", "8.5,16,16"):
        out = tmp_path / f"ph_{dims}"
        assert main(["phantom-gen", "--out", str(out), f"--dims={dims}"]) == 1, dims
        assert "error:" in capsys.readouterr().err
        assert not out.exists()  # checked before anything is written
    for spacing in ("1,2", "1,0,1", "1,-2,1", "nan,1,1", "1,inf,1", "x,1,1", "1,1,1,1"):
        assert main(["metrics", "--pred", str(gt), "--gt", str(gt),
                     f"--spacing={spacing}"]) == 1, spacing
        assert "error:" in capsys.readouterr().err
    assert main(["metrics", "--pred", str(gt), "--gt", str(gt), "--spacing", "1, 2.5,3"]) == 0
    assert main(["phantom-gen", "--out", str(tmp_path / "ok"), "--dims", "8,9,10"]) == 0
    assert nifti_io.read_volume(tmp_path / "ok" / "scan000.nii").dims == (8, 9, 10)


def test_phantom_gen_writes_nothing_for_dims_it_cannot_realise(tmp_path, capsys):
    for flags, message in ((["--dims", "16,16,3"], "error: dims must be >= 7"),
                           (["--dims", "7,7,7", "--organs", "40"],
                            "error: phantom organ 3 rasterized empty")):
        out = tmp_path / "phantoms"
        assert main(["phantom-gen", "--out", str(out), *flags]) == 1
        assert message in capsys.readouterr().err, flags
        assert not out.exists()


def test_metrics_refuses_a_spacing_float32_cannot_hold(tmp_path, capsys):
    gt = tmp_path / "gt.nii"
    nifti_io.write_volume(gt, LabelMap(np.ones((4, 4, 4), dtype=np.uint8), 2))
    assert main(["metrics", "--pred", str(gt), "--gt", str(gt), "--spacing", "1e39,1,1"]) == 1
    assert "error: spacing" in capsys.readouterr().err


def readme_block(heading, lang):
    """The first ``lang`` code block under the README's ``heading``."""
    section = README.read_text().split(f"## {heading}", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(tmp_path):
    command = readme_block("Quick start", "sh").replace("\\\n", " ")
    argv = shlex.split(command)
    assert argv[:2] == ["promptseg", "run"]
    out = tmp_path / "demo"
    argv[argv.index("--out-dir") + 1] = str(out)
    assert main(argv[1:]) == 0
    expected = [f"round_{t}.csv" for t in range(1, 5)] + [
        "final_eval.csv", "final_summary.csv", "targets", "run_manifest.txt", "run.log"]
    assert all((out / name).exists() for name in expected)


def test_readme_server_example_serves_its_model(tmp_path, monkeypatch):
    """The README's server example, run as it is, answers a file oracle's
    segment request with its model's whole-grid answer."""
    monkeypatch.chdir(tmp_path)
    namespace = {}
    thread = threading.Thread(target=exec, daemon=True,
                              args=(readme_block("Plugging in real models", "python"), namespace))
    thread.start()
    image = np.zeros((12, 10, 8), np.float32)
    image[3:8, 2:6, 2:6] = 1.0
    prompts = make_box_prompts(LabelMap((image > 0).astype(np.uint8), 2), 1, padding=1)
    try:
        got = FileOracle("xchg/generalist", timeout=10.0).segment(Volume(image), prompts)
    finally:
        namespace.get("stop", threading.Event()).set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    want = namespace["BrightInBox"]().segment(Volume(image), prompts)
    assert got[0].tobytes() == want[0].tobytes() and got[0].sum() == 5 * 4 * 4
    assert got[1].data.tobytes() == want[1].data.tobytes()


def test_run_creates_nothing_before_its_checks_and_logs_a_good_run(tmp_path, capsys, caplog):
    empty, out = tmp_path / "empty", tmp_path / "out"
    empty.mkdir()
    sx, gx = tmp_path / "sx", tmp_path / "gx"
    assert main(["run", "--oracle", "file", "--data-dir", str(empty),
                 "--specialist-exchange", str(sx), "--generalist-exchange", str(gx),
                 "--out-dir", str(out)]) == 1
    assert "no *.manifest scans found" in capsys.readouterr().err
    assert not out.exists() and not sx.exists() and not gx.exists()
    # a good run still writes its records to out/run.log
    caplog.set_level(logging.INFO, logger="promptseg")
    assert main(["run", "--rounds", "1", "--entropy-gate-from-round", "1", "--scans", "2",
                 "--test-scans", "1", "--organs", "2", "--dims", "16,16,16",
                 "--out-dir", str(out)]) == 0
    lines = (out / "run.log").read_text().splitlines()
    assert lines[0] == "INFO promptseg.pipeline: initial training on 2 scans (partial supervision)"
    assert lines[1].startswith("INFO promptseg.pipeline: round 1: ")
    assert lines[-1].startswith("INFO promptseg.pipeline: final evaluation: mean DSC ")


def test_import_loads_no_scipy_spatial_linalg_or_sparse():
    """``import promptseg`` and ``import promptseg.cli`` in a fresh interpreter
    load scipy's ``ndimage`` only: no ``spatial``, ``linalg`` or ``sparse``."""
    path = [str(Path(promptseg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = ("import sys, promptseg, promptseg.cli; print(sorted(m for m in sys.modules if "
            "m.split('.')[:2] in [['scipy', s] for s in ('spatial', 'linalg', 'sparse')]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_evaluation_under_the_all_pairs_budget_loads_no_scipy_spatial():
    """An ``evaluate_scan`` in a fresh interpreter whose every search stays
    within ``metrics.ALL_PAIRS`` pairs (two cubes, each 26 boundary voxels,
    shifted by one voxel) loads no ``spatial``, ``linalg`` or ``sparse``."""
    path = [str(Path(promptseg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = ("import sys, numpy as np\n"
            "from promptseg.metrics import evaluate_scan\n"
            "from promptseg.volgrid import LabelMap\n"
            "gt = np.zeros((12, 12, 12), np.uint8); gt[2:5, 2:5, 2:5] = 1; gt[7:10, 7:10, 7:10] = 2\n"
            "ev = evaluate_scan(LabelMap(np.roll(gt, 1, axis=0), 3), LabelMap(gt, 3), (0.8, 0.8, 2.5))\n"
            "print([cm.hd95 > 0 for cm in ev.per_class], sorted(m for m in sys.modules if "
            "m.split('.')[:2] in [['scipy', s] for s in ('spatial', 'linalg', 'sparse')]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[True, True] []"
