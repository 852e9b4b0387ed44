"""End-to-end command-line runs via subprocess."""

import argparse
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import MiB, fckp_bytes, traced_peak
from mutations import mutated

import fome
from fome import cli
from fome.errors import DataError, FormatError, write_file

CLI = [sys.executable, "-m", "fome.cli"]
SRC = os.path.dirname(os.path.dirname(fome.__file__))


def run_cli(args, stdin_bytes=None, cwd=None):
    # the command runs the same package these tests import
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(CLI + args, input=stdin_bytes, capture_output=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


def run_pipeline(tmp_path, seed=7):
    tmp_path.mkdir(parents=True, exist_ok=True)
    synth = run_cli(["synth", "--seed", str(seed), "--channels", "3", "--duration", "30",
                     "--rate", "500", "--noise", "4"])
    assert synth.returncode == 0, synth.stderr
    prep = run_cli(["preprocess", "--window", "500"], stdin_bytes=synth.stdout)
    assert prep.returncode == 0, prep.stderr
    out = tmp_path / "ck.fckp"
    pre = run_cli([
        "pretrain", "--steps", "8", "--preset", "tiny", "--pps", "3",
        "--batch", "2", "--accum", "2", "--lr-peak", "1e-3",
        "--seed", str(seed), "--out", str(out),
    ], stdin_bytes=prep.stdout)
    assert pre.returncode == 0, pre.stderr
    return out


def by_name(hashes):
    """A manifest's path -> sha256 map keyed by file name alone."""
    return {path.split("/")[-1]: digest for path, digest in hashes.items()}


def write_classify_dataset(directory, seed):
    """Ten seeded (2, 3, 500) grids labelled alternately 0 and 1, listed in
    `directory`/dataset.csv; returns the CSV's path."""
    from fome.preprocess import PatchGrid, grid_to_bytes
    from fome.rng import Rng

    gen = Rng(seed)
    rows = []
    for i in range(10):
        grid = PatchGrid(gen.normals(2 * 3 * 500).reshape(2, 3, 500), 500, 250.0)
        write_file(directory / f"g{i}.fegp", grid_to_bytes(grid))
        rows.append(f"g{i}.fegp,{i % 2}")
    (directory / "dataset.csv").write_text("\n".join(rows) + "\n")
    return directory / "dataset.csv"


def finetune_from_checkpoint(checkpoint, tmp_path):
    """`finetune classify --checkpoint` for 500 optimizer steps (one cadence
    checkpoint) into `tmp_path`/ckdir, which already holds a stale file;
    returns the run's manifest."""
    dataset = write_classify_dataset(tmp_path, seed=8)
    (tmp_path / "ckdir").mkdir()
    (tmp_path / "ckdir" / "stale.fckp").write_bytes(b"not written by this run")
    out = tmp_path / "metrics.json"
    result = run_cli([
        "finetune", "classify", "--dataset", str(dataset),
        "--checkpoint", str(checkpoint), "--checkpoint-dir", str(tmp_path / "ckdir"),
        "--classes", "2", "--steps", "500", "--batch", "1", "--accum", "1",
        "--lr-peak", "1e-3", "--preset", "tiny", "--seed", "3", "--out", str(out),
    ])
    assert result.returncode == 0, result.stderr
    return json.loads((tmp_path / "metrics.json.manifest.json").read_text())


class TestPipeline:
    def test_synth_preprocess_pretrain_chain(self, tmp_path):
        out = run_pipeline(tmp_path)
        assert out.exists()
        assert out.with_suffix(".fckp.trace.csv").exists()
        manifest = json.loads((tmp_path / "ck.fckp.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert str(out) in manifest["outputs"]
        assert manifest["config"]["model"]["patch_len"] == 500
        trace = out.with_suffix(".fckp.trace.csv").read_text().splitlines()
        assert trace[0] == "step,lr,loss"
        assert len(trace) == 9

    def test_inspect_checkpoint_lists_derived_names(self, tmp_path):
        out = run_pipeline(tmp_path)
        result = run_cli(["inspect-checkpoint", "--in", str(out), "--json"])
        assert result.returncode == 0
        listing = json.loads(result.stdout)
        from fome.model import param_shapes, preset, reconstruct_head_shapes

        cfg = preset("tiny", patch_len=500)
        expected = dict(param_shapes(cfg))
        expected.update(reconstruct_head_shapes(cfg))
        # the config record comes first, then the tensors
        assert list(listing) == ["config", *expected]
        assert listing["config"] == asdict(preset("tiny", patch_len=500))
        for name, shape in expected.items():
            assert tuple(listing[name]) == shape

    def test_seeded_rerun_bitwise_identical(self, tmp_path):
        a = run_pipeline(tmp_path / "a", seed=11)
        b = run_pipeline(tmp_path / "b", seed=11)
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "a" / "ck.fckp.manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "ck.fckp.manifest.json").read_text())
        assert by_name(ma["outputs"]) == by_name(mb["outputs"])
        # fine-tuning from the pretrained checkpoint: the manifest pins the
        # checkpoint it read and lists exactly the checkpoint files it wrote
        fa = finetune_from_checkpoint(a, tmp_path / "a")
        fb = finetune_from_checkpoint(b, tmp_path / "b")
        assert fa["inputs"][str(a)] == hashlib.sha256(a.read_bytes()).hexdigest()
        ckdir = tmp_path / "a" / "ckdir"
        assert set(fa["outputs"]) == {str(tmp_path / "a" / "metrics.json")} | {
            f"{ckdir}/{name}" for name in ("step-000500.fckp", "best-validation.fckp",
                                           "final.fckp")}
        for path, digest in fa["outputs"].items():
            assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
        assert by_name(fa["inputs"]) == by_name(fb["inputs"])
        assert by_name(fa["outputs"]) == by_name(fb["outputs"])


    def test_csv_recordings_stream_through_stdin_and_stdout(self, tmp_path):
        synth = ["synth", "--seed", "4", "--channels", "2", "--duration", "8", "--format", "csv"]
        path = tmp_path / "rec.csv"
        piped = run_cli(synth)
        assert piped.returncode == 0, piped.stderr
        assert run_cli(synth + ["--out", str(path)]).returncode == 0
        assert piped.stdout == path.read_bytes()
        from_stdin = run_cli(["preprocess", "--format", "csv", "--in", "-"],
                             stdin_bytes=piped.stdout)
        from_path = run_cli(["preprocess", "--format", "csv", "--in", str(path)])
        assert from_stdin.returncode == 0, from_stdin.stderr
        assert from_stdin.stdout[:4] == b"FEGP"
        assert from_stdin.stdout == from_path.stdout


class TestIngestBytes:
    # sha256 prefixes recorded with notch and band-pass as two filter passes;
    # the cascaded pass must reproduce every byte
    @pytest.mark.parametrize("flags, digests", [
        ([], ("1c337a0fa8c38571", "b4c0004d12d7afd8", "4249c5a40f7959e1")),
        (["--notch", "60", "--band", "1:40"],
         ("1c337a0fa8c38571", "40efd8e13ab95a15", "cace3e464da2ee69")),
    ], ids=["notch-50", "notch-60-narrow-band"])
    def test_synth_preprocess_spectra_bytes_pinned(self, tmp_path, flags, digests):
        feeg, fegp, csv = (tmp_path / name for name in ("r.feeg", "r.fegp", "r.csv"))
        for args in (["synth", "--seed", "3", "--channels", "3", "--duration", "24",
                      "--rate", "500", "--noise", "2", "--out", str(feeg)],
                     ["preprocess", "--in", str(feeg), "--out", str(fegp)] + flags,
                     ["spectra", "--in", str(fegp), "--out", str(csv)]):
            result = run_cli(args)
            assert result.returncode == 0, result.stderr
        assert tuple(hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                     for path in (feeg, fegp, csv)) == digests


class TestProcessState:
    """In process: what `main` builds once and reuses across commands."""

    @pytest.fixture(autouse=True)
    def _restore_environment(self, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, os.environ.get(var, "1"))

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_git_describe_runs_once_in_the_package_directory(self, tmp_path, monkeypatch):
        calls = []
        run = subprocess.run

        def spy(cmd, *args, **kwargs):
            if cmd[:2] == ["git", "describe"]:
                calls.append(kwargs.get("cwd"))
            return run(cmd, *args, **kwargs)

        monkeypatch.setattr(cli.subprocess, "run", spy)
        cli._git_describe.cache_clear()
        outs = []
        for i, cwd in enumerate((tmp_path, tmp_path / "elsewhere", tmp_path / "elsewhere")):
            cwd.mkdir(exist_ok=True)
            monkeypatch.chdir(cwd)
            outs.append(tmp_path / f"rec{i}.feeg")
            assert cli.main(["synth", "--channels", "1", "--duration", "2",
                             "--out", str(outs[-1])]) == 0
        assert calls == [os.path.dirname(os.path.abspath(cli.__file__))]
        described = {json.loads(out.with_name(out.name + ".manifest.json").read_text())
                     ["git_describe"] for out in outs}
        assert described == {cli._git_describe()}

    def test_ingest_commands_hash_outputs_without_reading_them_back(self, tmp_path,
                                                                     monkeypatch):
        import fome.errors

        reads = []
        read = fome.errors.read_file
        for module in (fome.errors, cli):
            monkeypatch.setattr(module, "read_file", lambda path: reads.append(str(path))
                                or read(path))
        monkeypatch.setattr(cli, "_git_describe", lambda: "test")
        feeg, fegp, csv = (str(tmp_path / name) for name in ("r.feeg", "r.fegp", "r.csv"))
        for argv in (["synth", "--channels", "2", "--duration", "12"],
                     ["preprocess", "--in", feeg, "--window", "500"],
                     ["spectra", "--in", fegp]):
            out = {"synth": feeg, "preprocess": fegp, "spectra": csv}[argv[0]]
            assert cli.main(argv + ["--out", out]) == 0
            manifest = json.loads(read(out + ".manifest.json"))
            assert manifest["outputs"] == {out: hashlib.sha256(read(out)).hexdigest()}
        assert reads == [feeg, fegp]  # each input once, no output

    def test_ingest_commands_peak_memory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_git_describe", lambda: "test")
        feeg, fegp = str(tmp_path / "r.feeg"), str(tmp_path / "r.fegp")
        # the ingest workload's commands: a 19 ch x 60 s recording at 500 Hz
        # (4.35 MiB in float64, 2.17 MiB on disk)
        synth = ["synth", "--seed", "11", "--channels", "19", "--duration", "60",
                 "--rate", "500", "--out", feeg]
        preprocess = ["preprocess", "--in", feeg, "--out", fegp, "--window", "1500"]
        # measured 6.5 and 7.1 MiB, from 24.2 and 23.9 with whole-array
        # noise, filtering and codecs; holding the decoded recording through
        # the pipeline would put preprocess above 11 MiB
        for argv, bound in ((synth, 8 * MiB), (preprocess, 9 * MiB)):
            assert cli.main(argv) == 0  # first run imports and builds the parser
            code, peak = traced_peak(lambda: cli.main(argv))
            assert code == 0
            assert peak <= bound, argv[0]

    def test_csv_ingest_commands_peak_memory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_git_describe", lambda: "test")
        csv, fegp = str(tmp_path / "r.csv"), str(tmp_path / "r.fegp")
        # the same recording as CSV: 6.2 MiB on disk
        synth = ["synth", "--seed", "11", "--channels", "19", "--duration", "60",
                 "--rate", "500", "--format", "csv", "--out", csv]
        preprocess = ["preprocess", "--in", csv, "--format", "csv", "--out", fegp,
                      "--window", "1500"]
        # measured 11.5 and 13.3 MiB, from 26.8 and 47.1 with one Python
        # object per value
        for argv, bound in ((synth, 13 * MiB), (preprocess, 15 * MiB)):
            assert cli.main(argv) == 0
            code, peak = traced_peak(lambda: cli.main(argv))
            assert code == 0
            assert peak <= bound, argv[0]

    def test_parses_do_not_share_list_values(self):
        parser = cli.build_parser()
        first = parser.parse_args(["pretrain", "--ablate", "freq"])
        first.ablate.append("channel")
        second = parser.parse_args(["pretrain", "--ablate", "temporal"])
        assert (first.ablate, second.ablate) == (["freq", "channel"], ["temporal"])
        assert parser.parse_args(["pretrain"]).ablate is None
        assert parser.parse_args(["pretrain"]).infile == ("-",)
        assert parser.parse_args(["finetune", "impute"]).infile == ()
        assert parser.parse_args(["finetune", "impute", "--in", "a", "b"]).infile == ["a", "b"]
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        for name, sub in commands.choices.items():
            for action in sub._actions:
                assert not isinstance(action.default, (list, dict, set)), (name, action.dest)


def command_parsers(parser):
    """(command, parser) of every command and `finetune` task."""
    def choices(p):
        return next(a for a in p._actions if isinstance(a, argparse._SubParsersAction)).choices

    for name, command in choices(parser).items():
        if name == "finetune":
            yield from (((name, task), sub) for task, sub in choices(command).items())
        else:
            yield (name,), command


def command_of(argv):
    """The command, and for `finetune` the task, that `argv` runs."""
    return tuple(argv[:2 if argv[0] == "finetune" else 1])


# (argv, flag, value) of each flag that a command or task accepted, and
# never read, while `finetune` was one parser for every task
UNREAD = [(["finetune", "classify"], flag, value) for flag, value in (
    ("--mask-ratio", "0.5"), ("--mask-mode", "column"), ("--loss-all", None), ("--in", "g"),
    ("--context", "2"), ("--horizon", "5"), ("--missing-ratio", "0.4"), ("--pps", "3"))] + [
    (["finetune", "forecast"], flag, value) for flag, value in (
        ("--mask-ratio", "0.5"), ("--mask-mode", "column"), ("--loss-all", None),
        ("--dataset", "d.csv"), ("--classes", "3"), ("--missing-ratio", "0.4"), ("--pps", "3"))] + [
    (["finetune", "impute"], flag, value) for flag, value in (
        ("--dataset", "d.csv"), ("--checkpoint-dir", "ck"), ("--checkpoint-every", "1"),
        ("--classes", "3"), ("--mode", "probe"), ("--context", "2"), ("--horizon", "5"))] + [
    (command, "--seed", "1") for command in (["preprocess"], ["spectra"], ["eval"],
                                            ["inspect-checkpoint", "--in", "ck.fckp"])]


@pytest.fixture
def in_process(monkeypatch):
    """`cli.main` runs in this process: the thread variables it sets are
    restored afterwards, and `git describe` is not run."""
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(cli, "_git_describe", lambda: "test")


@pytest.mark.usefixtures("in_process")
class TestFlags:
    """In process: each command and `finetune` task takes exactly the flags
    it reads."""

    def test_every_flag_is_read(self, tmp_path, monkeypatch):
        from fome.preprocess import PatchGrid, grid_to_bytes

        reads = set()

        class Reads(argparse.Namespace):
            def __getattribute__(self, name):
                # the manifest's copy of --seed records it; only a draw uses it;
                # the path checks (or a function in them) look at every path
                # flag of every command
                frame = sys._getframe(1)
                if cli._check_paths.__code__ not in (frame.f_code, frame.f_back.f_code) and (
                        name != "seed" or frame.f_code is not cli._Manifest.__init__.__code__):
                    reads.add(name)
                return super().__getattribute__(name)

        parser = cli.build_parser()

        class Parser:
            @staticmethod
            def parse_args(argv):
                args = parser.parse_args(argv, namespace=Reads())
                reads.clear()  # what argparse itself looked at
                return args

        monkeypatch.setattr(cli, "build_parser", Parser)
        path = {name: str(tmp_path / name) for name in (
            "rec.feeg", "grid.fegp", "long.fegp", "ck.fckp", "preds.csv")}
        write_file(path["long.fegp"], grid_to_bytes(PatchGrid(
            np.random.default_rng(2).standard_normal((2, 35, 16)), 16, 250.0)))
        (tmp_path / "preds.csv").write_text("0,0\n1,1\n")
        train = ["--steps", "1", "--accum", "1", "--batch", "1", "--preset", "tiny"]
        runs = [
            ["synth", "--seed", "3", "--channels", "2", "--duration", "24", "--out",
             path["rec.feeg"]],
            ["preprocess", "--in", path["rec.feeg"], "--out", path["grid.fegp"], "--window", "500"],
            ["spectra", "--in", path["grid.fegp"]],
            ["pretrain", "--in", path["grid.fegp"], "--pps", "3", "--out", path["ck.fckp"], *train],
            ["finetune", "classify", "--dataset", str(write_classify_dataset(tmp_path, seed=1)),
             *train],
            ["finetune", "forecast", "--in", path["long.fegp"], "--context", "2", *train],
            ["finetune", "impute", "--in", path["long.fegp"], "--pps", "5", *train],
            ["eval", "--in", path["preds.csv"]],
            ["inspect-checkpoint", "--in", path["ck.fckp"]],
        ]
        commands = dict(command_parsers(parser))
        assert sorted(map(command_of, runs)) == sorted(commands)
        for argv in runs:
            command = command_of(argv)
            out = [] if "--out" in argv else ["--out", str(tmp_path / "-".join(command))]
            assert cli.main(argv + out) == 0, argv
            flags = {action.dest for action in commands[command]._actions
                     if action.option_strings and action.dest != "help"}
            assert flags - reads == set(), command
            reads.clear()

    def test_config_flags_have_no_defaults_of_their_own(self, tmp_path):
        # a flag left out takes its config class's default; --seed keeps its 0
        # because synth, weight init and the impute masks read it too
        from fome.model import ModelConfig
        from fome.preprocess import PreprocessConfig
        from fome.trainer import TrainConfig

        names = {f.name for cls in (TrainConfig, PreprocessConfig, ModelConfig)
                 for f in fields(cls)} - {"seed"}
        parser = cli.build_parser()
        named = set()
        for command, _ in command_parsers(parser):
            extra = ["--in", "ck.fckp"] if command == ("inspect-checkpoint",) else []
            args = vars(parser.parse_args([*command, *extra]))
            given = {name: args[name] for name in names & args.keys()}
            named |= given.keys()
            assert set(given.values()) <= {None}, (command, given)
        assert {"notch_hz", "target_rate_hz", "window_len_samples", "attn_scale"} <= named
        assert cli._train_config(parser.parse_args(["pretrain"])) == TrainConfig()
        rec, grid = str(tmp_path / "rec.feeg"), str(tmp_path / "grid.fegp")
        assert cli.main(["synth", "--channels", "1", "--duration", "7", "--out", rec]) == 0
        assert cli.main(["preprocess", "--in", rec, "--out", grid]) == 0
        manifest = json.loads((tmp_path / "grid.fegp.manifest.json").read_text())
        assert manifest["config"]["preprocess"] == asdict(PreprocessConfig())

    @pytest.mark.parametrize("command, flag, value", UNREAD,
                             ids=[" ".join(command_of(c) + (f,)) for c, f, _ in UNREAD])
    def test_flag_a_command_does_not_read_is_a_usage_error(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(command + [flag] + ([value] if value else []))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.usefixtures("in_process")
class TestRunPaths:
    """In process: the paths `_check_paths` fixes before a run are the files
    it writes."""

    def test_a_run_writes_exactly_the_paths_fixed_before_it(self, tmp_path, monkeypatch):
        from fome.preprocess import PatchGrid, grid_to_bytes

        fixed = []
        check = cli._check_paths
        monkeypatch.setattr(cli, "_check_paths", lambda args: check(args) or fixed.append(args))
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        long = str(inputs / "long.fegp")
        write_file(long, grid_to_bytes(PatchGrid(
            np.random.default_rng(2).standard_normal((2, 35, 16)), 16, 250.0)))
        (inputs / "preds.csv").write_text("0,0\n1,1\n")
        grid, checkpoint = tmp_path / "preprocess" / "grid.fegp", tmp_path / "pretrain" / "ck.fckp"
        train = ["--steps", "1", "--accum", "1", "--batch", "1", "--preset", "tiny"]
        runs = [
            ["synth", "--channels", "2", "--duration", "24", "--out", "rec.feeg"],
            ["preprocess", "--in", str(tmp_path / "synth" / "rec.feeg"), "--window", "500",
             "--out", "grid.fegp"],
            ["spectra", "--in", str(grid), "--out", "bands.csv", "--manifest", "bands.json"],
            ["pretrain", "--in", str(grid), "--pps", "3", "--out", "ck.fckp", *train],
            ["finetune", "classify", "--dataset", str(write_classify_dataset(inputs, seed=1)),
             "--checkpoint-dir", "ckd", "--checkpoint-every", "1", "--out-checkpoint", "head.fckp",
             "--out", "m.json", *train],
            ["finetune", "forecast", "--in", long, "--context", "2", "--out-checkpoint", "f.fckp",
             "--out", "m.json", *train],
            ["finetune", "impute", "--in", long, "--pps", "5", "--out", "m.json", *train],
            ["eval", "--in", str(inputs / "preds.csv"), "--out", "e.json"],
            ["inspect-checkpoint", "--in", str(checkpoint), "--json", "--out", "listing.json"],
        ]
        assert sorted(map(command_of, runs)) == sorted(dict(command_parsers(cli.build_parser())))
        for argv in runs:
            cwd = tmp_path / command_of(argv)[-1]
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert cli.main(argv) == 0, argv
            args = fixed.pop()
            # beside --out, the first file output, unless given
            assert args.manifest == ("bands.json" if "--manifest" in argv else
                                     argv[argv.index("--out") + 1] + ".manifest.json"), argv
            paths = {getattr(args, dest, None) for dest in ("out", "trace", "out_checkpoint",
                                                            "manifest")} - {None, "-"}
            listed = json.loads((cwd / args.manifest).read_text())["outputs"]
            keeper = set(listed) - paths
            if args.command == "finetune" and args.task == "classify":
                assert keeper and all(os.path.dirname(path) == "ckd" for path in keeper), listed
            else:
                assert keeper == set(), listed
            written = {os.path.relpath(os.path.join(root, name), cwd)
                       for root, _, names in os.walk(cwd) for name in names}
            assert written == {os.path.normpath(path) for path in paths | keeper}, argv

    @pytest.mark.parametrize("directory", ["ckd/", "ckd"])
    def test_checkpoint_dir_only_run_keeps_its_manifest_there(self, tmp_path, directory):
        dataset = write_classify_dataset(tmp_path, seed=2)
        result = run_cli(["finetune", "classify", "--dataset", str(dataset), "--out", "-",
                          "--checkpoint-dir", directory, "--checkpoint-every", "1", "--steps", "2",
                          "--accum", "1", "--batch", "1", "--preset", "tiny"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "accuracy" in json.loads(result.stdout)
        keeper = {"step-000001.fckp", "step-000002.fckp", "best-validation.fckp", "final.fckp"}
        assert set(os.listdir(tmp_path / "ckd")) == keeper | {"manifest.json"}
        manifest = json.loads((tmp_path / "ckd" / "manifest.json").read_text())
        # joined by `os.path.join`: `ckd/` gives no double slash
        assert set(manifest["outputs"]) == {f"ckd/{name}" for name in keeper}


class TestSpectraCommand:
    def test_band_csv_shape(self, tmp_path):
        synth = run_cli(["synth", "--seed", "3", "--channels", "2", "--duration", "24",
                         "--rate", "500", "--noise", "2"])
        prep = run_cli(["preprocess"], stdin_bytes=synth.stdout)
        assert prep.returncode == 0, prep.stderr
        spectra = run_cli(["spectra"], stdin_bytes=prep.stdout)
        assert spectra.returncode == 0, spectra.stderr
        rows = spectra.stdout.decode().strip().splitlines()
        assert len(rows) == 2 * 4  # C x P rows: 24 s at 250 Hz -> four 6 s patches
        assert all(len(r.split(",")) == 8 for r in rows)

    def test_cells_are_plain_floats_equal_to_band_powers(self, tmp_path):
        from fome.preprocess import grid_from_bytes
        from fome.spectral import band_powers

        synth = run_cli(["synth", "--seed", "5", "--channels", "3", "--duration", "12",
                         "--rate", "500", "--noise", "3"])
        prep = run_cli(["preprocess"], stdin_bytes=synth.stdout)
        assert prep.returncode == 0, prep.stderr
        out = tmp_path / "bands.csv"
        spectra = run_cli(["spectra", "--out", str(out)], stdin_bytes=prep.stdout)
        assert spectra.returncode == 0, spectra.stderr
        cells = [[float(v) for v in row.split(",")] for row in out.read_text().splitlines()]
        values = band_powers(grid_from_bytes(prep.stdout))
        np.testing.assert_array_equal(np.array(cells), values.reshape(-1, values.shape[-1]))


class TestEvalCommand:
    def test_perfect_predictions(self, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("pred,label\n1,1\n0,0\n1,1\n0,0\n")
        result = run_cli(["eval", "--in", str(preds), "--task", "classify"])
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["accuracy"] == 1.0
        assert report["f2"] == 1.0

    def test_regression_eval(self, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("pred,target\n1.0,1.5\n2.0,2.5\n")
        result = run_cli(["eval", "--in", str(preds), "--task", "regress"])
        report = json.loads(result.stdout)
        assert abs(report["mae"] - 0.5) < 1e-12

    def test_classes_inferred_from_values(self, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("0,0\n1,1\n")
        report = json.loads(run_cli(["eval", "--in", str(preds)]).stdout)
        assert report["task"] == "classification" and report["confusion"] == [[1, 0], [0, 1]]
        preds.write_text("0,0\n2,1\n")
        assert len(json.loads(run_cli(["eval", "--in", str(preds)]).stdout)["confusion"]) == 3
        wide = json.loads(run_cli(["eval", "--in", str(preds), "--classes", "4"]).stdout)
        assert len(wide["confusion"]) == 4


class TestCorruptCsv:
    """In process: every corrupt CSV parses or raises its documented error."""

    @pytest.fixture(autouse=True)
    def _no_git(self, monkeypatch):
        monkeypatch.setattr(cli, "_git_describe", lambda: "test")

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_dataset_csv_parses_or_is_typed_error(self, tmp_path, data):
        path = tmp_path / "dataset.csv"
        path.write_bytes(mutated(data, b"# grid,label,split\na.fegp,0,train\n"
                                       b"b.fegp,1,val\nc.fegp,1,test\n"))
        argv = ["finetune", "classify", "--dataset", str(path)]
        args = cli.build_parser().parse_args(argv)
        try:
            rows = cli._read_dataset_manifest(str(path), cli._Manifest(args, argv))
            assert rows and all(isinstance(label, int) for _, label, _ in rows)
        except (DataError, FormatError):
            pass

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), task=st.sampled_from(["classify", "regress"]))
    def test_predictions_csv_scores_or_is_typed_error(self, tmp_path, data, task):
        path, out = tmp_path / "preds.csv", tmp_path / "report.json"
        path.write_bytes(mutated(data, b"pred,ref\n0,0\n1,1\n2,1\n"))
        argv = ["eval", "--in", str(path), "--task", task, "--out", str(out)]
        args = cli.build_parser().parse_args(argv)
        try:
            cli._cmd_eval(args, cli._Manifest(args, argv))
            assert json.loads(out.read_text())["task"] in ("classification", "regression")
        except (DataError, FormatError):
            pass


class TestErrors:
    def test_unknown_flag_is_usage_error(self):
        result = run_cli(["synth", "--frobnicate"])
        assert result.returncode == 2

    def test_module_error_surfaces_as_json(self, tmp_path):
        bad = tmp_path / "bad.fegp"
        bad.write_bytes(b"not a grid")
        result = run_cli(["spectra", "--in", str(bad)])
        assert result.returncode == 1
        payload = json.loads(result.stderr)
        assert payload["error"] == "FormatError"

    @pytest.mark.parametrize("command", ["spectra", "preprocess"])
    def test_missing_input_file_is_io_error(self, tmp_path, command):
        result = run_cli([command, "--in", str(tmp_path / "no" / "such.file")])
        assert result.returncode == 1
        payload = json.loads(result.stderr)
        assert payload["error"] == "IoError"

    def test_dataset_row_without_label_is_data_error(self, tmp_path):
        from fome.preprocess import PatchGrid, grid_to_bytes

        grid = PatchGrid(np.zeros((2, 4, 16)), 16, 250.0)
        for name in ("a.fegp", "b.fegp"):
            write_file(tmp_path / name, grid_to_bytes(grid))
        manifest_csv = tmp_path / "dataset.csv"
        manifest_csv.write_text("a.fegp,0\nb.fegp\n")
        result = run_cli([
            "finetune", "classify", "--dataset", str(manifest_csv),
            "--classes", "2", "--steps", "1", "--preset", "tiny",
            "--out", str(tmp_path / "metrics.json"),
        ])
        assert result.returncode == 1
        payload = json.loads(result.stderr)
        assert payload["error"] == "DataError"
        assert "row 2" in payload["message"] and "b.fegp" in payload["message"]

    @pytest.mark.parametrize("args", [
        ["finetune", "classify"],
        ["finetune", "classify", "--dataset", "EMPTY"],
        ["finetune", "forecast"],
        ["finetune", "impute"],
        ["pretrain", "--in"],
        ["pretrain", "--in", "GRID", "--pps", "0"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--steps", "0"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--steps", "3", "--accum", "4"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--steps", "6", "--accum", "4"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--lr-peak=nan"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--lr-peak=inf"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--lr-peak=-1"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--out", "-"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--trace", "-"],
        ["finetune", "classify", "--dataset", "DATASET", "--out-checkpoint", "-"],
        ["finetune", "classify", "--dataset", "DATASET", "--checkpoint-dir", "-"],
        ["finetune", "classify", "--dataset", "DATASET", "--checkpoint", "HEAD3"],
        ["finetune", "forecast", "--in", "LONG_GRID", "--context", "2", "--horizon", "5",
         "--checkpoint", "HORIZON2"],
        ["preprocess", "--in", "REC", "--band", "1"],
        ["preprocess", "--in", "REC", "--band", "a:b"],
        ["preprocess", "--in", "REC", "--rate", "nan"],
        ["eval", "--in", "EMPTY"],
        ["eval", "--in", "HEADER"],
        ["eval", "--in", "HEADER", "--task", "regress"],
        ["eval", "--in", "ONECOL"],
        ["eval", "--in", "NONNUM", "--task", "regress"],
        ["eval", "--in", "NONINT"],
        ["eval", "--in", "NAN_ROW", "--task", "regress"],
        ["eval", "--in", "OVERFLOW", "--task", "regress"],
        ["eval", "--in", "PREDS", "--classes", "0"],
        ["eval", "--in", "PREDS", "--task", "regress", "--classes", "3"],
        ["eval", "--in", "HUGE"],
        ["synth", "--components", "1:2"],
        ["synth", "--components", "a:b:c:d"],
        ["spectra", "--in", "GRID", "--threads", "0"],
        ["spectra", "--in", "GRID", "--threads=-3"],
        ["synth", "--duration", "1", "--channels", "1", "--manifest", "-"],
        ["finetune", "impute", "--in", "-", "--checkpoint", "-", "--pps", "2"],
        ["pretrain", "--in", "-", "-", "--pps", "2"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--steps", "4", "--out", "twice",
         "--trace", "./twice"],
        ["synth", "--duration", "1", "--channels", "1", "--out", "twice", "--manifest", "./twice"],
        ["finetune", "impute", "--in", "GRID", "--pps", "2", "--steps", "4", "--out", "twice",
         "--out-checkpoint", "./twice"],
        ["pretrain", "--in", "GRID", "--pps", "2", "--steps", "4", "--out", "ck.fckp",
         "--trace", "ck.fckp.manifest.json"],
        ["finetune", "classify", "--dataset", "DATASET", "--steps", "4", "--checkpoint-dir", "ckd",
         "--checkpoint-every", "1", "--out-checkpoint", "ckd"],
        ["finetune", "classify", "--dataset", "DATASET", "--steps", "4", "--checkpoint-dir", "ckd",
         "--out", "ckd/final.fckp"],
        ["finetune", "classify", "--dataset", "DATASET", "--steps", "4", "--checkpoint-dir", "x/ck",
         "--checkpoint-every", "1", "--out", "x"],
    ], ids=["classify-no-dataset", "classify-empty-dataset", "forecast-no-in", "impute-no-in",
            "pretrain-no-in", "pps-0", "steps-0", "steps-below-accum", "steps-not-multiple-of-accum",
            "lr-peak-nan", "lr-peak-inf", "lr-peak-negative", "pretrain-out-stdout",
            "pretrain-trace-stdout", "out-checkpoint-stdout", "checkpoint-dir-stdout",
            "classify-head-of-3-classes",
            "forecast-head-of-horizon-2", "band-one-number", "band-not-numbers",
            "target-rate-nan",
            "eval-empty", "eval-header-only-classify", "eval-header-only-regress",
            "eval-one-column", "eval-non-numeric-row", "eval-non-integer-class",
            "eval-nan-regress", "eval-overflow-regress", "eval-classes-0",
            "eval-classes-for-regress", "eval-huge-class",
            "components-two-fields", "components-not-numbers", "threads-0", "threads-negative",
            "manifest-stdout", "impute-stdin-twice", "pretrain-stdin-twice",
            "pretrain-out-is-trace", "synth-out-is-manifest", "impute-out-is-out-checkpoint",
            "pretrain-trace-is-default-manifest", "out-checkpoint-is-checkpoint-dir",
            "out-inside-checkpoint-dir", "out-above-checkpoint-dir"])
    def test_bad_arguments_are_typed_errors_before_any_output(self, tmp_path, args):
        from fome import errors, model
        from fome.preprocess import PatchGrid, grid_to_bytes
        from fome.signal_store import Recording, recording_to_bytes

        inputs = {"GRID": tmp_path / "grid.fegp", "EMPTY": tmp_path / "empty.csv",
                  "HEADER": tmp_path / "header.csv", "ONECOL": tmp_path / "onecol.csv",
                  "NONNUM": tmp_path / "nonnum.csv", "NONINT": tmp_path / "nonint.csv",
                  "PREDS": tmp_path / "preds.csv", "REC": tmp_path / "rec.bin",
                  "HUGE": tmp_path / "huge.csv", "NAN_ROW": tmp_path / "nan.csv",
                  "OVERFLOW": tmp_path / "overflow.csv", "DATASET": tmp_path / "dataset.csv",
                  "LONG_GRID": tmp_path / "long.fegp", "HEAD3": tmp_path / "head3.fckp",
                  "HORIZON2": tmp_path / "horizon2.fckp"}
        write_file(inputs["GRID"], grid_to_bytes(PatchGrid(np.zeros((2, 4, 16)), 16, 250.0)))
        # 35 patches: five (2 + 5)-patch forecast windows, split 3:1:1
        write_file(inputs["LONG_GRID"], grid_to_bytes(PatchGrid(np.zeros((2, 35, 16)), 16, 250.0)))
        inputs["DATASET"].write_text("".join(f"grid.fegp,{i % 2}\n" for i in range(5)))
        # checkpoints of the config both runs fit: a 3-class head, a 2-patch horizon
        tiny = model.preset("tiny", patch_len=16)
        for name, head in (("HEAD3", model.classify_head_shapes(tiny, 3)),
                           ("HORIZON2", model.forecast_head_shapes(tiny, 2, 2))):
            store = model.ParameterStore.initialize(tiny, seed=0)
            store.add(head, seed=1)
            model.save_params(store, inputs[name], tiny)
        inputs["EMPTY"].write_text("")
        inputs["HEADER"].write_text("pred,ref\n")
        inputs["ONECOL"].write_text("1\n0\n")
        inputs["NONNUM"].write_text("pred,ref\n1.5,2\n0.5,x\n")
        inputs["NONINT"].write_text("1.7,1\n0,0\n")
        inputs["PREDS"].write_text("0,0\n1,1\n")
        inputs["HUGE"].write_text("1000000,0\n0,0\n")
        inputs["NAN_ROW"].write_text("1.0,nan\n0,0\n")
        inputs["OVERFLOW"].write_text("1e308,-1e308\n")
        write_file(inputs["REC"], recording_to_bytes(Recording(np.zeros((2, 1000)), 500.0)))
        args = [str(inputs.get(arg, arg)) for arg in args]
        preset = ["--preset", "tiny"] if args[0] in ("pretrain", "finetune") else []
        out = [] if "--out" in args else ["--out", str(tmp_path / "out.bin")]
        # in `tmp_path`, which must hold only the inputs afterwards; stdin
        # holds one grid
        result = run_cli(args + preset + out, inputs["GRID"].read_bytes(), cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        payload = json.loads(result.stderr)
        assert issubclass(getattr(errors, payload["error"]), errors.FomeError), payload
        if "--accum" in args:
            assert payload["error"] == "ConfigError", payload
            assert "multiple of grad_accum" in payload["message"], payload
        if "--classes" in args:
            assert payload["error"] == "ConfigError", payload
            assert "--classes" in payload["message"], payload
        elif args[0] == "eval":
            assert payload["error"] == "DataError", payload
        if str(inputs["NONINT"]) in args or str(inputs["NAN_ROW"]) in args:
            assert "row 1 " in payload["message"], payload
        if str(inputs["OVERFLOW"]) in args:
            assert "overflow float64" in payload["message"], payload
        if any(arg.startswith("--lr-peak") for arg in args):
            assert payload["error"] == "ConfigError", payload
            assert payload["message"].startswith("lr_peak must be finite and > 0"), payload
        heads = {"HEAD3": "'head.cls.w3' has shape (2, 3), but n_classes=2 needs (2, 2)",
                 "HORIZON2": "'head.fcst.w' has shape (16, 32), but context_patches=2, "
                             "horizon_patches=5 needs (16, 80)"}
        for name, message in heads.items():
            if str(inputs[name]) in args:
                assert payload["error"] == "ConfigError", payload
                assert message in payload["message"], payload
        if str(inputs["HUGE"]) in args:
            assert payload["message"].startswith("1000001 classes"), payload
        if "--components" in args:
            assert payload["error"] == "ConfigError", payload
            assert "--components" in payload["message"], payload
            assert "channel:freq_hz:amplitude:phase_rad" in payload["message"], payload
        if any(arg.startswith("--threads") for arg in args):
            assert payload["error"] == "ConfigError", payload
            assert "--threads must be >= 1" in payload["message"], payload
        if args.count("-") > 1:
            stdin = [flag for flag, arg in zip(args, args[1:]) if arg == "-" and flag != "-"]
            assert payload["error"] == "ConfigError", payload
            assert payload["message"].endswith("a run reads stdin once"), payload
            assert all(flag in payload["message"] for flag in stdin), payload
        elif "-" in args:
            flag = args[args.index("-") - 1]
            assert payload == {"error": "ConfigError",
                               "message": f"{flag} needs a file path, not '-'"}, payload
        twice = [flag for flag, arg in zip(args, args[1:]) if arg.endswith("twice")]
        if twice:
            assert payload == {"error": "ConfigError", "message": f"{twice[0]} and {twice[1]} "
                                                                  "both write './twice'"}, payload
        pinned = {"ck.fckp.manifest.json": "--trace and --manifest both write "
                                           "'ck.fckp.manifest.json'",
                  "ckd": "--out-checkpoint and --checkpoint-dir both write 'ckd'",
                  "ckd/final.fckp": "--out 'ckd/final.fckp' is inside --checkpoint-dir 'ckd', "
                                    "which holds the run's checkpoints; give it a dedicated "
                                    "directory",
                  "x": "--out 'x' is above --checkpoint-dir 'x/ck', which holds the run's "
                       "checkpoints; give it a dedicated directory"}
        if args[-1] in pinned:
            assert payload == {"error": "ConfigError", "message": pinned[args[-1]]}, payload
        assert sorted(os.listdir(tmp_path)) == sorted(path.name for path in inputs.values())

    @pytest.mark.parametrize("args, error", [
        (["synth", "--duration", "2", "--out", "MISSING"], "IoError"),
        (["preprocess", "--in", "REC", "--window", "250", "--out", "MISSING"], "IoError"),
        (["spectra", "--in", "GRID", "--out", "MISSING"], "IoError"),
        (["eval", "--in", "PREDS", "--out", "MISSING"], "IoError"),
        (["inspect-checkpoint", "--in", "CKPT", "--out", "MISSING"], "IoError"),
        (["finetune", "classify", "--dataset", "DATASET", "--out", "MISSING"], "IoError"),
        (["synth", "--duration", "2", "--out", "OUT", "--manifest", "MISSING"], "IoError"),
        (["pretrain", "--in", "GRID", "--pps", "2", "--out", "OUT", "--trace", "MISSING"],
         "IoError"),
        (["finetune", "classify", "--dataset", "DATASET", "--checkpoint-dir", "UNDER_FILE",
          "--out", "OUT"], "IoError"),
        (["eval", "--in", "NOT_UTF8"], "FormatError"),
        (["finetune", "classify", "--dataset", "NOT_UTF8"], "FormatError"),
        (["preprocess", "--format", "csv", "--in", "NOT_UTF8"], "FormatError"),
    ], ids=["synth-out", "preprocess-out", "spectra-out", "eval-out", "inspect-out",
            "finetune-out", "manifest", "pretrain-trace", "checkpoint-dir-under-file",
            "eval-not-utf8", "dataset-not-utf8", "csv-recording-not-utf8"])
    def test_file_failures_are_typed_errors(self, tmp_path, args, error):
        from fome.preprocess import PatchGrid, grid_to_bytes
        from fome.signal_store import Recording, recording_to_bytes

        paths = {"MISSING": tmp_path / "no" / "such.out", "OUT": tmp_path / "out.bin",
                 "UNDER_FILE": tmp_path / "preds.csv" / "checkpoints",
                 "NOT_UTF8": tmp_path / "bad.csv", "REC": tmp_path / "rec.feeg",
                 "GRID": tmp_path / "grid.fegp", "PREDS": tmp_path / "preds.csv",
                 "CKPT": tmp_path / "w.fckp", "DATASET": tmp_path / "dataset.csv"}
        write_file(paths["REC"], recording_to_bytes(Recording(np.zeros((2, 1000)), 500.0)))
        patches = np.random.default_rng(0).standard_normal((2, 4, 16))
        write_file(paths["GRID"], grid_to_bytes(PatchGrid(patches, 16, 250.0)))
        paths["PREDS"].write_text("1,1\n0,0\n")
        paths["CKPT"].write_bytes(fckp_bytes({"w": np.ones(3)}))
        paths["DATASET"].write_text("".join(f"grid.fegp,{i % 2}\n" for i in range(5)))
        paths["NOT_UTF8"].write_bytes(b"# rate_hz=250.0\n1,\xff\n")
        train = ["--preset", "tiny", "--steps", "2", "--batch", "1", "--accum", "1"]
        result = run_cli([str(paths.get(arg, arg)) for arg in args]
                         + (train if args[0] in ("pretrain", "finetune") else []))
        assert result.returncode == 1, result.stderr
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1, lines
        payload = json.loads(lines[0])
        assert payload["error"] == error, payload
        culprit = next(paths[arg] for arg in args if arg in ("MISSING", "UNDER_FILE", "NOT_UTF8"))
        assert str(culprit) in payload["message"], payload

    @pytest.mark.parametrize("args, error", [
        (["synth", "--components", "0:8:x:0"], "ConfigError"),
        (["preprocess", "--in", "REC"], "FormatError"),
        (["preprocess", "--in", "CSV_REC", "--format", "csv"], "FormatError"),
        (["spectra", "--in", "GRID"], "FormatError"),
        (["pretrain", "--in", "GRID"], "FormatError"),
        (["pretrain", "--in", "GOOD_GRID", "--pps", "2", "--checkpoint", "CKPT"], "FormatError"),
        (["finetune", "impute", "--in", "GOOD_GRID", "--pps", "2", "--checkpoint", "NAN_CKPT"],
         "DataError"),
        (["finetune", "classify", "--dataset", "DATASET"], "FormatError"),
        (["finetune", "classify", "--dataset", "DATASET_BAD_SPLIT"], "DataError"),
        (["finetune", "classify", "--dataset", "DATASET_MIXED_SPLIT"], "DataError"),
        (["finetune", "classify", "--dataset", "DATASET_MIXED_PATCH_LEN", "--checkpoint-dir",
          "CKDIR", "--checkpoint-every", "1"], "ConfigError"),
        (["finetune", "forecast", "--in", "GRID"], "FormatError"),
        (["finetune", "impute", "--in", "GRID"], "FormatError"),
        (["eval", "--in", "PREDS"], "DataError"),
        (["inspect-checkpoint", "--in", "CKPT"], "FormatError"),
        (["preprocess", "--in", "CSV_REC_NAN_RATE", "--format", "csv"], "DataError"),
        (["preprocess", "--in", "REC_INF_RATE"], "DataError"),
        (["spectra", "--in", "GRID_NAN_RATE"], "DataError"),
        (["spectra", "--in", "GRID_INF_RATE"], "DataError"),
        (["spectra", "--in", "GRID_ZERO_RATE"], "DataError"),
    ], ids=["synth", "preprocess", "preprocess-csv", "spectra", "pretrain",
            "pretrain-checkpoint", "impute-checkpoint-nan", "finetune-classify",
            "dataset-unknown-split", "dataset-mixed-split", "dataset-mixed-patch-length",
            "finetune-forecast", "finetune-impute", "eval", "inspect-checkpoint",
            "csv-recording-nan-rate", "recording-inf-rate", "grid-nan-rate", "grid-inf-rate",
            "grid-zero-rate"])
    def test_corrupt_input_is_one_typed_json_error(self, tmp_path, args, error):
        from fome import model
        from fome.preprocess import PatchGrid, grid_to_bytes
        from fome.signal_store import Recording, recording_to_bytes

        grid = grid_to_bytes(PatchGrid(np.ones((2, 4, 16)), 16, 250.0))
        backbone = model.ParameterStore.initialize(model.preset("tiny", patch_len=16), 0).arrays()
        backbone["embed.pos"][2, 5] = math.nan
        recording = recording_to_bytes(Recording(np.ones((2, 1000)), 500.0))
        inputs = {"REC": recording[: len(recording) // 2],
                  "CSV_REC": b"# rate_hz=500.0\n1.0,2.0\n1.0\n",
                  "GRID": grid[: len(grid) // 2], "GOOD_GRID": grid,
                  "CKPT": fckp_bytes({"w": np.ones(3)})[:-5], "NAN_CKPT": fckp_bytes(backbone),
                  "DATASET": b"grid.fegp,0\ngrid.fegp,1\n",
                  "DATASET_BAD_SPLIT": b"grid.fegp,0,train\ngrid.fegp,1,valid\n",
                  "DATASET_MIXED_SPLIT": b"grid.fegp,0,train\ngrid.fegp,1\n",
                  # train rows of patch length 8, validation and test rows of 16
                  "DATASET_MIXED_PATCH_LEN": b"GRID_L8,0,train\nGRID_L8,1,train\n"
                                             b"GOOD_GRID,0,val\nGOOD_GRID,1,test\n",
                  "GRID_L8": grid_to_bytes(PatchGrid(np.ones((2, 4, 8)), 8, 250.0)),
                  "PREDS": b"1,1\n0,1e999x\n",
                  "CSV_REC_NAN_RATE": b"# rate_hz=nan\nFz\n1.0\n2.0\n",
                  "REC_INF_RATE": struct.pack("<4sBIQd", b"FEEG", 1, 1, 2, math.inf) + bytes(8),
                  **{f"GRID_{name}_RATE": struct.pack("<4sIIId", b"FEGP", 1, 1, 4, rate) + bytes(16)
                     for name, rate in (("NAN", math.nan), ("INF", math.inf), ("ZERO", 0.0))}}
        paths = {name: tmp_path / {"DATASET": "dataset.csv", "GRID": "grid.fegp"}.get(name, name)
                 for name in inputs}
        for name, payload in inputs.items():
            paths[name].write_bytes(payload)
        train = ["--preset", "tiny", "--steps", "2", "--batch", "1", "--accum", "1"]
        out = tmp_path / "out.bin"
        named = {**paths, "CKDIR": tmp_path / "ckdir"}  # a directory no run may leave
        result = run_cli([str(named.get(arg, arg)) for arg in args] + ["--out", str(out)]
                         + (train if args[0] in ("pretrain", "finetune") else []))
        assert result.returncode == 1, result.stderr
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1, lines
        payload = json.loads(lines[0])
        assert payload["error"] == error, lines
        if args[-1].endswith("_SPLIT"):  # the second row, by number and grid path
            assert "row 2 ('grid.fegp')" in payload["message"], payload
        if "DATASET_MIXED_PATCH_LEN" in args:
            assert "patch lengths [8, 16]" in payload["message"], payload
        if "NAN_CKPT" in args:
            assert "tensor 'embed.pos' holds a non-finite value" in payload["message"], payload
        assert sorted(os.listdir(tmp_path)) == sorted(path.name for path in paths.values())

    def test_huge_class_count_refused_before_training(self, tmp_path):
        dataset = write_classify_dataset(tmp_path, seed=10)
        before = sorted(os.listdir(tmp_path))
        result = run_cli([
            "finetune", "classify", "--dataset", str(dataset), "--classes", "100000",
            "--steps", "40", "--batch", "1", "--accum", "1", "--preset", "tiny",
            "--out", str(tmp_path / "metrics.json"),
            "--checkpoint-dir", str(tmp_path / "ckdir"),
        ])
        assert result.returncode == 1, result.stderr
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1, lines
        payload = json.loads(lines[0])
        assert payload["error"] == "DataError" and "100000" in payload["message"], payload
        assert sorted(os.listdir(tmp_path)) == before

    def test_nyquist_violation_from_module(self):
        result = run_cli(["synth", "--channels", "1", "--rate", "40",
                          "--components", "0:30:1:0"])
        assert result.returncode == 1
        payload = json.loads(result.stderr)
        assert payload["error"] == "SpecError"

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_a_spec_error_naming_it(self, noise):
        result = run_cli(["synth", "--channels", "1", "--duration", "1", "--noise", noise])
        assert result.returncode == 1 and result.stdout == b""
        payload = json.loads(result.stderr)
        assert payload["error"] == "SpecError" and "noise_std" in payload["message"], payload


class TestFinetuneCommand:
    def test_classify_via_manifest(self, tmp_path):
        from fome.preprocess import PatchGrid, grid_to_bytes
        from fome.rng import Rng

        gen = Rng(5)
        rows = []
        for i in range(10):
            label = i % 2
            freq = 8.0 if label == 0 else 55.0
            t = np.arange(4 * 16) / 250.0
            x = np.sin(2 * np.pi * freq * t + float(gen.uniforms(1)[0]))
            grid = PatchGrid(np.stack([x, 0.5 * x]).reshape(2, 4, 16), 16, 250.0)
            name = f"g{i}.fegp"
            write_file(tmp_path / name, grid_to_bytes(grid))
            rows.append(f"{name},{label}")
        manifest_csv = tmp_path / "dataset.csv"
        manifest_csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "metrics.json"
        result = run_cli([
            "finetune", "classify", "--dataset", str(manifest_csv),
            "--classes", "2", "--steps", "4", "--batch", "2", "--accum", "2",
            "--lr-peak", "1e-3", "--preset", "tiny", "--out", str(out),
        ])
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["task"] == "classification"
        assert "accuracy" in report

    def test_classify_manifest_split_column(self, tmp_path):
        from fome.preprocess import PatchGrid, grid_to_bytes
        from fome.rng import Rng

        gen = Rng(6)
        rows = []
        splits = ["train"] * 6 + ["val"] * 2 + ["test"] * 2
        for i in range(10):
            label = i % 2
            freq = 8.0 if label == 0 else 55.0
            t = np.arange(4 * 16) / 250.0
            x = np.sin(2 * np.pi * freq * t + float(gen.uniforms(1)[0]))
            grid = PatchGrid(np.stack([x, 0.5 * x]).reshape(2, 4, 16), 16, 250.0)
            name = f"g{i}.fegp"
            write_file(tmp_path / name, grid_to_bytes(grid))
            rows.append(f"{name},{label},{splits[i]}")
        manifest_csv = tmp_path / "dataset.csv"
        manifest_csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "metrics.json"
        result = run_cli([
            "finetune", "classify", "--dataset", str(manifest_csv),
            "--classes", "2", "--steps", "2", "--batch", "2", "--accum", "1",
            "--lr-peak", "1e-3", "--preset", "tiny", "--out", str(out),
        ])
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        # explicit test block has 2 samples
        assert int(np.sum(report["confusion"])) == 2

    @pytest.mark.parametrize("first", [4, 20], ids=["short-first", "long-first"])
    def test_max_patches_fits_the_longest_sample_in_any_row_order(self, tmp_path, first):
        # the tiny preset's max_patches is 16
        from fome.preprocess import PatchGrid, grid_to_bytes

        gen = np.random.default_rng(12)
        order = [first, 24 - first] * 4
        rows = []
        for i, patches in enumerate(order):
            grid = PatchGrid(gen.standard_normal((2, patches, 16)), 16, 250.0)
            write_file(tmp_path / f"g{i}.fegp", grid_to_bytes(grid))
            rows.append(f"g{i}.fegp,{i % 2}")
        (tmp_path / "dataset.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "metrics.json"
        result = run_cli([
            "finetune", "classify", "--dataset", str(tmp_path / "dataset.csv"),
            "--classes", "2", "--steps", "2", "--batch", "2", "--accum", "1",
            "--preset", "tiny", "--out", str(out),
        ])
        assert result.returncode == 0, result.stderr
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert manifest["config"]["model"]["max_patches"] == 20


class TestSchedule:
    def test_impute_steps_on_the_rates_of_pretrain(self, tmp_path, monkeypatch):
        from fome import trainer
        from fome.preprocess import PatchGrid, grid_to_bytes

        lrs = []
        original = trainer.AdamW.step

        def recording(self, lr):
            lrs.append(lr)
            return original(self, lr)

        monkeypatch.setattr(trainer.AdamW, "step", recording)
        grid = tmp_path / "grid.fegp"
        patches = np.random.default_rng(3).standard_normal((2, 24, 16))
        write_file(grid, grid_to_bytes(PatchGrid(patches, 16, 250.0)))
        recipe = ["--in", str(grid), "--pps", "3", "--steps", "8", "--batch", "2", "--accum", "4",
                  "--lr-peak", "3e-3", "--preset", "tiny"]
        seen = {}
        for command, out in ((["pretrain"], "ck.fckp"), (["finetune", "impute"], "imp.json")):
            lrs.clear()
            assert cli.main(command + recipe + ["--out", str(tmp_path / out)]) == 0
            seen[out] = list(lrs)
        # the requested recipe's schedule fitted to --steps
        requested = trainer.TrainConfig(batch_size=2, grad_accum=4, lr_init=3e-3 / 25.0,
                                        lr_peak=3e-3, lr_final=3e-3 / 10_000.0)
        fitted = trainer.scale_schedule(requested, 8)
        assert seen["ck.fckp"] == seen["imp.json"] == [trainer.lr_at(s, fitted) for s in (4, 8)]
        trace = (tmp_path / "ck.fckp.trace.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in trace[3::4]] == seen["ck.fckp"]
        # both manifests record the requested recipe
        for out in seen:
            manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
            assert manifest["config"]["train"] == asdict(requested), out


# fine-tuning recipe of the checkpoint cases: 3-patch windows, two steps
RECIPE = ["--pps", "3", "--steps", "2", "--batch", "2", "--accum", "1"]


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Grids of 3 channels and two checkpoints pretrained on 500-sample,
    15-patch grids (30 s at 250 Hz): one with --scale dk and one with
    --ablate conv-embed.  Returns the directory."""
    from fome.preprocess import PatchGrid, grid_to_bytes
    from fome.rng import Rng

    directory = tmp_path_factory.mktemp("checkpoints")
    gen = Rng(21)
    # 30 s at 250 Hz cut with --window 500 and with --window 250, and 60 s
    # cut with --window 500
    for name, patches, length in (("g500", 15, 500), ("g250", 30, 250), ("g60", 30, 500)):
        grid = PatchGrid(gen.normals(3 * patches * length).reshape(3, patches, length),
                         length, 250.0)
        write_file(directory / f"{name}.fegp", grid_to_bytes(grid))
    for name, flags in (("dk", ["--scale", "dk"]), ("conv", ["--ablate", "conv-embed"])):
        result = run_cli(["pretrain", "--in", str(directory / "g500.fegp"), *RECIPE, *flags,
                          "--out", str(directory / f"{name}.fckp")])
        assert result.returncode == 0, result.stderr
    return directory


class TestCheckpointConfig:
    """A checkpoint's config record fixes the fine-tuned architecture."""

    @pytest.mark.parametrize("checkpoint, grid, flags, expect", [
        ("dk", "g500", [], {"attn_scale": "dk"}),
        ("dk", "g500", ["--preset", "tiny", "--scale", "dk"], {"attn_scale": "dk"}),
        ("dk", "g500", ["--scale", "d"], ["attn_scale='dk' where the run has 'd'"]),
        ("dk", "g500", ["--scale", "dk", "--ablate", "temporal"],
         ["temporal_layers=1 where the run has 0"]),
        ("conv", "g500", [], {"conv_embed": True, "conv_kernel": 4, "attn_scale": "d"}),
        ("dk", "g250", [], ["patch_len=500 where the run has 250"]),
        ("dk", "g60", ["--pps", "20"], ["max_patches=16 where the run has 20"]),
        ("dk", "g500", ["--preset", "base"], ["model_dim=8 where the run has 2048"]),
    ], ids=["scale-from-record", "agreeing-flags", "scale-contradicts", "ablation-contradicts",
            "conv-embed-from-record", "patch-len-contradicts", "sample-over-max-patches",
            "preset-contradicts"])
    def test_record_fixes_the_architecture(self, checkpoints, tmp_path, checkpoint, grid,
                                           flags, expect):
        out = tmp_path / "impute.json"
        result = run_cli(["finetune", "impute", "--in", str(checkpoints / f"{grid}.fegp"),
                          "--checkpoint", str(checkpoints / f"{checkpoint}.fckp"), *RECIPE,
                          *flags, "--out", str(out)])
        if isinstance(expect, dict):
            assert result.returncode == 0, result.stderr
            model_cfg = json.loads(out.with_suffix(".json.manifest.json").read_text())
            for name, value in expect.items():
                assert model_cfg["config"]["model"][name] == value, name
            return
        assert result.returncode == 1, result.stderr
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1, lines
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError", payload
        assert payload["message"].startswith(f"{checkpoints / checkpoint}.fckp records ")
        for part in expect:
            assert part in payload["message"], payload
        assert os.listdir(tmp_path) == []

    def test_pretrain_writes_no_sidecar(self, checkpoints):
        assert not [name for name in os.listdir(checkpoints) if name.endswith(".config")]
        manifest = json.loads((checkpoints / "dk.fckp.manifest.json").read_text())
        assert sorted(by_name(manifest["outputs"])) == ["dk.fckp", "dk.fckp.trace.csv"]

    def test_inspect_shows_the_recorded_config(self, checkpoints):
        from fome.model import ModelConfig

        manifest = json.loads((checkpoints / "dk.fckp.manifest.json").read_text())
        recorded = manifest["config"]["model"]
        listing = run_cli(["inspect-checkpoint", "--in", str(checkpoints / "dk.fckp"), "--json"])
        assert listing.returncode == 0, listing.stderr
        assert json.loads(listing.stdout)["config"] == recorded
        text = run_cli(["inspect-checkpoint", "--in", str(checkpoints / "dk.fckp")])
        assert text.returncode == 0, text.stderr
        cfg = ModelConfig(**recorded)
        assert text.stdout.decode().splitlines()[0] == "config " + " ".join(
            f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg))

    def test_file_without_a_record_reads_as_before(self, checkpoints, tmp_path):
        from fome import model

        # the layout of a checkpoint written before the config record
        cfg = model.preset("tiny", patch_len=500)
        store = model.ParameterStore.initialize(cfg, seed=5)
        store.add(model.reconstruct_head_shapes(cfg), seed=6)
        path = tmp_path / "old.fckp"
        path.write_bytes(fckp_bytes(store.arrays()))
        model.save_params(store, tmp_path / "two-args.fckp")
        assert (tmp_path / "two-args.fckp").read_bytes() == path.read_bytes()
        listing = run_cli(["inspect-checkpoint", "--in", str(path), "--json"])
        assert listing.returncode == 0, listing.stderr
        assert json.loads(listing.stdout) == {k: list(v.shape) for k, v in store.items()}
        text = run_cli(["inspect-checkpoint", "--in", str(path)]).stdout.decode().splitlines()
        scalars = sum(v.size for v in store.arrays().values())
        assert text[0].startswith("embed.patch.w ")
        assert text[-1] == f"32 tensors, {scalars} scalars"
        back = model.load_params(path, cfg)
        assert {k: v.tobytes() for k, v in back.arrays().items()} == {
            k: v.tobytes() for k, v in store.arrays().items()}
        # the flags fix the architecture, as before
        out = tmp_path / "impute.json"
        result = run_cli(["finetune", "impute", "--in", str(checkpoints / "g500.fegp"),
                          "--checkpoint", str(path), *RECIPE, "--scale", "dk",
                          "--out", str(out)])
        assert result.returncode == 0, result.stderr
        manifest = json.loads(out.with_suffix(".json.manifest.json").read_text())
        assert manifest["config"]["model"]["attn_scale"] == "dk"


class TestCheckpointEvery:
    def run(self, tmp_path, every):
        dataset = write_classify_dataset(tmp_path, seed=9)
        return run_cli([
            "finetune", "classify", "--dataset", str(dataset),
            "--checkpoint-dir", str(tmp_path / "ckdir"), "--checkpoint-every", str(every),
            "--classes", "2", "--steps", "4", "--batch", "1", "--accum", "1",
            "--lr-peak", "1e-3", "--preset", "tiny", "--out", str(tmp_path / "metrics.json"),
        ])

    def test_cadence_checkpoints_listed_in_manifest(self, tmp_path):
        result = self.run(tmp_path, 2)
        assert result.returncode == 0, result.stderr
        ckdir = tmp_path / "ckdir"
        names = ("step-000002.fckp", "step-000004.fckp", "best-validation.fckp", "final.fckp")
        assert sorted(os.listdir(ckdir)) == sorted(names)
        manifest = json.loads((tmp_path / "metrics.json.manifest.json").read_text())
        assert set(manifest["outputs"]) == {str(tmp_path / "metrics.json")} | {
            f"{ckdir}/{name}" for name in names}

    def test_cadence_below_one_is_config_error(self, tmp_path):
        result = self.run(tmp_path, 0)
        assert result.returncode == 1, result.stderr
        payload = json.loads(result.stderr)
        assert payload["error"] == "ConfigError", payload
        assert "checkpoint_every" in payload["message"], payload
        assert not (tmp_path / "ckdir").exists()


class TestThreads:
    def test_explicit_flag_overrides_environment(self, monkeypatch):
        from fome.cli import _THREAD_VARS, _apply_threads

        for var in _THREAD_VARS:
            monkeypatch.setenv(var, "4")
        parse = cli.build_parser().parse_args
        _apply_threads(parse(["synth"]).threads)
        assert all(os.environ[var] == "4" for var in _THREAD_VARS)
        _apply_threads(parse(["synth", "--threads", "1"]).threads)
        assert all(os.environ[var] == "1" for var in _THREAD_VARS)
        _apply_threads(parse(["synth", "--threads=2"]).threads)
        assert all(os.environ[var] == "2" for var in _THREAD_VARS)

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_refused_before_any_variable_is_set(self, monkeypatch, tmp_path,
                                                                  capsys, count):
        # OpenBLAS reads 0 or a negative count as every core
        from fome.cli import _THREAD_VARS

        for var in _THREAD_VARS:
            monkeypatch.setenv(var, "4")
        out = tmp_path / "rec.feeg"
        assert cli.main(["synth", "--threads", count, "--duration", "1", "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ConfigError", "message": f"--threads must be >= 1, got {count}"}
        assert all(os.environ[var] == "4" for var in _THREAD_VARS)
        assert os.listdir(tmp_path) == []
