import contextlib
import dataclasses
import errno
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from unlearnlab.cli import (
    EXIT_CONFIG,
    EXIT_FORMAT,
    EXIT_MISSING_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    _DEFAULTS,
    _parse_value,
    format_config,
    main,
    resolve_config,
)
from unlearnlab import cli, evalsuite, unlearn
from unlearnlab.datagen import load_dataset, load_splits
from unlearnlab.evalsuite import forgetting_score
from unlearnlab.persist import load_encoder, save_encoder, write_feature_dump


TINY = [
    "seed=5",
    "data.clusters=3",
    "data.dim=6",
    "data.count=120",
    "data.separation=6",
    "arch=6,16,4",
    "split.test_fraction=0.15",
    "pretrain.epochs=2",
    "pretrain.batch_size=32",
    "unlearn.epochs=1",
    "unlearn.retain_batch=32",
    "unlearn.unlearn_batch=8",
    "probe.epochs=5",
]

# TINY with the 6-8-4 encoder it had before training checked the norm floor:
# a view of its first pretrain step has every hidden unit dead, so its output
# row is the zero last bias, whose gradient is scaled by 1e12.
TINY_DEAD_VIEW = [("arch=6,8,4" if line.startswith("arch=") else line) for line in TINY]


# Keys read by the dataclass of a config section, and the two keys not
# named after their field.
_SECTION_KEYS = [k for k in _DEFAULTS if k.partition(".")[0] in ("aug", "pretrain", "unlearn",
                                                                  "probe")]
_RENAMED = {"pretrain.lr": "base_lr", "unlearn.scale": "unlearn_scale"}


def tiny_cfg(tmp_path) -> str:
    p = tmp_path / "tiny.cfg"
    p.write_text("\n".join(TINY) + "\n")
    return str(p)


def run_pipeline(tmp_path, out: Path, cfg: str) -> None:
    for cmd in ("gen-data", "split", "pretrain", "retrain", "unlearn"):
        assert main([cmd, "--config", cfg, "--out", str(out)]) == EXIT_OK


class TestConfig:
    def test_defaults_then_file_then_overrides(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed=3\n# comment line\n\npretrain.epochs=7\n")
        cfg = resolve_config(str(p), ["seed=9"], None)
        assert cfg["seed"] == 9
        assert cfg["pretrain.epochs"] == 7
        assert cfg["pretrain.lr"] == 0.06  # untouched default

    def test_unknown_key_rejected(self, tmp_path, capsys):
        rc = main(["gen-data", "--set", "bogus.key=1", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path):
        rc = main(["gen-data", "--set", "data.count=abc", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_unknown_key_in_file_reports_line(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("seed=1\nnope=2\n")
        rc = main(["gen-data", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert ":2:" in capsys.readouterr().err

    def test_snapshot_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.delenv("UNLEARNLAB_OUT", raising=False)
        out = tmp_path / "run"
        assert main(["gen-data", "--set", "data.count=50", "--set", "data.dim=4",
                     "--set", "arch=4,4", "--out", str(out)]) == EXIT_OK
        snap = out / "config.gen-data.txt"
        assert snap.exists()
        cfg = resolve_config(str(snap), [], None)
        assert cfg["data.count"] == 50
        assert format_config(cfg) == snap.read_text()

    def test_readme_table_lists_every_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
        shown = {}
        for line in table.splitlines():
            cells = line.split("|")
            if len(cells) < 4:
                continue
            for key, text in re.findall(r"`([^`=]+)=([^`]*)`", cells[2]):
                assert key not in shown, key
                shown[key] = text
        assert sorted(shown) == sorted(_DEFAULTS)
        for key, text in shown.items():
            assert _parse_value(key, text) == _DEFAULTS[key], key

    @pytest.mark.parametrize("line", ["unlearn.scale=nan", "pretrain.temperature=inf",
                                      "aug.noise_sigma=-inf", "sweep.forget_weights=0,nan"])
    def test_non_finite_value_in_file_reports_line(self, tmp_path, capsys, line):
        p = tmp_path / "c.cfg"
        p.write_text("seed=1\n" + line + "\n")
        rc = main(["gen-data", "--config", str(p), "--out", str(tmp_path / "run")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{p}:2: {line.partition('=')[0]}: expected a finite number" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", _SECTION_KEYS)
    def test_key_reaches_its_field(self, key):
        """A valid non-default value of each section key changes exactly
        its own field of the built dataclasses."""
        default = _DEFAULTS[key]
        if isinstance(default, bool):
            text, value = str(not default), not default
        elif isinstance(default, (int, float)):
            value = default + (1 if isinstance(default, int) else 0.01)
            text = repr(value)
        else:
            text, value = {"unlearn.method": ("neggrad", "neggrad"),
                           "unlearn.scale": ("0.5", 0.5)}[key]
        built = lambda sets: {prefix: dataclasses.asdict(cli._config(resolve_config(None, sets),
                                                                        prefix))
                              for prefix in ("aug", "pretrain", "unlearn", "probe")}
        base, changed = built([]), built([f"{key}={text}"])
        diffs = [(prefix, name) for prefix in base for name in base[prefix]
                 if base[prefix][name] != changed[prefix][name]]
        prefix, _, name = key.partition(".")
        assert diffs == [(prefix, _RENAMED.get(key, name))]
        assert changed[prefix][_RENAMED.get(key, name)] == value

    @pytest.mark.parametrize("grid", ["4,4.0000001,0", "0,8,0"])
    def test_sweep_grid_labels_must_differ(self, tmp_path, capsys, grid):
        # two cells with one %g label would share a directory and a column
        out = tmp_path / "out"
        rc = main(["sweep", "--out", str(out), "--set", f"sweep.forget_weights={grid}"])
        assert rc == EXIT_CONFIG
        assert "sweep.forget_weights: grid values need distinct %g labels" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_env_var_sets_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNLEARNLAB_OUT", str(tmp_path / "envout"))
        assert main(["gen-data", "--set", "data.count=40", "--set", "data.dim=4"]) == EXIT_OK
        assert (tmp_path / "envout" / "dataset.csv").exists()


class TestExitCodes:
    def test_missing_dataset(self, tmp_path, capsys):
        rc = main(["split", "--out", str(tmp_path)])
        assert rc == EXIT_MISSING_INPUT
        assert "missing dataset" in capsys.readouterr().err

    def test_corrupt_checkpoint(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["split", "--config", cfg, "--out", str(out)]) == EXIT_OK
        (out / "encoder.bin").write_bytes(b"JUNKJUNKJUNK")
        rc = main(["unlearn", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_FORMAT

    def test_out_of_range_dataset_id(self, tmp_path, capsys):
        data = tmp_path / "dataset.csv"
        data.write_text("id,label,dim0\n0,0,0.5\n99999999999999999999,1,0.5\n")
        rc = main(["split", "--data", str(data), "--out", str(tmp_path / "run")])
        assert rc == EXIT_FORMAT
        assert f"{data}:3:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_divergence(self, tmp_path, capsys):
        cfg = tiny_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["split", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rc = main(["pretrain", "--config", cfg, "--out", str(out),
                   "--set", "pretrain.lr=1e30"])
        assert rc == EXIT_NUMERIC

    def test_dead_view_config_exits_numeric_at_first_step(self, tmp_path, capsys):
        cfg = tmp_path / "dead.cfg"
        cfg.write_text("\n".join(TINY_DEAD_VIEW) + "\n")
        out = tmp_path / "run"
        for cmd in ("gen-data", "split"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err.strip()
        assert "below the training floor" in err and err.endswith("at epoch 0 step 0")
        assert not (out / "encoder.bin").exists()

    def test_method_retrain_redirected(self, tmp_path, capsys):
        cfg = tiny_cfg(tmp_path)
        out = tmp_path / "run"
        for cmd in ("gen-data", "split", "pretrain"):
            assert main([cmd, "--config", cfg, "--out", str(out)]) == EXIT_OK
        rc = main(["unlearn", "--config", cfg, "--out", str(out),
                   "--set", "unlearn.method=retrain"])
        assert rc == EXIT_CONFIG
        assert "retrain subcommand" in capsys.readouterr().err


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A tiny run's config, dataset, splits and checkpoints, shared read-only."""
    root = tmp_path_factory.mktemp("eval_inputs")
    cfg = tiny_cfg(root)
    run_pipeline(root, root / "run", cfg)
    return cfg, root / "run"


def stage_argv(command, cfg, run, out, **paths):
    argv = [command, "--config", cfg, "--out", str(out),
            "--data", str(run / "dataset.csv"), "--splits", str(run / "splits.csv")]
    for flag, path in paths.items():
        argv += [f"--{flag}", str(path)]
    return argv


def eval_argv(cfg, run, out, **paths):
    paths = {"candidate": run / "unlearned.bin", "before": run / "encoder.bin", **paths}
    return stage_argv("eval", cfg, run, out, **paths)


def audit_argv(cfg, run, out, **paths):
    paths = {"before": run / "encoder.bin", "after": run / "unlearned.bin", **paths}
    return stage_argv("audit", cfg, run, out, **paths)


def collapsed(run, path: Path) -> Path:
    """The run's unlearned encoder with its last layer zeroed: every output
    row is under the norm floor."""
    net = load_encoder(run / "unlearned.bin")
    net.layers[-1].w[:] = 0.0
    net.layers[-1].b[:] = 0.0
    path.parent.mkdir(exist_ok=True)
    save_encoder(net, path)
    return path


class TestEvalExitCodes:
    def test_unknown_set_key(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        rc = main(eval_argv(cfg, run, tmp_path) + ["--set", "probe.no_such_key=1"])
        assert rc == EXIT_CONFIG
        assert "probe.no_such_key" in capsys.readouterr().err

    def test_missing_reference(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        rc = main(eval_argv(cfg, run, tmp_path, reference=tmp_path / "absent.bin"))
        assert rc == EXIT_MISSING_INPUT
        assert "missing reference checkpoint" in capsys.readouterr().err

    def test_truncated_candidate(self, eval_inputs, tmp_path):
        cfg, run = eval_inputs
        blob = (run / "unlearned.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[:len(blob) // 2])
        assert main(eval_argv(cfg, run, tmp_path, candidate=tmp_path / "cut.bin")) == EXIT_FORMAT

    def test_nan_weight_in_candidate(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        net = load_encoder(run / "unlearned.bin")
        net.layers[0].w[0, 0] = np.nan
        save_encoder(net, tmp_path / "nan.bin")
        assert main(eval_argv(cfg, run, tmp_path, candidate=tmp_path / "nan.bin")) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    def test_collapsed_candidate(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        cand = collapsed(run, tmp_path / "collapsed.bin")
        assert main(eval_argv(cfg, run, tmp_path, candidate=cand)) == EXIT_NUMERIC
        assert "below the training floor" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()


class TestAuditExitCodes:
    """Checkpoint-mode audit; a failed call leaves only its config snapshot."""

    @staticmethod
    def _written(out):
        return sorted(p.name for p in out.iterdir())

    def test_unknown_set_key(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        rc = main(audit_argv(cfg, run, tmp_path) + ["--set", "aug.no_such_key=1"])
        assert rc == EXIT_CONFIG
        assert "aug.no_such_key" in capsys.readouterr().err

    def test_missing_after(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        rc = main(audit_argv(cfg, run, tmp_path, after=tmp_path / "absent.bin"))
        assert rc == EXIT_MISSING_INPUT
        assert "missing unlearned checkpoint" in capsys.readouterr().err
        assert self._written(tmp_path) == ["config.audit.txt"]

    def test_truncated_before(self, eval_inputs, tmp_path):
        cfg, run = eval_inputs
        blob = (run / "encoder.bin").read_bytes()
        cut = tmp_path / "in" / "cut.bin"
        cut.parent.mkdir()
        cut.write_bytes(blob[:len(blob) // 2])
        out = tmp_path / "out"
        assert main(audit_argv(cfg, run, out, before=cut)) == EXIT_FORMAT
        assert self._written(out) == ["config.audit.txt"]

    def test_nan_weight_in_after(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        net = load_encoder(run / "unlearned.bin")
        net.layers[0].w[0, 0] = np.nan
        nan = tmp_path / "in" / "nan.bin"
        nan.parent.mkdir()
        save_encoder(net, nan)
        out = tmp_path / "out"
        assert main(audit_argv(cfg, run, out, after=nan)) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        # no feature dump, agm.* or audit.txt: the before dumps are not written first
        assert self._written(out) == ["config.audit.txt"]

    def test_collapsed_after(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        out = tmp_path / "out"
        after = collapsed(run, tmp_path / "in" / "collapsed.bin")
        assert main(audit_argv(cfg, run, out, after=after)) == EXIT_NUMERIC
        assert "below the training floor" in capsys.readouterr().err
        assert self._written(out) == ["config.audit.txt"]


def probe_argv(cfg, run, out, **paths):
    return stage_argv("probe", cfg, run, out, **{"encoder": run / "unlearned.bin", **paths})


class TestProbeExitCodes:
    def test_unknown_set_key(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        rc = main(probe_argv(cfg, run, tmp_path) + ["--set", "probe.no_such_key=1"])
        assert rc == EXIT_CONFIG
        assert "probe.no_such_key" in capsys.readouterr().err

    def test_missing_encoder(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        rc = main(probe_argv(cfg, run, tmp_path, encoder=tmp_path / "absent.bin"))
        assert rc == EXIT_MISSING_INPUT
        assert "missing encoder checkpoint" in capsys.readouterr().err

    def test_truncated_encoder(self, eval_inputs, tmp_path):
        cfg, run = eval_inputs
        blob = (run / "unlearned.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[:len(blob) // 2])
        assert main(probe_argv(cfg, run, tmp_path, encoder=tmp_path / "cut.bin")) == EXIT_FORMAT

    def test_nan_weight_in_encoder(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        net = load_encoder(run / "unlearned.bin")
        net.layers[0].w[0, 0] = np.nan
        save_encoder(net, tmp_path / "nan.bin")
        assert main(probe_argv(cfg, run, tmp_path, encoder=tmp_path / "nan.bin")) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "probe.txt").exists()

    def test_collapsed_encoder(self, eval_inputs, tmp_path, capsys):
        cfg, run = eval_inputs
        enc = collapsed(run, tmp_path / "collapsed.bin")
        assert main(probe_argv(cfg, run, tmp_path, encoder=enc)) == EXIT_NUMERIC
        assert "below the training floor" in capsys.readouterr().err
        assert not (tmp_path / "probe.txt").exists()


_DIVERGING_METHODS = ("finetune", "gradascent", "neggrad", "l1sparsity")
_NON_FINITE = ("unlearn.lr=nan", "unlearn.l1_coeff=nan", "unlearn.scale=nan",
               "unlearn.forget_weight=nan", "pretrain.temperature=inf")
# --set values of the faults that are config values
_FAULT_SETS = {
    "image_mode": ["aug.image_mode=true"],
    "bogus_method": ["unlearn.method=bogus"],
    "zero_epoch_momentum": ["unlearn.epochs=0", "unlearn.momentum=1.0"],
    **{f"lr_{m}": ["unlearn.lr=1e300", f"unlearn.method={m}", "unlearn.l1_coeff=1e-3"]
       for m in _DIVERGING_METHODS},
    **{kv: [kv] for kv in _NON_FINITE},
}

_TRAINING_FAULTS = [
    *[(cmd, fault, code) for cmd in ("pretrain", "retrain", "unlearn") for fault, code in (
        ("image_mode", EXIT_CONFIG), ("missing_splits", EXIT_MISSING_INPUT),
        ("repeated_id", EXIT_FORMAT), ("unknown_id", EXIT_FORMAT))],
    ("retrain", "lr", EXIT_NUMERIC),
    ("unlearn", "lr", EXIT_NUMERIC),
    *[("unlearn", f"lr_{m}", EXIT_NUMERIC) for m in _DIVERGING_METHODS],
    ("unlearn", "bogus_method", EXIT_CONFIG),
    ("unlearn", "zero_epoch_momentum", EXIT_CONFIG),
    *[(kv.partition(".")[0], kv, EXIT_CONFIG) for kv in _NON_FINITE],
]


class TestTrainingExitCodes:
    """pretrain, retrain and unlearn (every method); a failed call leaves
    only its config snapshot, and a value rejected as it is read stops the
    call before it writes anything."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,fault,code", _TRAINING_FAULTS)
    def test_exit_code(self, eval_inputs, tmp_path, capsys, command, fault, code):
        cfg, run = eval_inputs
        inputs = tmp_path / "in"
        inputs.mkdir()
        paths = {"encoder": run / "encoder.bin"} if command == "unlearn" else {}
        sets = _FAULT_SETS.get(fault, [])
        if fault == "missing_splits":
            paths["splits"] = inputs / "absent.csv"
        elif fault == "lr":
            sets = [f"{'pretrain' if command == 'retrain' else 'unlearn'}.lr=1e300"]
        elif fault in ("repeated_id", "unknown_id"):
            # the run's splits plus a repeated id, or an id the dataset lacks
            lines = (run / "splits.csv").read_text().splitlines()
            lines.append(lines[1] if fault == "repeated_id" else "999999,test")
            paths["splits"] = inputs / "splits.csv"
            paths["splits"].write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = stage_argv(command, cfg, run, out, **paths)
        assert main(argv + [a for kv in sets for a in ("--set", kv)]) == code
        err = capsys.readouterr().err
        if fault in _NON_FINITE:
            assert not out.exists()
            assert f"{fault.partition('=')[0]}: expected a finite number" in err
        else:
            assert sorted(p.name for p in out.iterdir()) == [f"config.{command}.txt"]
        if code == EXIT_FORMAT:
            assert str(paths["splits"]) in err
            assert ("repeats line" if fault == "repeated_id" else "split id 999999") in err


def _put(path: Path, content) -> Path:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


_CIFAR_PIXELS = bytes(3072)


def _stage_fault(fault, cfg, run, inp, out):
    """argv of one failing call, and the file or key its error must name."""
    gen = ["gen-data", "--out", str(out), "--set"]
    sweep = stage_argv("sweep", cfg, run, out, encoder=run / "encoder.bin",
                       reference=run / "retrain.bin")
    report = ["report", "--out", str(out), "--reference", str(_put(inp / "ref.txt", "ra=1\n"))]
    dump = inp / "x.csv"
    write_feature_dump(dump, [0, 1], np.eye(2))
    audit = ["audit", "--out", str(out), "--before-y", str(dump), "--after-x", str(dump),
             "--after-y", str(dump), "--before-x"]
    ttest = ["ttest", "--mean-a", "0", "--mean-b", "1", "--std-b", "1", "--n-b", "5"]
    if fault == "bogus_source":
        return gen + ["data.source=bogus"], "data.source"
    if fault == "cifar_without_path":
        return gen + ["data.source=cifar10"], "data.path"
    if fault.startswith("cifar_"):
        path = inp / "batch.bin"
        if fault == "cifar_bad_size":
            _put(path, b"\0" + _CIFAR_PIXELS[1:])
        elif fault == "cifar_bad_label":
            _put(path, b"\0" + _CIFAR_PIXELS + b"\x0a" + _CIFAR_PIXELS)
        return gen + ["data.source=cifar10", "--set", f"data.path={path}"], str(path)
    if fault == "negative_seed":
        return gen + ["seed=-1"], "seed: expected a non-negative integer, got '-1'"
    if fault == "negative_seed_in_file":
        path = _put(inp / "seed.cfg", "data.count=40\nseed=-3\n")
        return (["gen-data", "--out", str(out), "--config", str(path)],
                f"{path}:2: seed: expected a non-negative integer")
    if fault == "zero_unlearn_fraction":
        return (["split", "--out", str(out), "--data", str(run / "dataset.csv"),
                 "--set", "split.unlearn_fraction=0"],
                "split.unlearn_fraction must be in (0, 1)")
    if fault == "empty_grid":
        return sweep + ["--set", "sweep.forget_weights=,"], "sweep.forget_weights"
    if fault == "duplicate_grid":
        text = Path(cfg).read_text() + "sweep.forget_weights=4,4.0000001,0\n"
        path = _put(inp / "dup.cfg", text)
        sweep[sweep.index(cfg)] = str(path)
        return sweep, f"{path}:{len(text.splitlines())}: sweep.forget_weights"
    if fault == "missing_retrain":
        path = inp / "retrain.bin"
        return sweep[:-1] + [str(path)], str(path)
    if fault == "truncated_encoder":
        blob = (run / "encoder.bin").read_bytes()
        path = _put(inp / "encoder.bin", blob[:len(blob) // 2])
        return stage_argv("sweep", cfg, run, out, encoder=path,
                          reference=run / "retrain.bin"), str(path)
    if fault == "sweep_lr":
        return sweep + ["--set", "unlearn.lr=1e300"], "non-finite"
    if fault == "collapsed_retrain":
        return sweep[:-1] + [str(collapsed(run, inp / "retrain.bin"))], "below the training floor"
    if fault == "no_test_split":
        assert main(["split", "--config", cfg, "--out", str(inp), "--data",
                     str(run / "dataset.csv"), "--set", "split.test_fraction=0"]) == EXIT_OK
        return (sweep + ["--splits", str(inp / "splits.csv")],
                "membership inference needs a test split")
    if fault == "missing_report":
        path = inp / "absent.txt"
        return report + ["--candidate", str(path)], str(path)
    if fault.startswith("report_"):
        path = _put(inp / "cand.txt", {"report_no_equals": "ra 1\n", "report_bad_number": "ra=x\n",
                                       "report_empty": ""}[fault])
        return report + ["--candidate", str(path)], str(path)
    if fault == "negative_std":
        return ttest + ["--std-a", "-1", "--n-a", "5"], "--std-a must be >= 0"
    if fault == "single_sample":
        return ttest + ["--std-a", "1", "--n-a", "1"], "--n-a must be >= 2"
    if fault == "missing_dump":
        path = inp / "absent.csv"
        return audit + [str(path)], str(path)
    if fault == "dump_without_id":
        path = _put(inp / "bx.csv", "sample,dim0,dim1\n0,1,0\n1,0,1\n")
        return audit + [str(path)], str(path)
    if fault == "dump_non_unit_row":
        path = _put(inp / "bx.csv", "id,dim0,dim1\n0,1,0\n7,0.5,0\n")
        return audit + [str(path)], f"{path}: sample 7"
    if fault == "dump_ids_differ":
        other = inp / "other.csv"
        write_feature_dump(other, [0, 2], np.eye(2))
        return (["audit", "--out", str(out), "--before-x", str(dump), "--before-y", str(dump),
                 "--after-x", str(other), "--after-y", str(other)], "--before-x and --after-x")
    if fault == "no_dumps_or_checkpoints":
        return (["audit", "--out", str(out), "--before", str(run / "encoder.bin")],
                "--before/--after")
    if fault == "one_null_dump":
        return audit + [str(dump), "--null-x", str(dump)], "--null-x and --null-y"
    if fault == "null_ids_differ":
        null = inp / "null.csv"
        write_feature_dump(null, [0, 2], np.eye(2))
        return audit + [str(dump), "--null-x", str(null), "--null-y", str(null)], "--null-x dumps"
    if fault == "set_not_a_number":
        return gen + ["pretrain.lr=abc"], "pretrain.lr: expected a number"
    if fault == "set_not_a_boolean":
        return gen + ["aug.image_mode=maybe"], "aug.image_mode: expected a boolean"
    if fault == "set_without_equals":
        return gen + ["foo"], "expected key=value, got 'foo'"
    if fault == "set_missing_config":
        path = inp / "absent.cfg"
        return ["gen-data", "--out", str(out), "--config", str(path)], str(path)
    if fault.startswith("arch_"):
        arch = {"arch_not_integers": "16,x", "arch_one_dim": "16"}[fault]
        return stage_argv("pretrain", cfg, run, out) + ["--set", f"arch={arch}"], "arch"
    raise AssertionError(fault)


_STAGE_FAULTS = [
    ("gen-data", "bogus_source", EXIT_CONFIG),
    ("gen-data", "cifar_without_path", EXIT_CONFIG),
    ("gen-data", "cifar_missing", EXIT_MISSING_INPUT),
    ("gen-data", "cifar_bad_size", EXIT_FORMAT),
    ("gen-data", "cifar_bad_label", EXIT_FORMAT),
    ("gen-data", "negative_seed", EXIT_CONFIG),
    ("gen-data", "negative_seed_in_file", EXIT_CONFIG),
    ("split", "zero_unlearn_fraction", EXIT_CONFIG),
    ("sweep", "empty_grid", EXIT_CONFIG),
    ("sweep", "duplicate_grid", EXIT_CONFIG),
    ("sweep", "missing_retrain", EXIT_MISSING_INPUT),
    ("sweep", "truncated_encoder", EXIT_FORMAT),
    ("sweep", "sweep_lr", EXIT_NUMERIC),
    ("sweep", "collapsed_retrain", EXIT_NUMERIC),
    ("sweep", "no_test_split", EXIT_CONFIG),
    ("report", "missing_report", EXIT_MISSING_INPUT),
    ("report", "report_no_equals", EXIT_FORMAT),
    ("report", "report_bad_number", EXIT_FORMAT),
    ("report", "report_empty", EXIT_FORMAT),
    ("ttest", "negative_std", EXIT_CONFIG),
    ("ttest", "single_sample", EXIT_CONFIG),
    ("audit", "missing_dump", EXIT_MISSING_INPUT),
    ("audit", "dump_without_id", EXIT_FORMAT),
    ("audit", "dump_non_unit_row", EXIT_FORMAT),
    ("audit", "dump_ids_differ", EXIT_CONFIG),
    ("audit", "no_dumps_or_checkpoints", EXIT_CONFIG),
    ("audit", "one_null_dump", EXIT_CONFIG),
    ("audit", "null_ids_differ", EXIT_CONFIG),
    ("gen-data", "set_not_a_number", EXIT_CONFIG),
    ("gen-data", "set_not_a_boolean", EXIT_CONFIG),
    ("gen-data", "set_without_equals", EXIT_CONFIG),
    ("gen-data", "set_missing_config", EXIT_MISSING_INPUT),
    ("pretrain", "arch_not_integers", EXIT_CONFIG),
    ("pretrain", "arch_one_dim", EXIT_CONFIG),
]


class TestStageExitCodes:
    """gen-data, split, sweep, report, ttest, the arch key of pretrain and
    the arguments of audit. The error names the file, key or flag at fault
    (a diverging run names the non-finite step instead); a failed call
    leaves only its config snapshot, and report, ttest and a value, grid,
    seed or config file rejected as the config is read leave nothing at
    all."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,fault,code", _STAGE_FAULTS)
    def test_exit_code(self, eval_inputs, tmp_path, capsys, monkeypatch, command, fault, code):
        cfg, run = eval_inputs
        inp, cwd, out = tmp_path / "in", tmp_path / "cwd", tmp_path / "out"
        inp.mkdir()
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        argv, named = _stage_fault(fault, cfg, run, inp, out)
        assert argv[0] == command
        assert main(argv) == code
        assert named in capsys.readouterr().err
        if (command in ("report", "ttest") or fault.endswith("_grid") or "seed" in fault
                or fault.startswith("set_")):
            assert not out.exists()
        else:
            assert sorted(p.name for p in out.iterdir()) == [f"config.{command}.txt"]
        assert list(cwd.iterdir()) == []


class TestProbeForwards:
    def test_each_split_forwarded_once(self, eval_inputs, tmp_path, monkeypatch):
        cfg, run = eval_inputs
        rows = {"encoder": [], "head": []}
        for module in (cli, evalsuite):
            real = module.encoder_forward

            def counted(net, batch, real=real):
                rows["encoder" if net.normalize_output else "head"].append(len(batch))
                return real(net, batch)

            monkeypatch.setattr(module, "encoder_forward", counted)
        assert main(probe_argv(cfg, run, tmp_path)) == EXIT_OK
        splits = load_splits(run / "splits.csv")
        sizes = sorted([len(splits.retain), len(splits.test), len(splits.unlearn)])
        assert sorted(rows["encoder"]) == sizes
        assert sorted(rows["head"]) == sizes


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before Python 3.11 the caller's stack keeps a call's arguments "
                           "alive until it returns")
class TestCheckpointLifetimes:
    """unlearn frees its start checkpoint before training, and eval frees the
    pre-unlearning checkpoint before scoring and loads the reference only
    once the candidate is scored and dropped."""

    @staticmethod
    def _loads(monkeypatch) -> dict:
        """Checkpoint file name -> weak reference to the encoder loaded from it."""
        refs, real = {}, cli.load_encoder

        def load(path):
            enc = real(path)
            refs[Path(path).name] = weakref.ref(enc)
            return enc

        monkeypatch.setattr(cli, "load_encoder", load)
        return refs

    @staticmethod
    def _spy(monkeypatch, module, name, refs, seen):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            seen.append(sorted(k for k, r in refs.items() if r() is not None))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    def test_unlearn(self, eval_inputs, tmp_path, monkeypatch):
        cfg, run = eval_inputs
        refs, seen = self._loads(monkeypatch), []
        self._spy(monkeypatch, unlearn, "sgd_epochs", refs, seen)
        argv = stage_argv("unlearn", cfg, run, tmp_path, encoder=run / "encoder.bin")
        assert main(argv) == EXIT_OK
        assert seen == [[]]

    def test_eval(self, eval_inputs, tmp_path, monkeypatch):
        cfg, run = eval_inputs
        refs, seen = self._loads(monkeypatch), []
        self._spy(monkeypatch, evalsuite, "probe_logits", refs, seen)
        assert main(eval_argv(cfg, run, tmp_path, reference=run / "retrain.bin")) == EXIT_OK
        assert seen == [["unlearned.bin"], ["retrain.bin"]]


class TestAtomicArtifacts:
    def test_failed_write_keeps_old_report(self, eval_inputs, tmp_path, monkeypatch):
        cfg, run = eval_inputs
        assert main(eval_argv(cfg, run, tmp_path)) == EXIT_OK
        old = (tmp_path / "report.txt").read_bytes()
        real = cli.atomic_write

        @contextlib.contextmanager
        def failing(path, *args, **kwargs):
            with real(path, *args, **kwargs) as f:
                if path.name == "report.txt":
                    f.write("fs=")
                    raise OSError(errno.ENOSPC, "No space left on device", str(path))
                yield f

        monkeypatch.setattr(cli, "atomic_write", failing)
        with pytest.raises(OSError):
            main(eval_argv(cfg, run, tmp_path))
        assert (tmp_path / "report.txt").read_bytes() == old
        assert not list(tmp_path.glob("*.tmp"))


class TestTtest:
    def test_reference_alignment_drop_case(self, capsys):
        rc = main(["ttest", "--mean-a", "-0.0026", "--std-a", "0.0587", "--n-a", "20",
                   "--mean-b", "0.0353", "--std-b", "0.0575", "--n-b", "20"])
        assert rc == EXIT_OK
        lines = dict(ln.split("=") for ln in capsys.readouterr().out.strip().splitlines())
        assert float(lines["p"]) == pytest.approx(0.0459, abs=5e-3)
        assert float(lines["t"]) == pytest.approx(-2.0627, abs=1e-3)

    def test_console_script_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unlearnlab.cli", "ttest",
             "--mean-a", "0", "--std-a", "1", "--n-a", "9",
             "--mean-b", "0", "--std-b", "1", "--n-b", "9"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert "p=1" in proc.stdout

    def test_degenerate_groups_rejected(self, capsys):
        rc = main(["ttest", "--mean-a", "0", "--std-a", "0", "--n-a", "5",
                   "--mean-b", "1", "--std-b", "0", "--n-b", "5"])
        assert rc == EXIT_CONFIG


class TestPipeline:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        cfg = tiny_cfg(tmp_path)
        out = tmp_path / "run"
        run_pipeline(tmp_path, out, cfg)
        assert main(["probe", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert main(["eval", "--config", cfg, "--out", str(out),
                     "--candidate", str(out / "unlearned.bin"),
                     "--before", str(out / "encoder.bin"),
                     "--reference", str(out / "retrain.bin")]) == EXIT_OK
        for name in ("dataset.csv", "splits.csv", "encoder.bin", "retrain.bin",
                     "unlearned.bin", "probe.txt",
                     "report.txt", "report.csv", "reference_report.txt", "gaps.txt"):
            assert (out / name).exists(), name
        assert not (out / "probe.bin").exists()  # nothing reads a probe checkpoint
        report = dict(ln.split("=") for ln in (out / "report.txt").read_text().splitlines())
        assert set(report) == {"fs", "emia", "cmia", "ra", "ta", "ua"}
        assert 0.0 <= float(report["ra"]) <= 100.0
        gaps = (out / "gaps.txt").read_text()
        assert "avg_gap=" in gaps and "agp=" in gaps

    def test_every_method_moves_the_encoder(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        out = tmp_path / "run"
        for cmd in ("gen-data", "split", "pretrain"):
            assert main([cmd, "--config", cfg, "--out", str(out)]) == EXIT_OK
        start = (out / "encoder.bin").read_bytes()
        for method in unlearn.METHODS:
            assert main(["unlearn", "--config", cfg, "--out", str(out / method),
                         "--data", str(out / "dataset.csv"), "--splits", str(out / "splits.csv"),
                         "--encoder", str(out / "encoder.bin"),
                         "--set", f"unlearn.method={method}"]) == EXIT_OK
            assert (out / method / "unlearned.bin").read_bytes() != start, method

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_pipeline(tmp_path, out, cfg)
            assert main(["eval", "--config", cfg, "--out", str(out),
                         "--candidate", str(out / "unlearned.bin"),
                         "--before", str(out / "encoder.bin")]) == EXIT_OK
            assert main(["audit", "--config", cfg, "--out", str(out),
                         "--before", str(out / "encoder.bin"),
                         "--after", str(out / "unlearned.bin")]) == EXIT_OK
        for name in ("dataset.csv", "dataset.csv.bin", "splits.csv", "encoder.bin",
                     "retrain.bin", "unlearned.bin", "report.txt", "report.csv",
                     "agm.csv", "agm.pgm", "audit.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_dataset_copy_does_not_change_results(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        runs = {}
        for name, keep_copy in (("copy", True), ("csv", False)):
            out = tmp_path / name
            for cmd in ("gen-data", "split"):
                assert main([cmd, "--config", cfg, "--out", str(out)]) == EXIT_OK
            if not keep_copy:
                (out / "dataset.csv.bin").unlink()
            for cmd in ("pretrain", "unlearn"):
                assert main([cmd, "--config", cfg, "--out", str(out)]) == EXIT_OK
            assert main(["eval", "--config", cfg, "--out", str(out),
                         "--candidate", str(out / "unlearned.bin"),
                         "--before", str(out / "encoder.bin")]) == EXIT_OK
            assert (out / "dataset.csv.bin").exists() == keep_copy
            runs[name] = out
        for name in ("encoder.bin", "unlearned.bin", "report.txt"):
            assert (runs["copy"] / name).read_bytes() == (runs["csv"] / name).read_bytes(), name


class TestAudit:
    def _unit_dump(self, path, ids, rows):
        rows = np.asarray(rows, float)
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        write_feature_dump(path, ids, rows)
        return rows

    def test_identity_dumps_give_null_verdict(self, tmp_path, capsys):
        # identical before/after dumps -> FS 0, zero AGM, p=1 verdicts
        ids = [0, 1, 2]
        rng = np.random.default_rng(0)
        fx = self._unit_dump(tmp_path / "x.csv", ids, rng.normal(size=(3, 4)))
        fy = self._unit_dump(tmp_path / "y.csv", ids, rng.normal(size=(3, 4)))
        out = tmp_path / "aud"
        rc = main(["audit", "--out", str(out),
                   "--before-x", str(tmp_path / "x.csv"), "--before-y", str(tmp_path / "y.csv"),
                   "--after-x", str(tmp_path / "x.csv"), "--after-y", str(tmp_path / "y.csv"),
                   "--null-x", str(tmp_path / "x.csv"), "--null-y", str(tmp_path / "y.csv")])
        assert rc == EXIT_OK
        vals = dict(ln.split("=") for ln in (out / "audit.txt").read_text().splitlines())
        assert float(vals["fs"]) == 0.0
        assert float(vals["pos_p"]) == 1.0 and float(vals["neg_p"]) == 1.0
        agm = np.loadtxt(out / "agm.csv", delimiter=",", skiprows=1)[:, 1:]
        assert agm.shape == (3, 3) and np.all(agm == 0.0)
        # zero matrix renders mid-gray
        pgm = (out / "agm.pgm").read_bytes()
        assert pgm.startswith(b"P5")
        assert set(pgm[pgm.rindex(b"\n255\n") + 5:]) == {128}

    def test_dump_mode_needs_no_dataset(self, tmp_path):
        # black-box constraint: feature dumps alone suffice
        ids = [5, 9]
        self._unit_dump(tmp_path / "bx.csv", ids, [[1.0, 0.0], [0.0, 1.0]])
        self._unit_dump(tmp_path / "by.csv", ids, [[1.0, 0.1], [0.1, 1.0]])
        self._unit_dump(tmp_path / "ax.csv", ids, [[1.0, -0.2], [0.3, 1.0]])
        self._unit_dump(tmp_path / "ay.csv", ids, [[0.5, 0.5], [1.0, 0.0]])
        out = tmp_path / "aud"
        rc = main(["audit", "--out", str(out),
                   "--before-x", str(tmp_path / "bx.csv"), "--before-y", str(tmp_path / "by.csv"),
                   "--after-x", str(tmp_path / "ax.csv"), "--after-y", str(tmp_path / "ay.csv")])
        assert rc == EXIT_OK
        assert (out / "agm.csv").exists() and (out / "agm.pgm").exists()

    def test_partial_dump_flags_rejected(self, tmp_path):
        self._unit_dump(tmp_path / "bx.csv", [0], [[1.0, 0.0]])
        rc = main(["audit", "--out", str(tmp_path / "aud"),
                   "--before-x", str(tmp_path / "bx.csv")])
        assert rc == EXIT_CONFIG

    def test_nan_dump_row_is_format_error(self, tmp_path, capsys):
        self._unit_dump(tmp_path / "by.csv", [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        bad = tmp_path / "bx.csv"
        bad.write_text("id,dim0,dim1\n0,1,0\n1,nan,0\n")
        rc = main(["audit", "--out", str(tmp_path / "aud"),
                   "--before-x", str(bad), "--before-y", str(tmp_path / "by.csv"),
                   "--after-x", str(tmp_path / "by.csv"), "--after-y", str(tmp_path / "by.csv")])
        assert rc == EXIT_FORMAT
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_mismatched_ids_rejected(self, tmp_path):
        self._unit_dump(tmp_path / "bx.csv", [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        self._unit_dump(tmp_path / "by.csv", [0, 2], [[1.0, 0.0], [0.0, 1.0]])
        rc = main(["audit", "--out", str(tmp_path / "aud"),
                   "--before-x", str(tmp_path / "bx.csv"), "--before-y", str(tmp_path / "by.csv"),
                   "--after-x", str(tmp_path / "bx.csv"), "--after-y", str(tmp_path / "by.csv")])
        assert rc == EXIT_CONFIG


class TestReportAndSweep:
    def test_gap_report_reference_row(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("emia=50.15\nra=88.34\nta=86.46\nua=87.59\ncmia=29.42\n")
        ref.write_text("emia=49.72\nra=89.54\nta=87.76\nua=88.42\ncmia=34.38\n")
        rc = main(["report", "--out", str(tmp_path), "--candidate", str(cand),
                   "--reference", str(ref)])
        assert rc == EXIT_OK
        vals = dict(ln.split("=") for ln in (tmp_path / "gaps.txt").read_text().splitlines())
        assert float(vals["avg_gap"]) == pytest.approx(1.744, abs=5e-3)

    def test_sweep_runs_ac_whatever_the_method(self, eval_inputs, tmp_path, monkeypatch):
        cfg, run = eval_inputs
        methods, real = [], cli.run_ac

        def recording(start, data, splits, ac_cfg, aug):
            methods.append(ac_cfg.method)
            return real(start, data, splits, ac_cfg, aug)

        monkeypatch.setattr(cli, "run_ac", recording)
        argv = stage_argv("sweep", cfg, run, tmp_path, encoder=run / "encoder.bin",
                          reference=run / "retrain.bin")
        assert main(argv + ["--set", "unlearn.method=finetune",
                            "--set", "sweep.forget_weights=0,8"]) == EXIT_OK
        assert methods == ["ac", "ac"]

    def test_sweep_grid_shape_and_jobs(self, tmp_path, capsys):
        cfg = tiny_cfg(tmp_path)
        out = tmp_path / "run"
        run_pipeline(tmp_path, out, cfg)
        rc = main(["sweep", "--config", cfg, "--out", str(out),
                   "--set", "sweep.negpair_weights=0,1",
                   "--set", "sweep.forget_weights=0,8"])
        assert rc == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == ["alpha", "beta", *cli.REPORT_FIELDS,
                                       *(f"gap.{k}" for k in cli.REPORT_FIELDS)]
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[:2] for r in rows] == [["0", "0"], ["0", "8"], ["1", "0"], ["1", "8"]]
        assert all(len(r) == 14 and all(np.isfinite(float(v)) for v in r) for r in rows)
        assert not (out / "fs_gap_grid.csv").exists()
        assert not (out / "fs_ratio_grid.csv").exists()
        assert (out / "sweep" / "retrain_report.txt").exists()
        for a in ("0", "1"):
            for b in ("0", "8"):
                assert (out / "sweep" / f"a{a}_b{b}" / "unlearned.bin").exists()

    def test_sweep_cells_score_as_eval_does(self, eval_inputs, tmp_path):
        cfg, run = eval_inputs
        out = tmp_path / "sweep_run"
        assert main(stage_argv("sweep", cfg, run, out, encoder=run / "encoder.bin",
                               reference=run / "retrain.bin")) == EXIT_OK
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines]
        assert [(r["alpha"], r["beta"]) for r in rows] == [("1", "0"), ("1", "4"), ("1", "8")]
        settings = resolve_config(cfg)
        data, splits = load_dataset(run / "dataset.csv"), load_splits(run / "splits.csv")
        aug, seed = cli._config(settings, "aug"), settings["seed"]
        before = load_encoder(run / "encoder.bin")
        fs_ref, _ = forgetting_score(before, load_encoder(run / "retrain.bin"), data,
                                     splits.unlearn, aug, seed)
        for r in rows:
            cell = out / "sweep" / f"a{r['alpha']}_b{r['beta']}" / "unlearned.bin"
            ev = tmp_path / f"eval_{cell.parent.name}"
            assert main(eval_argv(cfg, run, ev, candidate=cell,
                                  reference=run / "retrain.bin")) == EXIT_OK
            # the six metrics, byte for byte as eval writes them
            assert (ev / "report.txt").read_text() == "".join(
                f"{k}={r[k]}\n" for k in cli.REPORT_FIELDS)
            assert ((ev / "reference_report.txt").read_bytes()
                    == (out / "sweep" / "retrain_report.txt").read_bytes())
            # the FS gap as the FS-only grid computed it: FS(cell) - FS(retrain)
            fs, _ = forgetting_score(before, load_encoder(cell), data, splits.unlearn, aug, seed)
            assert r["gap.fs"] == "%.17g" % (fs - fs_ref)
