"""Command line driver for the unlearning pipeline.

Exposes both workflows as subcommands: the model-owner side (gen-data,
split, pretrain, unlearn, retrain, probe, eval, sweep) and the
data-owner side (audit, ttest, report), all driven by a flat key=value
config plus --set overrides. Every artifact-producing run writes a
resolved-config snapshot next to its outputs so reruns are diffable.
"""

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .contrastive import ContrastiveConfig, pretrain
from .datagen import (
    AugmentorConfig,
    gen_synthetic,
    load_cifar10,
    load_dataset,
    load_splits,
    save_dataset,
    save_splits,
    split,
)
from .diffcore import encoder_forward
from .errors import ConfigurationError, DataFormatError, NumericError
from .evalsuite import (
    REPORT_FIELDS,
    ProbeConfig,
    SummaryStats,
    alignment_gap,
    alignment_matrix,
    classifier_metrics,
    forgetting_score_from_features,
    evaluate,
    gap_report,
    linear_probe,  # not called here: benchmarks/layers.py needs this binding for probe_s
    neg_alignment_stats,
    paired_unlearn_views,
    probe_logits,
    unit_norm_rows,
    welch_ttest,
)
from .persist import (
    atomic_write,
    load_encoder,
    read_feature_dump,
    save_encoder,
    write_feature_dump,
    write_heatmap_pgm,
    write_matrix_csv,
)
from .unlearn import ACConfig, retrain, run_ac

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5

OUT_ENV_VAR = "UNLEARNLAB_OUT"

# The config sections each dataclass reads: prefix -> (class, the keys not
# named after their field, as field -> key suffix). Every field but seed is
# one key whose default is the field's; seed reads the global key.
_SECTIONS = {
    "aug": (AugmentorConfig, {}),
    "pretrain": (ContrastiveConfig, {"base_lr": "lr"}),
    "unlearn": (ACConfig, {"unlearn_scale": "scale"}),
    "probe": (ProbeConfig, {}),
}


def _section_fields(prefix: str) -> dict:
    """Config key -> dataclass field of one section."""
    cls, renames = _SECTIONS[prefix]
    return {"seed" if f.name == "seed" else f"{prefix}.{renames.get(f.name, f.name)}": f
            for f in dataclasses.fields(cls)}


# Flat config schema: key -> default. Types are inferred from the
# defaults; unlearn.scale is a string so "auto" can coexist with floats.
_DEFAULTS = {
    "seed": 0,
    "out": ".",
    "data.source": "synthetic",
    "data.path": "",
    "data.clusters": 5,
    "data.dim": 16,
    "data.count": 2000,
    "data.separation": 6.0,
    "split.unlearn_fraction": 0.1,
    "split.test_fraction": 0.1,
    "split.val_fraction": 0.0,
    "arch": "16,32,16",
    **{key: "auto" if f.default is None else f.default
       for prefix in _SECTIONS for key, f in _section_fields(prefix).items() if key != "seed"},
    "sweep.negpair_weights": "1",
    "sweep.forget_weights": "0,4,8",
}


def _finite(key: str, text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {text!r}")
    if not math.isfinite(val):
        raise ConfigurationError(f"{key}: expected a finite number, got {text!r}")
    return val


def _unlearn_scale(key: str, text: str):
    return None if text == "auto" else _finite(key, text)


def _parse_grid(key: str, text: str) -> list:
    vals = [_finite(key, t) for t in text.split(",") if t.strip()]
    if not vals:
        raise ConfigurationError(f"{key}: empty grid")
    labels = ["%g" % v for v in vals]  # each names a sweep cell's directory and column
    if len(set(labels)) < len(labels):
        raise ConfigurationError(
            f"{key}: grid values need distinct %g labels, got {','.join(labels)}")
    return vals


# String keys whose text holds numbers: checked when a value is read, so a
# bad one is named with its file and line, and converted where it is used.
_NUMERIC_TEXT = {
    "unlearn.scale": _unlearn_scale,
    "sweep.negpair_weights": _parse_grid,
    "sweep.forget_weights": _parse_grid,
}


def _parse_value(key: str, text: str):
    if key not in _DEFAULTS:
        raise ConfigurationError(f"unknown config key: {key!r}")
    default = _DEFAULTS[key]
    text = text.strip()
    if isinstance(default, bool):
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"{key}: expected a boolean, got {text!r}")
    if isinstance(default, int):
        try:
            val = int(text)
        except ValueError:
            raise ConfigurationError(f"{key}: expected an integer, got {text!r}")
        if key == "seed" and val < 0:  # numpy's generators take no negative seed
            raise ConfigurationError(f"{key}: expected a non-negative integer, got {text!r}")
        return val
    if isinstance(default, float):
        return _finite(key, text)
    if key in _NUMERIC_TEXT:
        _NUMERIC_TEXT[key](key, text)
    return text


def _split_assignment(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise ConfigurationError(f"expected key=value, got {item!r}")
    key, _, val = item.partition("=")
    return key.strip(), val


def resolve_config(config_path=None, overrides=(), out_flag=None) -> dict:
    """Defaults, then config file lines, then --set overrides in order."""
    cfg = dict(_DEFAULTS)
    env_out = os.environ.get(OUT_ENV_VAR)
    if env_out:
        cfg["out"] = env_out
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key, val = _split_assignment(line)
                cfg[key] = _parse_value(key, val)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    for item in overrides:
        key, val = _split_assignment(item)
        cfg[key] = _parse_value(key, val)
    if out_flag is not None:
        cfg["out"] = out_flag
    return cfg


def format_config(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, float):
            text = "%.17g" % val
        else:
            text = str(val)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    """Write a text artifact whole or not at all (see persist.atomic_write)."""
    with atomic_write(path, "w") as f:
        f.write(text)


def _write_lines(path: Path, lines: list) -> None:
    """Write lines as a text artifact, then echo them."""
    _write_text(path, "\n".join(lines) + "\n")
    for line in lines:
        print(line)


def _snapshot(cfg: dict, out: Path, command: str) -> None:
    _write_text(out / f"config.{command}.txt", format_config(cfg))


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise FileNotFoundError(f"missing {what}: {path}")
    return Path(path)


def _parse_arch(cfg: dict) -> list:
    try:
        dims = [int(t) for t in str(cfg["arch"]).split(",") if t.strip()]
    except ValueError:
        raise ConfigurationError(f"arch: expected comma-separated integers, got {cfg['arch']!r}")
    if len(dims) < 2:
        raise ConfigurationError("arch needs at least input and output dims")
    return dims


def _config(cfg: dict, prefix: str):
    """The dataclass of one config section, built from its keys."""
    return _SECTIONS[prefix][0](**{
        f.name: _NUMERIC_TEXT[key](key, cfg[key]) if key in _NUMERIC_TEXT else cfg[key]
        for key, f in _section_fields(prefix).items()})


def _load_data_splits(cfg: dict, args):
    out = Path(cfg["out"])
    data_path = Path(args.data) if args.data else out / "dataset.csv"
    splits_path = Path(args.splits) if args.splits else out / "splits.csv"
    data = load_dataset(_require(data_path, "dataset"))
    splits = load_splits(_require(splits_path, "splits"))
    _, held = data.locate(splits.ids)
    if not held.all():
        raise DataFormatError(f"{splits_path}: split id {int(splits.ids[np.argmin(held)])} "
                              f"is not in the dataset {data_path}")
    return data, splits


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _write_report_files(out: Path, stem: str, metrics: dict) -> None:
    lines = [f"{k}={_fmt(metrics[k])}" for k in REPORT_FIELDS]
    _write_text(out / f"{stem}.txt", "\n".join(lines) + "\n")
    csv = ",".join(REPORT_FIELDS) + "\n" + ",".join(_fmt(metrics[k]) for k in REPORT_FIELDS) + "\n"
    _write_text(out / f"{stem}.csv", csv)


def _write_gaps(out: Path, candidate: dict, reference: dict) -> None:
    gaps = gap_report(candidate, reference)
    lines = [f"gap.{k}={_fmt(v)}" for k, v in sorted(gaps.gaps.items())]
    _write_lines(out / "gaps.txt", lines + [f"avg_gap={_fmt(gaps.avg_gap)}",
                                            f"agp={_fmt(gaps.agp)}"])


def _read_report(path: Path) -> dict:
    metrics = {}
    for lineno, raw in enumerate(_require(path, "report").read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        try:
            metrics[key.strip()] = float(val)
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad number {val!r}")
    if not metrics:
        raise DataFormatError(f"{path}: empty report")
    return metrics


def cmd_gen_data(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "gen-data")
    source = cfg["data.source"]
    if source == "synthetic":
        data = gen_synthetic(cfg["data.clusters"], cfg["data.dim"],
                             cfg["data.count"], cfg["data.separation"], cfg["seed"])
    elif source == "cifar10":
        if not cfg["data.path"]:
            raise ConfigurationError("data.path is required for data.source=cifar10")
        data = load_cifar10(_require(Path(cfg["data.path"]), "cifar10 data"))
    else:
        raise ConfigurationError(f"data.source must be synthetic or cifar10, got {source!r}")
    save_dataset(data, out / "dataset.csv")
    print(f"wrote {out / 'dataset.csv'} ({len(data.ids)} samples, dim {data.dim})")
    return EXIT_OK


def cmd_split(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "split")
    data_path = Path(args.data) if args.data else out / "dataset.csv"
    data = load_dataset(_require(data_path, "dataset"))
    try:
        splits = split(data, cfg["split.unlearn_fraction"], cfg["split.test_fraction"],
                       cfg["split.val_fraction"], cfg["seed"])
    except ConfigurationError as exc:  # each message opens with the split key's field
        raise ConfigurationError(f"split.{exc}") from exc
    save_splits(splits, out / "splits.csv")
    print(f"wrote {out / 'splits.csv'} (retain {len(splits.retain)}, unlearn {len(splits.unlearn)}, "
          f"test {len(splits.test)}, validation {len(splits.validation)})")
    return EXIT_OK


def cmd_pretrain(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "pretrain")
    data, splits = _load_data_splits(cfg, args)
    net = pretrain(data, splits, _config(cfg, "pretrain"), _parse_arch(cfg), _config(cfg, "aug"))
    save_encoder(net, out / "encoder.bin")
    print(f"wrote {out / 'encoder.bin'}")
    return EXIT_OK


def cmd_retrain(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "retrain")
    data, splits = _load_data_splits(cfg, args)
    net = retrain(data, splits, _config(cfg, "pretrain"), _parse_arch(cfg), _config(cfg, "aug"))
    save_encoder(net, out / "retrain.bin")
    print(f"wrote {out / 'retrain.bin'}")
    return EXIT_OK


def cmd_unlearn(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "unlearn")
    data, splits = _load_data_splits(cfg, args)
    enc_path = Path(args.encoder) if args.encoder else out / "encoder.bin"
    # the start encoder goes in unnamed, so run_ac can free it once copied
    # (from Python 3.11 on, a call moves its arguments into the callee)
    net = run_ac(load_encoder(_require(enc_path, "encoder checkpoint")), data, splits,
                 _config(cfg, "unlearn"), _config(cfg, "aug"))
    save_encoder(net, out / "unlearned.bin")
    print(f"wrote {out / 'unlearned.bin'} (method {cfg['unlearn.method']})")
    return EXIT_OK


def cmd_probe(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "probe")
    data, splits = _load_data_splits(cfg, args)
    enc_path = Path(args.encoder) if args.encoder else out / "unlearned.bin"
    enc = load_encoder(_require(enc_path, "encoder checkpoint"))
    num_classes = int(data.labels.max()) + 1
    split_ids = (splits.retain, splits.test, splits.unlearn)
    logits = probe_logits(enc, data, split_ids, num_classes, _config(cfg, "probe"))
    ra, ta, ua = classifier_metrics(logits, [data.labels_for(ids) for ids in split_ids])
    lines = [f"ra={_fmt(ra)}", f"ta={_fmt(ta)}", f"ua={_fmt(ua)}"]
    _write_lines(out / "probe.txt", lines)
    print(f"wrote {out / 'probe.txt'}")
    return EXIT_OK


def cmd_eval(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "eval")
    data, splits = _load_data_splits(cfg, args)
    paths = {"candidate": _require(Path(args.candidate), "candidate checkpoint")}
    before_path = _require(Path(args.before), "pre-unlearning checkpoint")
    if args.reference:
        paths["reference"] = _require(Path(args.reference), "reference checkpoint")
    # one pass: both encoders are scored on the same replayed views, each loaded
    # once the one before it is scored and dropped. before goes in unnamed, so
    # from Python 3.11 on evaluate frees it once it is used
    encoders = ((name, load_encoder(path)) for name, path in paths.items())
    reports = evaluate(encoders, load_encoder(before_path), data, splits,
                       _config(cfg, "aug"), _config(cfg, "probe"), cfg["seed"])
    rep = reports["candidate"]
    _write_report_files(out, "report", rep.metrics())
    for k in REPORT_FIELDS:
        print(f"{k}={_fmt(rep.metrics()[k])}")
    print(f"runtime_seconds={rep.runtime_seconds:.3f}")
    if args.reference:
        _write_report_files(out, "reference_report", reports["reference"].metrics())
        _write_gaps(out, rep.metrics(), reports["reference"].metrics())
    return EXIT_OK


def _read_unit_dump(path, what: str):
    """A feature dump's ids and rows, each row a finite unit-norm feature."""
    ids, feats = read_feature_dump(_require(Path(path), what))
    bad = np.flatnonzero(~unit_norm_rows(feats))
    if bad.size:
        raise DataFormatError(f"{path}: sample {ids[bad[0]]} is not a unit-norm feature row")
    return ids, feats


def _load_dump_pair(path_x, path_y, what: str):
    ids_x, fx = _read_unit_dump(path_x, f"{what} first-view dump")
    ids_y, fy = _read_unit_dump(path_y, f"{what} second-view dump")
    if not np.array_equal(ids_x, ids_y):
        raise ConfigurationError(f"{what}: view dumps carry different sample ids")
    return ids_x, fx, fy


def _checkpoint_features(path: Path, views) -> list:
    """Each view batch's features under the checkpoint at path, freed on return."""
    enc = load_encoder(path)
    return [encoder_forward(enc, v) for v in views]


def cmd_audit(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "audit")
    if bool(args.null_x) != bool(args.null_y):
        raise ConfigurationError("null-model audit needs both --null-x and --null-y")
    if args.before_x or args.after_x:
        needed = [args.before_x, args.before_y, args.after_x, args.after_y]
        if not all(needed):
            raise ConfigurationError(
                "dump-based audit needs all of --before-x --before-y --after-x --after-y")
        ids, bx, by = _load_dump_pair(args.before_x, args.before_y, "before")
        ids_a, ax, ay = _load_dump_pair(args.after_x, args.after_y, "after")
        if not np.array_equal(ids, ids_a):
            raise ConfigurationError("--before-x and --after-x dumps carry different sample ids")
        dumps = {}
    else:
        if not (args.before and args.after):
            raise ConfigurationError(
                "audit needs either four feature dumps or --before/--after checkpoints")
        data, splits = _load_data_splits(cfg, args)
        before_path = _require(Path(args.before), "pre-unlearning checkpoint")
        after_path = _require(Path(args.after), "unlearned checkpoint")
        ids = splits.unlearn
        views = paired_unlearn_views(data, ids, _config(cfg, "aug"), cfg["seed"])
        bx, by = _checkpoint_features(before_path, views)  # one encoder at a time
        ax, ay = _checkpoint_features(after_path, views)
        dumps = {"before_x": bx, "before_y": by, "after_x": ax, "after_y": ay}

    fs, per_sample = forgetting_score_from_features(bx, by, ax, ay)
    before_am = alignment_matrix(bx, by)
    agm = alignment_gap(before_am, alignment_matrix(ax, ay))
    neg = neg_alignment_stats(agm)
    lines = [f"fs={_fmt(fs)}", f"neg_mean={_fmt(neg.mean)}", f"neg_std={_fmt(neg.std)}",
             f"neg_n={neg.n}"]
    if args.null_x:
        ids_n, nx, ny = _load_dump_pair(args.null_x, args.null_y, "null")
        if not np.array_equal(ids, ids_n):
            raise ConfigurationError("--null-x dumps carry different sample ids than --before-x")
        _, null_per = forgetting_score_from_features(bx, by, nx, ny)
        null_agm = alignment_gap(before_am, alignment_matrix(nx, ny))
        pos_test = welch_ttest(SummaryStats.from_values(per_sample),
                               SummaryStats.from_values(null_per))
        neg_test = welch_ttest(neg, neg_alignment_stats(null_agm))
        for tag, res in (("pos", pos_test), ("neg", neg_test)):
            lines.append(f"{tag}_t={_fmt(res.t_statistic)}")
            lines.append(f"{tag}_df={_fmt(res.degrees_of_freedom)}")
            lines.append(f"{tag}_p={_fmt(res.p_value)}")
            lines.append(f"{tag}_reject_05={'yes' if res.p_value < 0.05 else 'no'}")

    # nothing is written until everything is computed, so a failed audit
    # leaves only its config snapshot
    for stem, feats in dumps.items():
        write_feature_dump(out / f"{stem}.csv", ids, feats)
    write_matrix_csv(out / "agm.csv", agm, ids, ids)
    write_heatmap_pgm(out / "agm.pgm", agm)
    _write_lines(out / "audit.txt", lines)
    print(f"wrote {out / 'agm.csv'} and {out / 'agm.pgm'}")
    return EXIT_OK


def cmd_ttest(args) -> int:
    for group in "ab":
        if getattr(args, f"std_{group}") < 0:
            raise ConfigurationError(f"--std-{group} must be >= 0")
        if getattr(args, f"n_{group}") < 2:
            raise ConfigurationError(f"--n-{group} must be >= 2")
    res = welch_ttest(SummaryStats(args.mean_a, args.std_a, args.n_a),
                      SummaryStats(args.mean_b, args.std_b, args.n_b))
    print(f"t={_fmt(res.t_statistic)}")
    print(f"df={_fmt(res.degrees_of_freedom)}")
    print(f"p={_fmt(res.p_value)}")
    return EXIT_OK


def cmd_report(cfg: dict, args) -> int:
    candidate = _read_report(Path(args.candidate))
    reference = _read_report(Path(args.reference))
    _write_gaps(_out_dir(cfg), candidate, reference)
    return EXIT_OK


def cmd_sweep(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "sweep")
    data, splits = _load_data_splits(cfg, args)
    start = load_encoder(_require(Path(args.encoder or out / "encoder.bin"), "encoder checkpoint"))
    ref_path = _require(Path(args.reference or out / "retrain.bin"), "retrain checkpoint")
    aug, base = _config(cfg, "aug"), _config(cfg, "unlearn")
    cells = [(a, b) for a in _parse_grid("sweep.negpair_weights", cfg["sweep.negpair_weights"])
             for b in _parse_grid("sweep.forget_weights", cfg["sweep.forget_weights"])]

    def encoders():
        """Retrain's encoder, then each cell's AC run, whatever unlearn.method
        is, saved before it is yielded and dropped once scored."""
        yield "retrain", load_encoder(ref_path)
        for a, b in cells:
            ac = dataclasses.replace(base, method="ac", negpair_weight=a, forget_weight=b)
            net = run_ac(start, data, splits, ac, aug)
            job_dir = out / "sweep" / f"a{a:g}_b{b:g}"
            job_dir.mkdir(parents=True, exist_ok=True)
            save_encoder(net, job_dir / "unlearned.bin")
            yield job_dir.name, net
            del net  # before the next cell is trained

    # one pass: retrain, then each cell as it is trained, scored as eval scores them
    reports = evaluate(encoders(), start, data, splits, aug, _config(cfg, "probe"), cfg["seed"])
    ref = reports.pop("retrain").metrics()
    print(f"fs_retrain={_fmt(ref['fs'])}")
    _write_report_files(out / "sweep", "retrain_report", ref)
    lines = [",".join(["alpha", "beta", *REPORT_FIELDS, *(f"gap.{k}" for k in REPORT_FIELDS)])]
    for (a, b), m in zip(cells, (rep.metrics() for rep in reports.values())):
        lines.append(",".join(["%g" % a, "%g" % b, *(_fmt(m[k]) for k in REPORT_FIELDS),
                               *(_fmt(m[k] - ref[k]) for k in REPORT_FIELDS)]))
    _write_lines(out / "sweep.csv", lines)
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="unlearnlab",
                                  description="contrastive unlearning laboratory")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, data_flags=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", default=None, help="output directory")
        if data_flags:
            p.add_argument("--data", default=None, help="dataset csv (default <out>/dataset.csv)")
            p.add_argument("--splits", default=None, help="splits csv (default <out>/splits.csv)")
        return p

    add("gen-data", cmd_gen_data, "generate or import a dataset", data_flags=False)
    add("split", cmd_split, "partition a dataset into retain/unlearn/test/validation",
        data_flags=False).add_argument("--data", default=None)
    add("pretrain", cmd_pretrain, "contrastive pretraining on the train split")
    add("retrain", cmd_retrain, "exact unlearning: fresh pretraining on the retain split")
    p = add("unlearn", cmd_unlearn, "run an approximate unlearning method")
    p.add_argument("--encoder", default=None, help="starting checkpoint (default <out>/encoder.bin)")
    p = add("probe", cmd_probe, "fit a linear readout and report accuracies")
    p.add_argument("--encoder", default=None, help="encoder checkpoint (default <out>/unlearned.bin)")
    p = add("eval", cmd_eval, "white-box evaluation of a candidate encoder")
    p.add_argument("--candidate", required=True, help="candidate checkpoint")
    p.add_argument("--before", required=True, help="pre-unlearning checkpoint")
    p.add_argument("--reference", default=None, help="retrain checkpoint for gap reporting")
    p = add("audit", cmd_audit, "black-box data-owner audit from feature dumps or checkpoints")
    p.add_argument("--before-x", default=None)
    p.add_argument("--before-y", default=None)
    p.add_argument("--after-x", default=None)
    p.add_argument("--after-y", default=None)
    p.add_argument("--null-x", default=None, help="null-model first-view dump")
    p.add_argument("--null-y", default=None, help="null-model second-view dump")
    p.add_argument("--before", default=None, help="pre-unlearning checkpoint")
    p.add_argument("--after", default=None, help="unlearned checkpoint")
    p = sub.add_parser("ttest", help="summary-statistics two-sample test")
    for flag in ("--mean-a", "--std-a", "--mean-b", "--std-b"):
        p.add_argument(flag, type=float, required=True)
    p.add_argument("--n-a", type=int, required=True)
    p.add_argument("--n-b", type=int, required=True)
    p = add("report", cmd_report, "metric gaps between two saved reports", data_flags=False)
    p.add_argument("--candidate", required=True, help="candidate report.txt")
    p.add_argument("--reference", required=True, help="reference report.txt")
    p = add("sweep", cmd_sweep,
            "calibration-weight grid of AC runs, each scored against retraining")
    p.add_argument("--encoder", default=None, help="pretrained checkpoint (default <out>/encoder.bin)")
    p.add_argument("--reference", default=None, help="retrain checkpoint (default <out>/retrain.bin)")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ttest":
            return cmd_ttest(args)
        cfg = resolve_config(args.config, args.set, args.out)
        return args.run(cfg, args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
