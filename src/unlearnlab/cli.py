"""Command line driver for the unlearning pipeline.

Exposes both workflows as subcommands: the model-owner side (gen-data,
split, pretrain, unlearn, retrain, probe, eval, sweep) and the
data-owner side (audit, ttest, report), all driven by a flat key=value
config plus --set overrides. Every artifact-producing run writes a
resolved-config snapshot next to its outputs so reruns are diffable.
"""

import argparse
import dataclasses
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
    welch_ttest,
)
from .persist import (
    atomic_write,
    load_encoder,
    read_feature_dump,
    save_encoder,
    symmetric_range,
    write_feature_dump,
    write_heatmap_pgm,
    write_matrix_csv,
)
from .unlearn import ACConfig, UnlearnMethod, retrain, run_ac, run_baseline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5

OUT_ENV_VAR = "UNLEARNLAB_OUT"

REPORT_FIELDS = ("fs", "emia", "cmia", "ra", "ta", "ua")

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
    "aug.noise_sigma": 0.1,
    "aug.mask_prob": 0.05,
    "aug.scale_lo": 0.9,
    "aug.scale_hi": 1.1,
    "aug.image_mode": False,
    "pretrain.temperature": 0.5,
    "pretrain.batch_size": 128,
    "pretrain.epochs": 200,
    "pretrain.lr": 0.06,
    "pretrain.momentum": 0.9,
    "pretrain.weight_decay": 5e-4,
    "unlearn.method": "ac",
    "unlearn.epochs": 10,
    "unlearn.lr": 0.01,
    "unlearn.temperature": 0.5,
    "unlearn.momentum": 0.9,
    "unlearn.weight_decay": 0.0,
    "unlearn.retain_batch": 128,
    "unlearn.unlearn_batch": 32,
    "unlearn.negpair_weight": 1.0,
    "unlearn.forget_weight": 1.0,
    "unlearn.preserve_weight": 1.0,
    "unlearn.scale": "auto",
    "unlearn.l1_coeff": 0.0,
    "unlearn.ascent_weight": 1.0,
    "probe.epochs": 100,
    "probe.lr": 1.0,
    "probe.momentum": 0.9,
    "probe.weight_decay": 0.0,
    "probe.batch_size": 512,
    "sweep.negpair_weights": "1",
    "sweep.forget_weights": "0,4,8",
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
            return int(text)
        except ValueError:
            raise ConfigurationError(f"{key}: expected an integer, got {text!r}")
    if isinstance(default, float):
        try:
            return float(text)
        except ValueError:
            raise ConfigurationError(f"{key}: expected a number, got {text!r}")
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


def _parse_grid(text: str, what: str) -> list:
    try:
        vals = [float(t) for t in str(text).split(",") if t.strip()]
    except ValueError:
        raise ConfigurationError(f"{what}: expected comma-separated numbers, got {text!r}")
    if not vals:
        raise ConfigurationError(f"{what}: empty grid")
    return vals


def _aug_config(cfg: dict) -> AugmentorConfig:
    return AugmentorConfig(
        noise_sigma=cfg["aug.noise_sigma"],
        mask_prob=cfg["aug.mask_prob"],
        scale_lo=cfg["aug.scale_lo"],
        scale_hi=cfg["aug.scale_hi"],
        image_mode=cfg["aug.image_mode"],
    )


def _contrastive_config(cfg: dict) -> ContrastiveConfig:
    return ContrastiveConfig(
        temperature=cfg["pretrain.temperature"],
        batch_size=cfg["pretrain.batch_size"],
        epochs=cfg["pretrain.epochs"],
        base_lr=cfg["pretrain.lr"],
        momentum=cfg["pretrain.momentum"],
        weight_decay=cfg["pretrain.weight_decay"],
        seed=cfg["seed"],
    )


def _unlearn_scale(cfg: dict):
    raw = str(cfg["unlearn.scale"]).strip()
    if raw == "auto":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"unlearn.scale: expected 'auto' or a number, got {raw!r}")


def _ac_config(cfg: dict) -> ACConfig:
    return ACConfig(
        negpair_weight=cfg["unlearn.negpair_weight"],
        forget_weight=cfg["unlearn.forget_weight"],
        preserve_weight=cfg["unlearn.preserve_weight"],
        unlearn_scale=_unlearn_scale(cfg),
        epochs=cfg["unlearn.epochs"],
        lr=cfg["unlearn.lr"],
        temperature=cfg["unlearn.temperature"],
        momentum=cfg["unlearn.momentum"],
        weight_decay=cfg["unlearn.weight_decay"],
        retain_batch=cfg["unlearn.retain_batch"],
        unlearn_batch=cfg["unlearn.unlearn_batch"],
        seed=cfg["seed"],
    )


def _probe_config(cfg: dict) -> ProbeConfig:
    return ProbeConfig(
        epochs=cfg["probe.epochs"],
        lr=cfg["probe.lr"],
        momentum=cfg["probe.momentum"],
        weight_decay=cfg["probe.weight_decay"],
        batch_size=cfg["probe.batch_size"],
        seed=cfg["seed"],
    )


def _load_data_splits(cfg: dict, args):
    out = Path(cfg["out"])
    data_path = Path(args.data) if args.data else out / "dataset.csv"
    splits_path = Path(args.splits) if args.splits else out / "splits.csv"
    data = load_dataset(_require(data_path, "dataset"))
    splits = load_splits(_require(splits_path, "splits"))
    return data, splits


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _write_report_files(out: Path, stem: str, metrics: dict) -> None:
    lines = [f"{k}={_fmt(metrics[k])}" for k in REPORT_FIELDS]
    _write_text(out / f"{stem}.txt", "\n".join(lines) + "\n")
    csv = ",".join(REPORT_FIELDS) + "\n" + ",".join(_fmt(metrics[k]) for k in REPORT_FIELDS) + "\n"
    _write_text(out / f"{stem}.csv", csv)


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
    splits = split(data, cfg["split.unlearn_fraction"], cfg["split.test_fraction"],
                   cfg["split.val_fraction"], cfg["seed"])
    save_splits(splits, out / "splits.csv")
    print(f"wrote {out / 'splits.csv'} (retain {len(splits.retain)}, unlearn {len(splits.unlearn)}, "
          f"test {len(splits.test)}, validation {len(splits.validation)})")
    return EXIT_OK


def cmd_pretrain(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "pretrain")
    data, splits = _load_data_splits(cfg, args)
    net = pretrain(data, splits, _contrastive_config(cfg), _parse_arch(cfg), _aug_config(cfg))
    save_encoder(net, out / "encoder.bin")
    print(f"wrote {out / 'encoder.bin'}")
    return EXIT_OK


def cmd_retrain(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "retrain")
    data, splits = _load_data_splits(cfg, args)
    net = retrain(data, splits, _contrastive_config(cfg), _parse_arch(cfg), _aug_config(cfg))
    save_encoder(net, out / "retrain.bin")
    print(f"wrote {out / 'retrain.bin'}")
    return EXIT_OK


def cmd_unlearn(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "unlearn")
    data, splits = _load_data_splits(cfg, args)
    enc_path = Path(args.encoder) if args.encoder else out / "encoder.bin"
    start = load_encoder(_require(enc_path, "encoder checkpoint"))
    method = cfg["unlearn.method"]
    aug = _aug_config(cfg)
    if method == "ac":
        net = run_ac(start, data, splits, _ac_config(cfg), aug)
    elif method == "retrain":
        raise ConfigurationError("use the retrain subcommand for exact unlearning")
    else:
        method_cfg = UnlearnMethod(
            name=method,
            epochs=cfg["unlearn.epochs"],
            lr=cfg["unlearn.lr"],
            temperature=cfg["unlearn.temperature"],
            momentum=cfg["unlearn.momentum"],
            weight_decay=cfg["unlearn.weight_decay"],
            retain_batch=cfg["unlearn.retain_batch"],
            unlearn_batch=cfg["unlearn.unlearn_batch"],
            l1_coeff=cfg["unlearn.l1_coeff"],
            ascent_weight=cfg["unlearn.ascent_weight"],
            seed=cfg["seed"],
        )
        net = run_baseline(start, data, splits, method_cfg, aug)
    save_encoder(net, out / "unlearned.bin")
    print(f"wrote {out / 'unlearned.bin'} (method {method})")
    return EXIT_OK


def cmd_probe(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "probe")
    data, splits = _load_data_splits(cfg, args)
    enc_path = Path(args.encoder) if args.encoder else out / "unlearned.bin"
    enc = load_encoder(_require(enc_path, "encoder checkpoint"))
    num_classes = int(data.labels.max()) + 1
    split_ids = (splits.retain, splits.test, splits.unlearn)
    logits = probe_logits(enc, data, split_ids, num_classes, _probe_config(cfg))
    ra, ta, ua = classifier_metrics(logits, [data.labels_for(ids) for ids in split_ids])
    lines = [f"ra={_fmt(ra)}", f"ta={_fmt(ta)}", f"ua={_fmt(ua)}"]
    _write_text(out / "probe.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {out / 'probe.txt'}")
    return EXIT_OK


def cmd_eval(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "eval")
    data, splits = _load_data_splits(cfg, args)
    candidate = load_encoder(_require(Path(args.candidate), "candidate checkpoint"))
    before = load_encoder(_require(Path(args.before), "pre-unlearning checkpoint"))
    encoders = {"candidate": candidate}
    if args.reference:
        encoders["reference"] = load_encoder(
            _require(Path(args.reference), "reference checkpoint"))
    # one pass: both encoders are scored on the same replayed views
    reports = evaluate(encoders, before, data, splits, _aug_config(cfg), _probe_config(cfg),
                       cfg["seed"])
    rep = reports["candidate"]
    _write_report_files(out, "report", rep.metrics())
    for k in REPORT_FIELDS:
        print(f"{k}={_fmt(rep.metrics()[k])}")
    print(f"runtime_seconds={rep.runtime_seconds:.3f}")
    if args.reference:
        ref = reports["reference"]
        _write_report_files(out, "reference_report", ref.metrics())
        gaps = gap_report(rep.metrics(), ref.metrics())
        lines = [f"gap.{k}={_fmt(v)}" for k, v in sorted(gaps.gaps.items())]
        lines.append(f"avg_gap={_fmt(gaps.avg_gap)}")
        lines.append(f"agp={_fmt(gaps.agp)}")
        _write_text(out / "gaps.txt", "\n".join(lines) + "\n")
        for line in lines:
            print(line)
    return EXIT_OK


def _load_dump_pair(path_x, path_y, what: str):
    ids_x, fx = read_feature_dump(_require(Path(path_x), f"{what} first-view dump"))
    ids_y, fy = read_feature_dump(_require(Path(path_y), f"{what} second-view dump"))
    if not np.array_equal(ids_x, ids_y):
        raise ConfigurationError(f"{what}: view dumps carry different sample ids")
    return ids_x, fx, fy


def cmd_audit(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "audit")
    dump_mode = args.before_x or args.after_x
    if dump_mode:
        needed = [args.before_x, args.before_y, args.after_x, args.after_y]
        if not all(needed):
            raise ConfigurationError(
                "dump-based audit needs all of --before-x --before-y --after-x --after-y")
        ids, bx, by = _load_dump_pair(args.before_x, args.before_y, "before")
        ids_a, ax, ay = _load_dump_pair(args.after_x, args.after_y, "after")
        if not np.array_equal(ids, ids_a):
            raise ConfigurationError("before/after dumps carry different sample ids")
    else:
        if not (args.before and args.after):
            raise ConfigurationError(
                "audit needs either four feature dumps or --before/--after checkpoints")
        data, splits = _load_data_splits(cfg, args)
        before_enc = load_encoder(_require(Path(args.before), "pre-unlearning checkpoint"))
        after_enc = load_encoder(_require(Path(args.after), "unlearned checkpoint"))
        ids = splits.unlearn
        vx, vy = paired_unlearn_views(data, ids, _aug_config(cfg), cfg["seed"])
        # both encoders run before any dump is written, so a failing one leaves none
        bx, by = encoder_forward(before_enc, vx), encoder_forward(before_enc, vy)
        ax, ay = encoder_forward(after_enc, vx), encoder_forward(after_enc, vy)
        for stem, fx, fy in (("before", bx, by), ("after", ax, ay)):
            write_feature_dump(out / f"{stem}_x.csv", ids, fx)
            write_feature_dump(out / f"{stem}_y.csv", ids, fy)

    fs, per_sample = forgetting_score_from_features(bx, by, ax, ay)
    agm = alignment_gap(alignment_matrix(bx, by, ids, ids),
                        alignment_matrix(ax, ay, ids, ids))
    write_matrix_csv(out / "agm.csv", agm.values, ids, ids)
    lo, hi = symmetric_range(agm.values)
    write_heatmap_pgm(out / "agm.pgm", agm.values, lo, hi)
    neg = neg_alignment_stats(agm, "full")
    lines = [
        f"fs={_fmt(fs)}",
        f"neg_mean={_fmt(neg.mean)}",
        f"neg_std={_fmt(neg.std)}",
        f"neg_n={neg.n}",
    ]

    if args.null_x or args.null_y:
        if not (args.null_x and args.null_y):
            raise ConfigurationError("null-model audit needs both --null-x and --null-y")
        ids_n, nx, ny = _load_dump_pair(args.null_x, args.null_y, "null")
        if not np.array_equal(ids, ids_n):
            raise ConfigurationError("null dumps carry different sample ids than the audit set")
        _, null_per = forgetting_score_from_features(bx, by, nx, ny)
        null_agm = alignment_gap(alignment_matrix(bx, by, ids, ids),
                                 alignment_matrix(nx, ny, ids, ids))
        pos_test = welch_ttest(SummaryStats.from_values(per_sample),
                               SummaryStats.from_values(null_per))
        neg_test = welch_ttest(neg, neg_alignment_stats(null_agm, "full"))
        for tag, res in (("pos", pos_test), ("neg", neg_test)):
            lines.append(f"{tag}_t={_fmt(res.t_statistic)}")
            lines.append(f"{tag}_df={_fmt(res.degrees_of_freedom)}")
            lines.append(f"{tag}_p={_fmt(res.p_value)}")
            lines.append(f"{tag}_reject_05={'yes' if res.p_value < 0.05 else 'no'}")

    _write_text(out / "audit.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {out / 'agm.csv'} and {out / 'agm.pgm'}")
    return EXIT_OK


def cmd_ttest(args) -> int:
    res = welch_ttest(SummaryStats(args.mean_a, args.std_a, args.n_a),
                      SummaryStats(args.mean_b, args.std_b, args.n_b))
    print(f"t={_fmt(res.t_statistic)}")
    print(f"df={_fmt(res.degrees_of_freedom)}")
    print(f"p={_fmt(res.p_value)}")
    return EXIT_OK


def cmd_report(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    candidate = _read_report(Path(args.candidate))
    reference = _read_report(Path(args.reference))
    gaps = gap_report(candidate, reference)
    lines = [f"gap.{k}={_fmt(v)}" for k, v in sorted(gaps.gaps.items())]
    lines.append(f"avg_gap={_fmt(gaps.avg_gap)}")
    lines.append(f"agp={_fmt(gaps.agp)}")
    _write_text(out / "gaps.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK


def _sweep_fs(start, data, splits, base: ACConfig, aug, alpha: float, beta: float,
              views, before, job_dir: Path) -> float:
    """FS of one grid cell's AC run; views and before are the replay views
    of the unlearn set and the start encoder's features of them."""
    cfg = dataclasses.replace(base, negpair_weight=alpha, forget_weight=beta)
    net = run_ac(start, data, splits, cfg, aug)
    job_dir.mkdir(parents=True, exist_ok=True)
    save_encoder(net, job_dir / "unlearned.bin")
    (vx, vy), (bx, by) = views, before
    fs, _ = forgetting_score_from_features(
        bx, by, encoder_forward(net, vx), encoder_forward(net, vy))
    return fs


def cmd_sweep(cfg: dict, args) -> int:
    out = _out_dir(cfg)
    _snapshot(cfg, out, "sweep")
    data, splits = _load_data_splits(cfg, args)
    enc_path = Path(args.encoder) if args.encoder else out / "encoder.bin"
    ref_path = Path(args.reference) if args.reference else out / "retrain.bin"
    start = load_encoder(_require(enc_path, "encoder checkpoint"))
    reference = load_encoder(_require(ref_path, "retrain checkpoint"))
    aug = _aug_config(cfg)

    vx, vy = paired_unlearn_views(data, splits.unlearn, aug, cfg["seed"])
    bx, by = encoder_forward(start, vx), encoder_forward(start, vy)
    fs_ref, _ = forgetting_score_from_features(
        bx, by, encoder_forward(reference, vx), encoder_forward(reference, vy))
    print(f"fs_retrain={_fmt(fs_ref)}")

    alphas = _parse_grid(cfg["sweep.negpair_weights"], "sweep.negpair_weights")
    betas = _parse_grid(cfg["sweep.forget_weights"], "sweep.forget_weights")
    base = _ac_config(cfg)
    scores = [_sweep_fs(start, data, splits, base, aug, a, b, (vx, vy), (bx, by),
                        out / "sweep" / f"a{a:g}_b{b:g}")
              for a in alphas for b in betas]

    # gap table: FS(candidate) - FS(retrain), one row per alpha
    lines = ["alpha/beta," + ",".join("%g" % b for b in betas)]
    it = iter(scores)
    for a in alphas:
        lines.append("%g," % a + ",".join(_fmt(next(it) - fs_ref) for _ in betas))
    _write_text(out / "fs_gap_grid.csv", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {out / 'fs_gap_grid.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="unlearnlab",
                                  description="contrastive unlearning laboratory")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text, data_flags=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", default=None, help="output directory")
        if data_flags:
            p.add_argument("--data", default=None, help="dataset csv (default <out>/dataset.csv)")
            p.add_argument("--splits", default=None, help="splits csv (default <out>/splits.csv)")
        return p

    add("gen-data", "generate or import a dataset", data_flags=False)
    add("split", "partition a dataset into retain/unlearn/test/validation",
        data_flags=False).add_argument("--data", default=None)
    add("pretrain", "contrastive pretraining on the train split")
    add("retrain", "exact unlearning: fresh pretraining on the retain split")
    p = add("unlearn", "run an approximate unlearning method")
    p.add_argument("--encoder", default=None, help="starting checkpoint (default <out>/encoder.bin)")
    p = add("probe", "fit a linear readout and report accuracies")
    p.add_argument("--encoder", default=None, help="encoder checkpoint (default <out>/unlearned.bin)")
    p = add("eval", "white-box evaluation of a candidate encoder")
    p.add_argument("--candidate", required=True, help="candidate checkpoint")
    p.add_argument("--before", required=True, help="pre-unlearning checkpoint")
    p.add_argument("--reference", default=None, help="retrain checkpoint for gap reporting")
    p = add("audit", "black-box data-owner audit from feature dumps or checkpoints")
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
    p = add("report", "metric gaps between two saved reports", data_flags=False)
    p.add_argument("--candidate", required=True, help="candidate report.txt")
    p.add_argument("--reference", required=True, help="reference report.txt")
    p = add("sweep", "calibration-weight grid of forgetting-score gaps to retraining")
    p.add_argument("--encoder", default=None, help="pretrained checkpoint (default <out>/encoder.bin)")
    p.add_argument("--reference", default=None, help="retrain checkpoint (default <out>/retrain.bin)")
    return top


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "split": cmd_split,
    "pretrain": cmd_pretrain,
    "retrain": cmd_retrain,
    "unlearn": cmd_unlearn,
    "probe": cmd_probe,
    "eval": cmd_eval,
    "audit": cmd_audit,
    "report": cmd_report,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ttest":
            return cmd_ttest(args)
        cfg = resolve_config(args.config, args.set, args.out)
        return _HANDLERS[args.command](cfg, args)
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
