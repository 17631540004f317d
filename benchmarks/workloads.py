"""The benchmark's workloads: CLI calls for set-up and for the timed
part, the config each runs under, and the checks on their outputs.

Arguments may name the set-up directory as {S} and the round directory as
{R}. Each step's `kind` says which end-to-end metric its wall time feeds.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Step:
    command: str
    args: list = field(default_factory=list)
    kind: str = ""  # pretrain | unlearn | eval | audit | dump_audit, or "" for none


@dataclass
class Workload:
    name: str
    config: dict
    setup: list
    timed: list
    checks: list  # functions (Ctx) -> list of (check name, ok, detail)


_DATA = ["--data", "{S}/dataset.csv", "--splits", "{S}/splits.csv"]
_SETUP = [Step("gen-data", ["--out", "{S}"]), Step("split", ["--out", "{S}"])]
# Pretrain, exact retraining, and unlearning (unlearn.method in the config).
_TRAIN = [
    Step("pretrain", ["--out", "{R}", *_DATA], kind="pretrain"),
    Step("retrain", ["--out", "{R}", *_DATA], kind="pretrain"),
    Step("unlearn", ["--out", "{R}", *_DATA, "--encoder", "{R}/encoder.bin"], kind="unlearn"),
]


def _judge(cand: str, before: str, ref: str, reps: int = 1, dump_reps: int = 1) -> list:
    """Evaluate a candidate against the retrained reference, audit it from
    checkpoints, then audit it again from the dumps alone, with the dumps of
    an audit of the reference as the null model. Calls
    that take well under a second on small data are repeated (eval and
    checkpoint audits `reps` times, the dump audit `dump_reps` times), so
    each of their metrics times enough work in one round. A repeat writes
    into its own directory rather than over the first call's outputs."""
    def out(base, k):
        return ["--out", base if k == 0 else f"{base}/rep{k}"]

    steps = [Step("eval", [*out("{R}", k), *_DATA, "--candidate", cand, "--before", before,
                           "--reference", ref], kind="eval") for k in range(reps)]
    steps += [Step("audit", [*out("{R}", k), *_DATA, "--before", before, "--after", cand],
                   kind="audit") for k in range(reps)]
    steps += [Step("audit", [*out("{R}/null", k), *_DATA, "--before", before, "--after", ref],
                   kind="audit") for k in range(reps)]
    dumps = []
    for side, base in (("before", "{R}/before"), ("after", "{R}/after"),
                       ("null", "{R}/null/after")):
        dumps += [f"--{side}-x", f"{base}_x.csv", f"--{side}-y", f"{base}_y.csv"]
    return steps + [Step("audit", [*out("{R}/dump", k), *dumps], kind="dump_audit")
                    for k in range(dump_reps)]


# --- output checks -------------------------------------------------------------

def _lines(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition("=")
        out[key] = val
    return out


def check_dump_audit_matches(ctx) -> list:
    """The audit from shared dumps reproduces the checkpoint audit bytewise."""
    r = ctx.round_dir
    same_agm = (r / "agm.csv").read_bytes() == (r / "dump" / "agm.csv").read_bytes()
    ckpt, dump = _lines(r / "audit.txt"), _lines(r / "dump" / "audit.txt")
    keys = ("fs", "neg_mean", "neg_std", "neg_n")
    same_lines = all(k in ckpt and ckpt[k] == dump.get(k) for k in keys)
    return [("dump_agm_identical", same_agm, "agm.csv differs"),
            ("dump_audit_lines_identical", same_lines, f"{ckpt} vs {dump}")]


def check_report(ctx) -> list:
    fields = _lines(ctx.round_dir / "report.txt")
    expected = ("fs", "emia", "cmia", "ra", "ta", "ua")
    ok = tuple(fields) == expected and all(math.isfinite(float(fields[k])) for k in expected)
    return [("report_six_finite_fields", ok, str(fields))]


def check_pretrain_lowers_infonce(ctx) -> list:
    """InfoNCE of the trained encoder on a held-out test batch is below that
    of the untrained encoder pretraining starts from."""
    p = ctx.pkg
    data = p["datagen"].load_dataset(str(ctx.setup_dir / "dataset.csv"))
    splits = p["datagen"].load_splits(str(ctx.setup_dir / "splits.csv"))
    ids = splits.test[:128]
    aug = p["datagen"].AugmentorConfig()
    xs, ys = p["datagen"].paired_views_for_ids(data, ids, aug, ctx.seed, 0)
    batch = p["numpy"].vstack([xs, ys])
    config = _lines(ctx.round_dir / "config.pretrain.txt")
    arch = [int(d) for d in config["arch"].split(",")]
    fresh = p["diffcore"].init_encoder(arch, seed=(ctx.seed, p["seeds"].NET_INIT))
    trained = p["persist"].load_encoder(str(ctx.round_dir / "encoder.bin"))
    tau = float(config["pretrain.temperature"])
    loss = {name: p["contrastive"].info_nce_batch(p["diffcore"].encoder_forward(net, batch), tau)
            for name, net in (("fresh", fresh), ("trained", trained))}
    return [("pretrain_lowers_heldout_infonce", loss["trained"] < loss["fresh"], str(loss))]


def check_checkpoint_resaves(ctx) -> list:
    """Loading encoder.bin and saving it again gives the same bytes."""
    persist = ctx.pkg["persist"]
    src = ctx.round_dir / "encoder.bin"
    copy = ctx.round_dir / "resaved.bin"
    persist.save_encoder(persist.load_encoder(str(src)), str(copy))
    same = copy.read_bytes() == src.read_bytes()
    return [("checkpoint_resaves_identically", same, str(src))]


# --- the workloads -------------------------------------------------------------

PIPELINE = Workload(
    name="pipeline",
    config={"data.clusters": "5", "data.dim": "16", "data.count": "2000", "arch": "16,32,16",
            "pretrain.epochs": "5", "unlearn.method": "ac", "unlearn.epochs": "3"},
    setup=_SETUP,
    timed=[
        *_TRAIN,
        Step("probe", ["--out", "{R}", *_DATA, "--encoder", "{R}/unlearned.bin"]),
        *_judge("{R}/unlearned.bin", "{R}/encoder.bin", "{R}/retrain.bin", reps=2, dump_reps=6),
    ],
    checks=[check_pretrain_lowers_infonce, check_report, check_dump_audit_matches],
)

WIDE_ENCODER = Workload(
    name="wide-encoder",
    config={"data.clusters": "10", "data.dim": "3072", "data.count": "300",
            "arch": "3072,1024,128", "aug.image_mode": "true",
            "pretrain.epochs": "3", "unlearn.method": "ac", "unlearn.epochs": "1"},
    setup=_SETUP,
    timed=[
        *_TRAIN,
        *_judge("{R}/unlearned.bin", "{R}/encoder.bin", "{R}/retrain.bin", dump_reps=12),
    ],
    checks=[check_checkpoint_resaves, check_dump_audit_matches],
)

WORKLOADS = {w.name: w for w in (PIPELINE, WIDE_ENCODER)}
