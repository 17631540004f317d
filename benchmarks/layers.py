"""Which program functions the traced run wraps, and the per-layer
metrics built from the spans they record.

One layer per package module. Every public function a module imports
from another package module is rebound in the importing module, so a
span sits at each module boundary. A few module-internal names are
rebound as well, where one layer's own steps are worth telling apart
(the evaluation suite's probe, membership attacks and forgetting score),
together with the loss-callable factories and the PairTerms methods.

A metric whose bindings no longer exist is left out of the result
instead of failing the run; `missing` lists the bindings.
"""

import os
import types
from collections import defaultdict

from spans import Patches, Tracer, has_ancestor_named, root_of, self_times

MODULES = ("cli", "datagen", "diffcore", "contrastive", "unlearn", "evalsuite", "persist")

# Module-internal names the import scan does not reach: the steps of
# full_report.
_INTERNAL = ("linear_probe", "encoder_mi_efficacy", "cmia_efficacy", "forgetting_score")
# Loss-callable factories: each callable they return runs in a span.
_FACTORIES = {
    ("contrastive", "info_nce_loss_fn"): "contrastive.loss",
    ("unlearn", "info_nce_loss_fn"): "unlearn.loss",
    ("unlearn", "ac_stack_loss_fn"): "unlearn.loss",
}
_METHODS = {
    "add_log_sum_exp": "contrastive.lse",
    "add_pair_mean": "contrastive.pair_mean",
    "result": "contrastive.result",
}

# Per-layer metric -> bindings it needs ("module.name").
REQUIRES = {
    "datagen.train_views_s": ["contrastive.paired_views_for_ids", "unlearn.paired_views_for_ids"],
    "datagen.dataset_io_s": ["cli.load_dataset", "cli.load_splits", "cli.save_dataset",
                             "cli.save_splits"],
    "diffcore.fwd_bwd_s": ["contrastive.loss_and_grads", "unlearn.loss_and_grads",
                           "evalsuite.loss_and_grads", "contrastive.info_nce_loss_fn",
                           "unlearn.info_nce_loss_fn", "unlearn.ac_stack_loss_fn"],
    "diffcore.opt_s": ["contrastive.sgd_momentum_step", "unlearn.sgd_momentum_step",
                       "evalsuite.sgd_momentum_step"],
    "diffcore.forward_s": ["cli.encoder_forward", "unlearn.encoder_forward",
                           "evalsuite.encoder_forward"],
    "contrastive.loss_s": ["contrastive.info_nce_loss_fn"],
    "contrastive.lse_s": ["contrastive.PairTerms.add_log_sum_exp"],
    "contrastive.pair_mean_s": ["contrastive.PairTerms.add_pair_mean"],
    "contrastive.result_s": ["contrastive.PairTerms.result"],
    "unlearn.loss_s": ["unlearn.info_nce_loss_fn", "unlearn.ac_stack_loss_fn"],
    "unlearn.views_s": ["unlearn.paired_views_for_ids"],
    "unlearn.ac_s": ["cli.run_ac"],
    "evalsuite.probe_s": ["cli.linear_probe", "evalsuite.linear_probe"],
    "evalsuite.mi_s": ["evalsuite.encoder_mi_efficacy", "evalsuite.cmia_efficacy"],
    "evalsuite.fs_s": ["evalsuite.forgetting_score", "cli.forgetting_score_from_features"],
    "evalsuite.replay_views_s": ["evalsuite.augment_views"],
    "evalsuite.alignment_s": ["cli.alignment_matrix", "cli.alignment_gap",
                              "cli.neg_alignment_stats"],
    "evalsuite.ttest_s": ["cli.welch_ttest"],
    "persist.ckpt": ["cli.save_encoder", "cli.load_encoder"],
    "persist.dump": ["cli.write_feature_dump", "cli.read_feature_dump"],
    "persist.matrix": ["cli.write_matrix_csv", "cli.write_heatmap_pgm"],
}
# Reported metrics that share the bindings of another entry above.
_SHARES = {
    "datagen.train_view_rows": "datagen.train_views_s",
    "datagen.train_view_unique_ratio": "datagen.train_views_s",
    "datagen.dataset_bytes": "datagen.dataset_io_s",
    "diffcore.steps": "diffcore.opt_s",
    "diffcore.opt_bytes_computed": "diffcore.opt_s",
    "diffcore.gflops_computed": "diffcore.fwd_bwd_s",
    "diffcore.gflop_per_s": "diffcore.fwd_bwd_s",
    "diffcore.forward_rows": "diffcore.forward_s",
    "evalsuite.replay_view_rows": "evalsuite.replay_views_s",
    "persist.ckpt_write_s": "persist.ckpt", "persist.ckpt_read_s": "persist.ckpt",
    "persist.ckpt_bytes": "persist.ckpt",
    "persist.dump_write_s": "persist.dump", "persist.dump_read_s": "persist.dump",
    "persist.dump_bytes": "persist.dump",
    "persist.matrix_write_s": "persist.matrix", "persist.pgm_write_s": "persist.matrix",
    "persist.matrix_bytes": "persist.matrix",
}


# --- counts taken at span boundaries -------------------------------------------

def _file_bytes(args, kwargs, out):
    """Size of the first argument that names an existing file."""
    for a in list(args) + list(kwargs.values()):
        if isinstance(a, (str, os.PathLike)) and os.path.isfile(a):
            return {"bytes": os.path.getsize(a)}
    return {}


def _layer_sizes(net):
    return [(la.w.shape[0], la.w.shape[1]) for la in net.layers]


def _rows(batch) -> int:
    return 1 if getattr(batch, "ndim", 2) == 1 else len(batch)


def _forward_counts(args, kwargs, out):
    rows = _rows(args[1])
    macs = sum(i * o for i, o in _layer_sizes(args[0]))
    return {"rows": rows, "flops": 2 * rows * macs}


def _train_counts(args, kwargs, out):
    """Forward, weight gradients, and input gradients of every layer but
    the first (the backward pass never forms the gradient of the data)."""
    rows = _rows(args[1])
    sizes = _layer_sizes(args[0])
    macs = sum(i * o for i, o in sizes)
    return {"rows": rows, "flops": 2 * rows * (2 * macs + sum(i * o for i, o in sizes[1:]))}


def _opt_counts(args, kwargs, out):
    """Least traffic of one momentum update: read grad, param and buffer,
    write buffer and param, float64 each."""
    params = sum(p.size for p in args[0].param_arrays())
    return {"bytes": 5 * 8 * params}


def _view_counts(args, kwargs, out):
    ids, seed, epoch = args[1], args[3], args[4]
    return {"rows": 2 * len(ids),
            "keys": [(int(seed), int(i), int(epoch)) for i in ids]}


def _replay_counts(args, kwargs, out):
    return {"rows": int(args[2])}


_COUNTERS = {
    "datagen.paired_views_for_ids": _view_counts,
    "datagen.augment_views": _replay_counts,
    "datagen.load_dataset": _file_bytes, "datagen.load_splits": _file_bytes,
    "datagen.save_dataset": _file_bytes, "datagen.save_splits": _file_bytes,
    "diffcore.encoder_forward": _forward_counts,
    "diffcore.loss_and_grads": _train_counts,
    "diffcore.sgd_momentum_step": _opt_counts,
    **{f"persist.{n}": _file_bytes for n in (
        "save_encoder", "load_encoder", "write_feature_dump", "read_feature_dump",
        "write_matrix_csv", "write_heatmap_pgm")},
}


# --- installing wrappers -------------------------------------------------------

def install(tracer: Tracer, pkg: dict) -> Patches:
    """Rebind traced versions of every target into the package modules.
    pkg maps a short module name to the imported module object."""
    patches = Patches()

    def plain(name):
        return lambda fn: tracer.wrap(name, fn, _COUNTERS.get(name))

    for attr in _INTERNAL:
        patches.rebind(pkg.get("evalsuite"), attr, plain(f"evalsuite.{attr}"), f"evalsuite.{attr}")
    for (mod, attr), name in _FACTORIES.items():
        patches.rebind(pkg.get(mod), attr, lambda f, n=name: tracer.wrap_factory(n, f),
                       f"{mod}.{attr}")
    pair_terms = getattr(pkg.get("contrastive"), "PairTerms", None)
    for attr, name in _METHODS.items():
        patches.rebind(pair_terms, attr, plain(name), f"contrastive.PairTerms.{attr}")

    handled = set(_FACTORIES)
    for mod in MODULES:
        module = pkg.get(mod)
        if module is None:
            continue
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or (mod, attr) in handled:
                continue
            if not isinstance(obj, types.FunctionType):
                continue
            home = obj.__module__.rpartition(".")[2]
            if home == mod or home not in MODULES:
                continue
            patches.rebind(module, attr, plain(f"{home}.{obj.__name__}"), f"{mod}.{attr}")
    patches.missing = sorted({b for need in REQUIRES.values() for b in need} - set(patches.bound))
    return patches


# --- per-layer metrics from one round's spans ----------------------------------

class _Round:
    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        self.by_name = defaultdict(list)
        for i, sp in enumerate(spans):
            self.by_name[sp.name].append(i)

    def ids(self, *names, where=None):
        out = [i for n in names for i in self.by_name.get(n, ())]
        return [i for i in out if where is None or where(i)]

    def time(self, *names, where=None) -> float:
        """Duration of the outermost spans among names (a span nested in
        another of the same names is already inside its time)."""
        total = 0.0
        for i in self.ids(*names, where=where):
            if not any(has_ancestor_named(self.spans, i, n) for n in names):
                total += self.spans[i].duration
        return total

    def total(self, key: str, *names, where=None):
        return sum(self.spans[i].attrs.get(key, 0) for i in self.ids(*names, where=where))


def layer_metrics(spans, missing=()) -> dict:
    """Per-layer metric values for one traced round. spans' roots are the
    CLI calls (named cli.<command>)."""
    r = _Round(spans)
    roots = [i for i, sp in enumerate(spans) if sp.parent < 0]
    stage = {i: spans[root_of(spans, i)].name for i in range(len(spans))}
    unlearning = lambda i: stage[i] == "cli.unlearn"
    views = "datagen.paired_views_for_ids"
    keys = [k for i in r.ids(views) for k in spans[i].attrs.get("keys", ())]
    fwd_bwd = sum(r.selfs[i] for i in r.ids("diffcore.loss_and_grads"))
    gflops = r.total("flops", "diffcore.loss_and_grads") / 1e9
    m = {
        "cli.self_s": sum(r.selfs[i] for i in roots),
        "cli.calls": len(roots),
        "datagen.train_views_s": r.time(views),
        "datagen.train_view_rows": r.total("rows", views),
        "datagen.train_view_unique_ratio": len(set(keys)) / len(keys) if keys else 0.0,
        "datagen.dataset_io_s": r.time("datagen.load_dataset", "datagen.load_splits",
                                       "datagen.save_dataset", "datagen.save_splits"),
        "datagen.dataset_bytes": r.total("bytes", "datagen.load_dataset", "datagen.load_splits",
                                         "datagen.save_dataset", "datagen.save_splits"),
        "diffcore.fwd_bwd_s": fwd_bwd,
        "diffcore.opt_s": r.time("diffcore.sgd_momentum_step"),
        "diffcore.steps": len(r.ids("diffcore.sgd_momentum_step")),
        "diffcore.gflops_computed": gflops,
        "diffcore.gflop_per_s": gflops / fwd_bwd if fwd_bwd > 0 else 0.0,
        "diffcore.opt_bytes_computed": r.total("bytes", "diffcore.sgd_momentum_step"),
        "diffcore.forward_s": r.time("diffcore.encoder_forward"),
        "diffcore.forward_rows": r.total("rows", "diffcore.encoder_forward"),
        "contrastive.loss_s": r.time("contrastive.loss"),
        "contrastive.lse_s": r.time("contrastive.lse"),
        "contrastive.pair_mean_s": r.time("contrastive.pair_mean"),
        "contrastive.result_s": r.time("contrastive.result"),
        "unlearn.loss_s": r.time("unlearn.loss"),
        "unlearn.views_s": r.time(views, where=unlearning),
        "unlearn.ac_s": r.time("unlearn.run_ac"),
        "evalsuite.probe_s": r.time("evalsuite.linear_probe"),
        "evalsuite.mi_s": r.time("evalsuite.encoder_mi_efficacy", "evalsuite.cmia_efficacy"),
        "evalsuite.fs_s": r.time("evalsuite.forgetting_score",
                                 "evalsuite.forgetting_score_from_features"),
        "evalsuite.replay_views_s": r.time("datagen.augment_views"),
        "evalsuite.replay_view_rows": r.total("rows", "datagen.augment_views"),
        "evalsuite.alignment_s": r.time("evalsuite.alignment_matrix", "evalsuite.alignment_gap",
                                        "evalsuite.neg_alignment_stats"),
        "evalsuite.ttest_s": r.time("evalsuite.welch_ttest"),
        "persist.ckpt_write_s": r.time("persist.save_encoder"),
        "persist.ckpt_read_s": r.time("persist.load_encoder"),
        "persist.ckpt_bytes": r.total("bytes", "persist.save_encoder", "persist.load_encoder"),
        "persist.dump_write_s": r.time("persist.write_feature_dump"),
        "persist.dump_read_s": r.time("persist.read_feature_dump"),
        "persist.dump_bytes": r.total("bytes", "persist.write_feature_dump",
                                      "persist.read_feature_dump"),
        "persist.matrix_write_s": r.time("persist.write_matrix_csv"),
        "persist.pgm_write_s": r.time("persist.write_heatmap_pgm"),
        "persist.matrix_bytes": r.total("bytes", "persist.write_matrix_csv",
                                        "persist.write_heatmap_pgm"),
    }
    absent = {k for k, need in REQUIRES.items() if set(need) & set(missing)}
    return {k: v for k, v in m.items() if k not in absent and _SHARES.get(k) not in absent}

