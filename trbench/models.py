"""Fitted models for the workloads, cached by a digest of ``src/``.

Fitting is kept out of the workloads' set-up time: the first run in a
checkout fits every model in a child process (so the timed run starts from
a fresh JVM like every other run) and pickles them under
``trbench/.work/models/<digest>.pkl``. Any change to ``src/`` changes the
digest, and so does a change to this recipe, and either refits. The cache also holds the training probe's fixed sample
sets, featurised by the same code.
"""
from __future__ import annotations

import hashlib
import os
import pickle

FIT_SEED = 0  # city and initialisation seed of every fit, the training probe's too; workload inputs use other seeds
FIT_N_TRAJ = 400
MMA_EPOCHS = 4
TRMMA_EPOCHS = 2
D = 32  # the table jobs' model width
# the training probe's fixed sample sets: (MMA, TRMMA) samples per city
PROBE = {"pt": (40, 32), "bj": (120, 0)}


def src_digest(root: str) -> str:
    """Digest of the program's sources and of this fitting recipe."""
    h = hashlib.sha256()
    with open(__file__, "rb") as f:
        h.update(f.read())
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info"))
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                p = os.path.join(dirpath, fn)
                h.update(os.path.relpath(p, src).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cache_path(root: str, work: str) -> str:
    return os.path.join(work, "models", f"{src_digest(root)}.pkl")


def load(path: str) -> dict:
    with open(path, "rb") as f:
        return pickle.load(f)


def fit_all(spark, path: str) -> None:
    """Fit MMA + TRMMA on PT and MMA on BJ, plus the untrained all-segment
    decoder used only for decode timing, and write them to ``path``."""
    from repro.mma.train import mma_training_samples, train_mma
    from repro.roadnet.node2vec import node2vec_embeddings
    from repro.traj.datasets import build_city
    from repro.trmma.baselines import RNTrajRecRecoverer
    from repro.trmma.train import segment_time_stats_trajs, train_trmma, trmma_training_samples

    out = {}
    for name in ("pt", "bj"):
        city = build_city(spark, name, n_traj=FIT_N_TRAJ, seed=FIT_SEED)
        n2v = node2vec_embeddings(city.net, d=D, seed=FIT_SEED)
        mma_samples = mma_training_samples(city)
        n_mma, n_trmma = PROBE[name]
        entry = {"n2v": n2v, "probe_mma": mma_samples[:n_mma], "probe_trmma": [],
                 "mma": train_mma(city, epochs=MMA_EPOCHS, d=D, seed=FIT_SEED, n2v=n2v, samples=mma_samples)}
        if name == "pt":
            train = city.trajs("train")
            tpm = segment_time_stats_trajs(city.net, train, city.eps)
            samples = trmma_training_samples(city, time_per_meter=tpm, trajs=train)
            entry["tpm"] = tpm
            entry["probe_trmma"] = samples[:n_trmma]
            entry["trmma"] = train_trmma(city, epochs=TRMMA_EPOCHS, d_h=D, seed=FIT_SEED, n2v=n2v,
                                         time_per_meter=tpm, samples=samples)
            # decode cost does not depend on the weights, so the foil is not fitted
            entry["allseg"] = RNTrajRecRecoverer(city.net, city.index, city.norm, city.eps, d=D,
                                                 seed=FIT_SEED)
        out[name] = entry
        city.points.unpersist()
        city.routes.unpersist()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        pickle.dump(out, f)
    os.replace(tmp, path)
