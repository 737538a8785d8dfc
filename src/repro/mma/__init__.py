"""MMA — Map MAtching (paper §IV).

Maps each GPS point of a sparse trajectory to a road segment by
classification over its top-``k_c`` candidate segments (Definition 8), then
stitches the matched segments into a route (Algorithm 1). Subpackages:

* :mod:`repro.mma.features` — candidate sets + the directional cosine
  features of §IV-B.
* :mod:`repro.mma.model` — the point/candidate embedding network (Eqs. 1-9).
* :mod:`repro.mma.train` — driver-side training loop (Eq. 10 objective).
* :mod:`repro.mma.infer` — Spark ``mapInPandas`` batched inference.
* :mod:`repro.mma.baselines` — Nearest, FMM (HMM/Viterbi), LHMM-lite,
  DeepMM-lite, GraphMM-lite, RNTrajRec-route-lite.
"""
from repro.mma.model import MMAModel  # noqa: F401
from repro.mma.train import train_mma  # noqa: F401
