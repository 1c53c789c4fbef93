"""Learned cost models (paper §2.1.2).

Models predicting plan execution latency from plan structure:

- :class:`LinearPlanCostModel` -- linear regression over flat plan
  features (the classic baseline the deep models are compared against);
- :class:`TreeConvCostModel` -- tree convolution over the plan tree
  (Marcus & Papaemmanouil [39]);
- :class:`TreeRecurrentCostModel` -- bottom-up recursive (Tree-LSTM-style)
  state propagation (Sun & Li [51]);
- :class:`ZeroShotCostModel` -- transferable per-operator features that
  generalize across databases (Hilprecht & Binnig [16]);
- :class:`ConcurrentCostModel` -- interference-aware prediction for
  concurrent query mixes (GPredictor [78] / Prestroid [20]).

All implement ``predict_latency(plan) -> float`` (milliseconds) plus
``fit(plans, latencies)``; plan featurization lives in
:mod:`repro.costmodel.features` and is shared with the end-to-end
optimizers' risk models.
"""

from repro.costmodel.features import (
    PlanFeaturizer,
    plan_to_tree_arrays,
    prefix_to_tree_arrays,
)
from repro.costmodel.linear_cost import LinearPlanCostModel
from repro.costmodel.treeconv_cost import TreeConvCostModel
from repro.costmodel.recurrent_cost import TreeRecurrentCostModel
from repro.costmodel.zeroshot import ZeroShotCostModel
from repro.costmodel.concurrent import ConcurrentCostModel, ConcurrentWorkload
from repro.costmodel.calibrated import CalibratedCostModel
from repro.costmodel.multitask import UnifiedTransferableModel
from repro.costmodel.embeddings import PlanAutoencoder

__all__ = [
    "CalibratedCostModel",
    "UnifiedTransferableModel",
    "PlanAutoencoder",
    "PlanFeaturizer",
    "plan_to_tree_arrays",
    "prefix_to_tree_arrays",
    "LinearPlanCostModel",
    "TreeConvCostModel",
    "TreeRecurrentCostModel",
    "ZeroShotCostModel",
    "ConcurrentCostModel",
    "ConcurrentWorkload",
]
