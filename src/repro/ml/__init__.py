"""Minimal-but-complete numpy ML toolkit used by every learned component.

The surveyed learned-query-optimizer literature uses small neural models
(MLPs, set convolutions, tree convolutions, masked autoregressive nets),
gradient-boosted trees and a few classic statistical models.  All of them are
small enough to train on CPU with plain numpy, which keeps this repository
free of GPU/framework dependencies while exercising the same algorithms.

Public surface:

- :class:`repro.ml.nn.MLP` and the layer/optimizer machinery in ``nn``
- :class:`repro.ml.treeconv.TreeConvNet` -- tree convolution over plan trees
- :class:`repro.ml.setconv.SetConvNet` -- MSCN-style multi-set convolution
- :class:`repro.ml.autoregressive.MaskedAutoregressiveNetwork` -- MADE-style
  masked network used by Naru-style estimators
- :class:`repro.ml.gbdt.GradientBoostedTrees` -- regression GBDT held as one
  flat node table (``feature_`` / ``threshold_`` / ``children_`` / ``value_``
  + ``roots_``), fit from one presort, predicted level by level
- :class:`repro.ml.cluster.KMeans` -- k-means (used by Eraser plan clustering)
- :func:`repro.ml.chowliu.chow_liu_tree` -- Chow-Liu dependency tree
"""

from repro.ml.nn import (
    Adam,
    Dense,
    Dropout,
    MLP,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    mse_loss,
    q_error_loss,
)
from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.cluster import KMeans
from repro.ml.treeconv import TreeConvNet, PlanTreeBatch, PlanTreeCorpus
from repro.ml.setconv import SetConvNet
from repro.ml.autoregressive import MaskedAutoregressiveNetwork
from repro.ml.chowliu import chow_liu_tree

__all__ = [
    "Adam",
    "Dense",
    "Dropout",
    "MLP",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "mse_loss",
    "q_error_loss",
    "GradientBoostedTrees",
    "KMeans",
    "TreeConvNet",
    "PlanTreeBatch",
    "PlanTreeCorpus",
    "SetConvNet",
    "MaskedAutoregressiveNetwork",
    "chow_liu_tree",
]
