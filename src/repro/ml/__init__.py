"""Minimal-but-complete numpy ML toolkit used by every learned component.

The surveyed learned-query-optimizer literature uses small neural models
(MLPs, set convolutions, tree convolutions, masked autoregressive nets),
gradient-boosted trees and a few classic statistical models.  All of them are
small enough to train on CPU with plain numpy, which keeps this repository
free of GPU/framework dependencies while exercising the same algorithms.

What is here (the package re-exports the model classes; the ``nn`` pieces
are imported from :mod:`repro.ml.nn` by the few modules that build on them):

- :class:`repro.ml.nn.MLP` (ReLU hidden layers, standardized inputs, optional
  sigmoid output) over ``Dense`` / ``ReLU`` / ``Sigmoid`` / ``Sequential``,
  :class:`~repro.ml.nn.Adam` -- the one optimizer every fit loop uses -- and
  the MSE / MAE / BCE losses
- :class:`repro.ml.treeconv.TreeConvNet` -- tree convolution over plan trees
- :class:`repro.ml.setconv.SetConvNet` -- MSCN-style multi-set convolution
- :class:`repro.ml.autoregressive.MaskedAutoregressiveNetwork` -- MADE-style
  masked network and its progressive-sampling ``box_probability``, the one
  inference loop the Naru, NeuroCard and UAE estimators share
- :class:`repro.ml.gbdt.GradientBoostedTrees` -- regression GBDT held as one
  flat node table (``feature_`` / ``threshold_`` / ``children_`` / ``value_``
  + ``roots_``), fit from one presort, predicted level by level
- :class:`repro.ml.cluster.KMeans` -- k-means (used by Eraser plan clustering)
- :func:`repro.ml.chowliu.chow_liu_tree` -- Chow-Liu dependency tree
"""

from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.cluster import KMeans
from repro.ml.treeconv import TreeConvNet, PlanTreeBatch
from repro.ml.setconv import SetConvNet
from repro.ml.autoregressive import MaskedAutoregressiveNetwork
from repro.ml.chowliu import chow_liu_tree

__all__ = [
    "GradientBoostedTrees",
    "KMeans",
    "TreeConvNet",
    "PlanTreeBatch",
    "SetConvNet",
    "MaskedAutoregressiveNetwork",
    "chow_liu_tree",
]
