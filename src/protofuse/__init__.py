"""Prototype completion with Bayesian Gaussian fusion for few-shot
classification in a fixed embedding space."""

from .knowledge import (AttributeStats, PrimitiveKnowledge, average_cluster_variance,
                        compute_attribute_stats, compute_base_prototypes,
                        inject_knowledge_noise, load_knowledge, save_knowledge)
from .fusion import (DiagonalGaussian, fuse_prototypes, gaussian_product, mean_fuse,
                     soft_assign, weighted_gaussian_estimate, EPSILON_VARIANCE,
                     DEFAULT_LAMBDA)
from .completion import (CompletionNetParams, CompletionPlan, CompletionTask,
                         complete_prototype, sample_completion_tasks,
                         train_completion, save_model, load_model)
from .datagen import FewShotDataset, World, WorldSpec, generate_world, \
    load_embeddings, load_world, save_world
from .episodes import (Episode, EvalReport, MetaTrainConfig, MODES, evaluate,
                       evaluate_modes, meta_train, prototype_similarity_report,
                       rank_curve_report, sample_episode)
from .nn import ParamStore, SgdConfig, gradient_check, sgd_step

__version__ = "0.1.0"
