"""Box-prompted pseudo-label refinement for partially labeled 3D segmentation.

A library and CLI covering the non-neural machinery of an iterative
specialist/generalist pseudo-labeling loop: box-prompt generation,
pseudo-label refinement, voxel-level selection losses, evaluation metrics,
partial-label simulation, and the round orchestrator.  Segmentation models
sit behind oracle interfaces; synthetic phantom oracles run everything at
desk scale and a file-exchange oracle bridges to real models.
"""

from .errors import PromptsegError
from .metrics import dice, evaluate_scan, hd95, summarize
from .oracles import FileOracle, GeneralistOracle, SpecialistOracle, TrainingExample
from .phantom import (PhantomGeneralist, PhantomRegistry, PhantomSpecialist,
                      generate_phantom, make_phantom_suite)
from .pipeline import (PipelineConfig, RunResult, ScanSupervision,
                       run_pipeline, simulate_partial_labels)
from .prompting import (Box2D, BoxPromptPair, bbox_2d, make_box_prompts,
                        median_foreground_slice, pad_box)
from .refinement import (OrganRefinementState, RefinementConfig,
                         RefinementResult, build_roi, refine_pseudo_label)
from .vls_loss import (SupervisionTarget, masked_cross_entropy,
                       masked_soft_dice, vls_mask)
from .volgrid import (LabelMap, ProbVolume, Volume, argmax_labelmap,
                      class_mask, paste_mask, softmax_from_logits, voxel_entropy)

__version__ = "0.1.0"
