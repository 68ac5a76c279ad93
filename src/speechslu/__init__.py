"""Desk-scale speech-LLM for spoken language understanding.

A frozen speech encoder feeds a trainable modality aligner whose output
is spliced into an instruction-following decoder adapted with LoRA.
Includes the prompt machinery, multi-strategy inference (single-shot,
transcribe-then-answer, multi-round), a multi-task training loop, the
dataset builders, and the full evaluation metric suite.
"""

from .aligner import ModalityAligner
from .audio import MelSpectrogram, log_mel, synthesize_mel
from .autograd import Tensor, backward
from .config import RunConfig, config_hash, load_config
from .decoder import InstructionDecoder, MultimodalSequence
from .encoder import SpeechEncoder
from .model import SluModel, load_model
from .optim import AdamWState, adamw_step
from .orchestrator import SluResult, infer
from .tokenizer import Vocabulary, build_vocabulary

__version__ = "0.1.0"

__all__ = [
    "AdamWState", "InstructionDecoder", "MelSpectrogram", "ModalityAligner",
    "MultimodalSequence", "RunConfig", "SluModel", "SluResult", "SpeechEncoder",
    "Tensor", "Vocabulary", "adamw_step", "backward", "build_vocabulary",
    "config_hash", "infer", "load_config", "load_model", "log_mel", "synthesize_mel",
]
