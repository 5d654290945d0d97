"""repro — reproduction of "Chat with AI: The Surprising Turn of Real-time
Video Communication from Human to AI" (HotNets 2025).

Subpackages:

* :mod:`repro.core` — the paper's contribution: context-aware video
  streaming (Equations 1 and 2), the end-to-end AI Video Chat pipeline, and
  the Section 4 extensions.
* :mod:`repro.net` — the RTC transport substrate (event simulation, emulated
  paths, NACK/FEC/ABR/congestion control, jitter buffer) behind Figure 3.
* :mod:`repro.video` — the video substrate: synthetic scenes with semantic
  ground truth, a block-DCT codec with per-block QP, rate control.
* :mod:`repro.mllm` — the simulated MLLM side: concept embeddings, the
  MobileCLIP substitute, receiver-side sampling, tokenizers, the
  quality-gated answer model, inference latency, memory, mobile models.
* :mod:`repro.devibench` — the DeViBench construction pipeline, data model,
  evaluation harness, and Table 1 / Figure 8 statistics.
* :mod:`repro.analysis` — one experiment runner per paper table/figure.
"""

from . import analysis, core, devibench, mllm, net, video

__version__ = "1.0.0"

__all__ = ["analysis", "core", "devibench", "mllm", "net", "video", "__version__"]
