"""Architecture metadata for decoder-only LLMs (OPT / BLOOM families).

Everything the cost models need — parameter counts, FLOP counts, KV-cache
sizes — derives from a handful of public architecture numbers captured in
:class:`ModelConfig`.  The symbols follow the paper's notation (Table 2):
``h1`` is the hidden dimension, ``v`` the prompt length, ``b`` the batch
size, ``t`` the bitwidth.

FLOP accounting for one decoder layer processing ``q`` query tokens
against a context of ``c`` total tokens (per sequence):

====================  =========================
QKV projections       ``6 * q * h1**2``
attention scores+mix  ``4 * q * c * h1``
output projection     ``2 * q * h1**2``
MLP (two matmuls)     ``2 * q * h1 * ffn * 2``
====================  =========================

Prefill sets ``q = c = s`` (prompt length); each decode step sets
``q = 1`` and ``c`` = current context length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = ["ModelConfig", "LayerShape"]


@dataclass(frozen=True)
class LayerShape:
    """Shapes of the weight matrices inside one decoder layer.

    Each entry is ``(rows, cols)`` of a dense weight; quantization theory
    (Theorem 1) consumes these as ``D_W`` (input dimension) per operator.
    """

    hidden: int
    ffn: int

    @property
    def operators(self) -> dict[str, tuple[int, int]]:
        """Name -> (rows, cols) of each dense weight."""
        h, f = self.hidden, self.ffn
        return {
            "q_proj": (h, h),
            "k_proj": (h, h),
            "v_proj": (h, h),
            "out_proj": (h, h),
            "fc1": (h, f),
            "fc2": (f, h),
        }

    @cached_property
    def linear_params(self) -> int:
        """Total parameters across the dense operators."""
        return sum(r * c for r, c in self.operators.values())


@dataclass(frozen=True)
class ModelConfig:
    """Decoder-only transformer architecture description.

    Attributes
    ----------
    name:
        Canonical key, e.g. ``"opt-30b"``.
    num_layers:
        Number of decoder layers (``L`` in the paper).
    hidden_size:
        Model width ``h1``.
    num_heads:
        Attention heads; must divide ``hidden_size``.
    ffn_dim:
        MLP inner width (4x hidden for both OPT and BLOOM).
    vocab_size:
        Token vocabulary (``vocab_s``).
    max_position_embeddings:
        Learned position table length; 0 for ALiBi models (BLOOM).
    tie_word_embeddings:
        Whether the LM head reuses the token-embedding matrix.
    """

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    ffn_dim: int
    vocab_size: int
    max_position_embeddings: int = 2048
    tie_word_embeddings: bool = True

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.hidden_size <= 0:
            raise ValueError(f"{self.name}: layers and hidden must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(f"{self.name}: heads must divide hidden size")

    def check_positions(self, prompt_len: int, gen_len: int) -> None:
        """Raise ``ValueError`` unless a request fits the learned position
        table: its last embedded position is ``prompt_len + gen_len - 2``,
        so ``prompt_len + gen_len - 1 <= max_position_embeddings``.
        ALiBi models (``max_position_embeddings == 0``) have no table."""
        limit = self.max_position_embeddings
        if limit > 0 and prompt_len + gen_len - 1 > limit:
            raise ValueError(
                f"{self.name} embeds at most {limit} positions: prompt_len "
                f"+ gen_len - 1 must be <= {limit}, got {prompt_len} + "
                f"{gen_len} - 1 = {prompt_len + gen_len - 1}"
            )

    # ------------------------------------------------------------------
    # Parameter counts
    #
    # Pure functions of the frozen fields, so the ones the cost models
    # query per layer are computed once per instance: ``cached_property``
    # writes the instance ``__dict__`` directly, which a frozen dataclass
    # allows, and equality, hashing and ``dataclasses.replace`` see the
    # fields only, so a replaced config starts with nothing cached.
    # ------------------------------------------------------------------
    @property
    def head_dim(self) -> int:
        """Per-head attention width."""
        return self.hidden_size // self.num_heads

    @cached_property
    def layer_shape(self) -> LayerShape:
        """Dense-operator shapes of one decoder layer."""
        return LayerShape(hidden=self.hidden_size, ffn=self.ffn_dim)

    @cached_property
    def params_per_layer(self) -> int:
        """Parameters in one decoder layer (linears + biases + 2 LN)."""
        h, f = self.hidden_size, self.ffn_dim
        linears = self.layer_shape.linear_params
        biases = 4 * h + f + h  # qkv/out biases + fc1/fc2 biases
        layernorms = 2 * 2 * h
        return linears + biases + layernorms

    @property
    def embedding_params(self) -> int:
        """Token + position embedding parameters (the model 'head')."""
        tok = self.vocab_size * self.hidden_size
        pos = self.max_position_embeddings * self.hidden_size
        return tok + pos

    @property
    def lm_head_params(self) -> int:
        """Output projection to the vocabulary (the model 'tail')."""
        if self.tie_word_embeddings:
            return 0
        return self.vocab_size * self.hidden_size

    @property
    def total_params(self) -> int:
        """Whole-model parameter count."""
        return (
            self.num_layers * self.params_per_layer
            + self.embedding_params
            + self.lm_head_params
            + 2 * self.hidden_size  # final layer norm
        )

    # ------------------------------------------------------------------
    # FLOP counts (per whole batch)
    # ------------------------------------------------------------------
    def layer_flops(self, batch: int, q: int, context: int) -> float:
        """FLOPs of one decoder layer for ``batch`` sequences.

        ``q`` query tokens each attend to ``context`` total tokens.
        """
        if batch < 0 or q < 0 or context < 0:
            raise ValueError("batch/q/context must be non-negative")
        h, f = self.hidden_size, self.ffn_dim
        proj = 8.0 * q * h * h  # QKV (6qh^2) + out (2qh^2)
        attn = 4.0 * q * context * h
        mlp = 4.0 * q * h * f
        return batch * (proj + attn + mlp)

    def prefill_layer_flops(self, batch: int, prompt_len: int) -> float:
        """One layer's prefill FLOPs (q = c = prompt length)."""
        return self.layer_flops(batch, prompt_len, prompt_len)

    def decode_layer_flops(self, batch: int, context: int) -> float:
        """One layer's FLOPs for a single decode step at ``context``."""
        return self.layer_flops(batch, 1, context)

    def embedding_flops(self, batch: int, q: int) -> float:
        """Logit-projection FLOPs (embedding lookup itself is free)."""
        return 2.0 * batch * q * self.hidden_size * self.vocab_size

    # ------------------------------------------------------------------
    # Memory-traffic helpers (MOPs in the paper's terminology)
    # ------------------------------------------------------------------
    def kv_bytes_per_token_per_layer(self, kv_bits: int = 16) -> float:
        """Bytes of K+V cache one token adds at one layer."""
        return 2.0 * self.hidden_size * kv_bits / 8.0

    def activation_bytes(self, batch: int, q: int, act_bits: int = 16) -> float:
        """Bytes of one hidden-state tensor (the inter-stage activation)."""
        return batch * q * self.hidden_size * act_bits / 8.0

    def layer_weight_bytes(self, bits: int) -> float:
        """Weight bytes of one decoder layer at the given bitwidth.

        Sub-16-bit layers carry per-channel FP16 scale/zero metadata for
        every linear operator; layer norms and biases stay FP16.
        """
        # per-instance memo, written the way ``cached_property`` writes
        memo = self.__dict__.setdefault("_layer_weight_bytes", {})
        if bits not in memo:
            shape = self.layer_shape
            linear_bytes = shape.linear_params * bits / 8.0
            meta = 0.0
            if bits < 16:
                # scale + zero point per output channel, FP16 each.
                meta = sum(2 * 2 * cols for _, cols in shape.operators.values())
            other = (self.params_per_layer - shape.linear_params) * 2.0
            memo[bits] = linear_bytes + meta + other
        return memo[bits]

    def embedding_weight_bytes(self, bits: int = 16) -> float:
        """Embedding + LM head bytes (kept FP16 in the paper's runtime)."""
        del bits  # embeddings are never quantized
        params = self.embedding_params + self.lm_head_params + 2 * self.hidden_size
        return params * 2.0
