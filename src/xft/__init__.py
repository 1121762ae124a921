"""Upcycle a dense transformer into a shared-expert MoE, fine-tune it, and
merge it back to a dense model with learnable mixing coefficients."""

__version__ = "0.1.0"
