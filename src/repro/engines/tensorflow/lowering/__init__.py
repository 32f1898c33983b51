"""TensorFlow lowering backend: per-step graphs + manual placement.

Only the neuro plan lowers (and only through denoise); the paper did
not implement the astronomy use case in TensorFlow (Table 1).
"""
