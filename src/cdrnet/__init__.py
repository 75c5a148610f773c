"""Weekly CDR behavior tensors, a small from-scratch ConvNet, and two
user-level prediction heads (softmax averaging and linear-SVM-on-features),
with a synthetic data generator for end-to-end checks.
"""
