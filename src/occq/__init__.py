"""Offline RL through a contrastive model of where the agent ends up.

An InfoNCE-trained pair of encoders scores future states against
state-action anchors; reward-weighting the exponentiated scores yields Q
estimates, either directly or through a random cosine feature map that
caches all future-state work in one running vector.  A tanh-Gaussian or
categorical policy is decoded from those Q values with optional behavior
cloning, and exact tabular oracles validate every stage.

The package root exports nothing: import each name from its module.
"""
