"""Batch-learned LQ control and minimally perturbed data-poisoning attacks.

The package has two halves. The victim side samples a continuous-time LQ
plant under zero-order hold, identifies the dynamics from the batch, and
synthesizes an LQR gain. The attacker side rewrites the recorded states so
that the very same learning pipeline converges to a target gain of the
attacker's choosing, while perturbing the recorded states as little as
possible (an ADMM scheme splits the bilinear Riccati-feasibility
constraint across alternating convex subproblems).

Each name is imported from the module that defines it, for example
``from lqpoison.lq import care_solve``; the root holds only ``__version__``.
"""

__version__ = "0.1.0"
