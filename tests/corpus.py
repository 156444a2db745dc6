"""The binding corpus: small random feeders whose voltage limits cut the
band, so the single level's branch-and-bound has to work.

Each case is a ``randfeeders.random_context`` feeder named by its seed,
its impedance scale and the mode it is drawn and solved in: seeds 7200,
7201, 7202, 7208, 7210 and 7219 at z 2 and 3, plus 7233 and 7235 at z 3,
in each of the three modes, 42 cases in all.
"""

import numpy as np

from randfeeders import random_context

from flexgrid.feeder import MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR

BINDING_FEEDERS = [
    (seed, z_scale) for seed in (7200, 7201, 7202, 7208, 7210, 7219) for z_scale in (2.0, 3.0)
] + [(7233, 3.0), (7235, 3.0)]
BINDING_CORPUS = [
    (seed, z_scale, mode)
    for mode in (MODE_CONSTANT_PF, MODE_CONSTANT_Q, MODE_VOLT_VAR)
    for seed, z_scale in BINDING_FEEDERS
]


def corpus_context(seed, z_scale, mode):
    """The context of one corpus case."""
    return random_context(np.random.default_rng(seed), mode=mode, z_scale=z_scale)


def case_id(seed, z_scale, mode):
    """A case's name, such as ``7208-z2-constant-pf``."""
    return f"{seed}-z{z_scale:g}-{mode}"
