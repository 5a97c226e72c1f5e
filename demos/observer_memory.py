"""Observers only remember outcomes along axes their memory encodes.

Each observer state is tied to one spin direction. A bare spin projector
never commutes with the physical projector of such a space, so "the spin
is up along z" is not a physical statement on its own; paired with the
matching observer record it becomes conditionally realizable.
"""

import numpy as np

from physborn.model import is_physically_possible
from physborn.scenarios import build_sg_observer_space
from physborn.verify import conditionally_realizable

AXES = {
    "+z": (0.0, 0.0, 1.0),
    "-z": (0.0, 0.0, -1.0),
    "+x": (1.0, 0.0, 0.0),
    "-x": (-1.0, 0.0, 0.0),
}

space = build_sg_observer_space(list(AXES.values()))
eye_obs = np.eye(len(AXES), dtype=complex)

print("four-direction observer space, bare spin predicates:")
for i, name in enumerate(AXES):
    full = np.kron(eye_obs, space.spin_projector(i))
    ok = is_physically_possible(space.model, space.fam, full, 0)
    print(f"  spin {name}: physically possible = {ok}")
print()

print("two-direction spaces, observer record paired with its spin:")
for axis_name, axis in (("z", (0.0, 0.0, 1.0)), ("x", (1.0, 0.0, 0.0))):
    neg = tuple(-c for c in axis)
    sub = build_sg_observer_space([axis, neg])
    for i, sign in enumerate(("+", "-")):
        spin = np.kron(np.eye(2, dtype=complex), sub.spin_projector(i))
        obs = np.kron(sub.observer_projectors[i], np.eye(2, dtype=complex))
        ok = conditionally_realizable(sub.model, sub.fam, spin, obs, 0)
        print(f"  O({sign}{axis_name}) with spin {sign}{axis_name}: "
              f"conditionally realizable = {ok}")
