"""Profiling: per-variable statistics and conflict-graph weights.

The paper's Section 3.1.1 defines two ways to obtain the edge weights of
the conflict graph:

* the **profile-based method** — run the program on representative data,
  record the variable access sequence, compute per-variable lifetimes
  and count potentially-conflicting accesses in lifetime overlaps
  (:mod:`repro.profiling.profiler`: :meth:`Profile.pair_weight` for one
  pair, :meth:`Profile.weight_matrix` for all of them at once);
* the **program-analysis method** — walk an intermediate-form (IF)
  representation estimating loop trip counts and branch probabilities
  (:mod:`repro.profiling.ir`, :mod:`repro.profiling.static_analysis`).

Both produce objects satisfying :class:`ProfileLike`, which the layout
algorithm consumes.
"""

from repro.profiling.profiler import (
    Profile,
    ProfileLike,
    VariableProfile,
    profile_trace,
)
from repro.profiling.ir import (
    AccessNode,
    BranchNode,
    ComputeNode,
    LoopNode,
    SeqNode,
)
from repro.profiling.static_analysis import StaticProfile, analyze_program

__all__ = [
    "AccessNode",
    "BranchNode",
    "ComputeNode",
    "LoopNode",
    "Profile",
    "ProfileLike",
    "SeqNode",
    "StaticProfile",
    "VariableProfile",
    "analyze_program",
    "profile_trace",
]
