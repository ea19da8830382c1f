"""Profiling substrate: traces, edge profiles, synthetic profile generation."""

from repro.profiles.edge_profile import (
    EdgeProfile,
    ProfileError,
    ProgramProfile,
    merge_profiles,
    profile_from_counts,
)
from repro.profiles.synthesize import (
    BiasAssignment,
    expected_profile,
    random_bias_assignment,
    synthesize_profile,
    walk_cfg,
)
from repro.profiles.static_estimate import (
    estimate_edge_profile,
    estimate_program_profile,
)
from repro.profiles.trace import CompactTrace

__all__ = [
    "BiasAssignment",
    "CompactTrace",
    "EdgeProfile",
    "ProfileError",
    "ProgramProfile",
    "estimate_edge_profile",
    "estimate_program_profile",
    "expected_profile",
    "merge_profiles",
    "profile_from_counts",
    "random_bias_assignment",
    "synthesize_profile",
    "walk_cfg",
]
