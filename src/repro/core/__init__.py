"""The RISSP generation methodology: subset analysis, profiling, full flow."""

from .flow import RisspFlow, RisspResult
from .metrics import RISSP_CPI, saving
from .profile import FlagSweep, summarize, sweep_all, sweep_application
from .subset_analysis import (
    ALWAYS_INCLUDED,
    SubsetProfile,
    extract_subset,
    profile_program,
    union_profile,
)

__all__ = [
    "ALWAYS_INCLUDED", "FlagSweep", "RISSP_CPI", "RisspFlow", "RisspResult",
    "SubsetProfile", "extract_subset", "profile_program", "saving",
    "summarize", "sweep_all", "sweep_application", "union_profile",
]
