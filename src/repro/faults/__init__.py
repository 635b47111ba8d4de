"""Fault models: unified injector API, campaigns, memory error processes.

The canonical entry points live in :mod:`repro.faults.api` —
:func:`attack` / :func:`inject` return a ground-truth
:class:`FaultMask` alongside (or instead of) the corrupted model.
"""

from repro.faults.api import (
    ClusteredBitflipInjector,
    FaultInjector,
    FaultMask,
    InformedBitflipInjector,
    RandomBitflipInjector,
    TargetedBitflipInjector,
    attack,
    inject,
    make_injector,
)
from repro.faults.injector import (
    CampaignCell,
    CampaignResult,
    run_deployment_campaign,
    run_hdc_campaign,
)
from repro.faults.models import (
    StuckAtFaultMap,
    TransientFlipProcess,
    dram_error_rate_for_interval,
)
from repro.faults.informed import dimension_importance
from repro.faults.bitflip import (
    attack_tensor,
    attack_tensors,
    flip_hdc_bits,
    hdc_msb_first_bit_order,
    num_bits_to_flip,
    sample_random_bits,
    sample_targeted_bits,
)

__all__ = [
    "CampaignCell",
    "CampaignResult",
    "ClusteredBitflipInjector",
    "FaultInjector",
    "FaultMask",
    "InformedBitflipInjector",
    "RandomBitflipInjector",
    "StuckAtFaultMap",
    "TargetedBitflipInjector",
    "TransientFlipProcess",
    "attack",
    "dimension_importance",
    "dram_error_rate_for_interval",
    "inject",
    "make_injector",
    "run_deployment_campaign",
    "run_hdc_campaign",
    "attack_tensor",
    "attack_tensors",
    "flip_hdc_bits",
    "hdc_msb_first_bit_order",
    "num_bits_to_flip",
    "sample_random_bits",
    "sample_targeted_bits",
]
