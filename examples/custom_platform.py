#!/usr/bin/env python3
"""Run the whole pipeline on a platform you define yourself.

The library is not hard-wired to the paper's two chips: bundle a spec,
a ground-truth Vmin table, power and thermal constants for your own
machine into one ``PlatformModel``, register it, then characterize it,
build its policy table and run the daemon — exactly as for the X-Genes.

This example models a fictive 16-core "Hydra-16" ARM server (8 PMDs,
2.6 GHz, 920 mV nominal) and reproduces the paper's headline comparison
on it.

Run:  python examples/custom_platform.py
"""

from repro.allocation import Allocation
from repro.core import VminPolicyTable, run_evaluation
from repro.platform.registry import (
    CharacterizationGrid,
    DroopParams,
    FaultParams,
    PerfCalibration,
    PlatformModel,
    VariationParams,
    register_model,
)
from repro.platform.specs import CacheSpec, ChipSpec, FrequencyClass
from repro.platform.thermal import ThermalParams
from repro.power.model import PowerParams
from repro.units import ghz, mhz
from repro.vmin import VminCampaign


def hydra16_spec() -> ChipSpec:
    return ChipSpec(
        name="Hydra-16",
        n_cores=16,
        cores_per_pmd=2,
        fmax_hz=ghz(2.6),
        fmin_hz=mhz(325),
        nominal_voltage_mv=920,
        min_voltage_mv=600,
        tdp_w=60.0,
        technology_nm=14,
        caches=CacheSpec(
            l1i_bytes=48 * 1024,
            l1d_bytes=32 * 1024,
            l2_bytes_per_pmd=512 * 1024,
            l3_bytes=16 * 1024 * 1024,
            l3_in_pcp_domain=True,
        ),
        memory_bandwidth_bps=50e9,
        clock_division_below_half=True,
    )


def hydra16_model() -> PlatformModel:
    """Spec, Vmin, power and thermal constants of the Hydra-16 chip."""
    return PlatformModel(
        key="hydra16",
        spec=hydra16_spec(),
        vmin_base_mv={
            # 8 PMDs -> four droop classes (1, 2, 4, 8 PMDs).
            FrequencyClass.HIGH: (800, 815, 830, 845),
            FrequencyClass.SKIP: (775, 790, 805, 820),
            FrequencyClass.DIVIDE: (700, 715, 730, 745),
        },
        # Variation, droop, fault and workload calibration at their
        # library defaults.
        variation=VariationParams(),
        droop=DroopParams(),
        faults=FaultParams(),
        power=PowerParams(
            uncore_w=3.0,
            core_dyn_max_w=2.0,
            core_leak_w=0.22,
            pmd_overhead_w=0.40,
            uncore_on_rail=True,
            leak_exponent=2.8,
            idle_activity=0.12,
            external_w=1.5,
        ),
        thermal=ThermalParams(resistance_c_per_w=0.8, time_constant_s=12.0),
        perf=PerfCalibration(),
        # Fig. 3 campaign grid: full chip, half, quarter at fmax and fmax/2.
        characterization=CharacterizationGrid(
            threads=(16, 8, 4), freqs_hz=(ghz(2.6), ghz(1.3))
        ),
    )


def main() -> None:
    key = register_model(hydra16_model())
    spec = hydra16_spec()
    print(f"Registered custom platform {spec.name!r} as {key!r}.\n")

    print("Characterizing (Section III protocol) ...")
    campaign = VminCampaign(spec)
    for nthreads, allocation in (
        (16, Allocation.CLUSTERED),
        (8, Allocation.SPREADED),
        (8, Allocation.CLUSTERED),
    ):
        point = campaign.point(
            "CG", nthreads, allocation, spec.fmax_hz
        )
        measured = campaign.measure_safe_vmin(point, mode="trials")
        print(
            f"  {point.label():<24} safe Vmin {measured.safe_vmin_mv} mV "
            f"(guardband {measured.guardband_mv:.0f} mV)"
        )

    policy = VminPolicyTable.from_characterization(spec)
    print(
        f"\nPolicy table built; full-chip level at fmax: "
        f"{policy.safe_voltage_mv(spec.n_pmds, spec.fmax_hz)} mV.\n"
    )

    print("Replaying a 10-minute workload under all four configurations:")
    evaluation = run_evaluation(key, duration_s=600.0, seed=3)
    for row in evaluation.rows():
        print(
            f"  {row.config:<10} energy {row.energy_j:9.1f} J  "
            f"saved {row.energy_savings_pct:5.1f}%  "
            f"violations {row.violations}"
        )
    print(
        "\nThe paper's methodology transfers: characterization, the "
        "policy table and the daemon run unchanged on the new machine."
    )


if __name__ == "__main__":
    main()
