"""Names and units of every metric the benchmark reports (standard library only)."""

WORKLOADS = ("scan-small", "wide-lowshot", "wide-highshot")

# Reported with tracing off. Times are CPU seconds of the workload process.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "settings_per_cpu_s": "1/s",
    "peak_rss_mb": "MiB",
}

# Functions whose calls and self time the traced run reports.
PER_FUNCTION = (
    "randgen.derive_seed", "randgen.random_symplectic", "randgen.haar_unitary",
    "core.GaussianState", "core.coherent_probe_state", "core.apply_uniform_loss",
    "core.apply_symplectic", "core.is_symplectic", "core.scaled_frobenius",
    "device.probe_and_measure", "device.evolve", "device.sample_quadratures", "device.measure",
    "tomography.measure_attenuated_matrix", "tomography.reconstruct_symplectic",
    "tomography.reconstruct_unitary", "tomography.estimate_eta",
    "tomography.reconstruct_element_with_phase_error",
    "experiments.run_mode_scaling", "experiments.run_unitary_scaling",
    "experiments.run_intensity_scaling", "experiments.run_phase_error_study",
    "experiments.records_to_csv", "cli.main",
)

# Reported with tracing on, per body of the workload. Draws, draw bytes and
# evolve flops are computed from (N, shots, scheme) per probe setting, not
# measured.
PER_LAYER = {
    **{f"{name}.calls": "count" for name in PER_FUNCTION},
    **{f"{name}.self_s": "s" for name in PER_FUNCTION},
    "core.evolve_flops": "flop",
    "device.settings_used": "count",
    "device.probes_used": "count",
    "device.draws": "count",
    "device.draw_bytes": "B",
    "device.draws_per_s": "1/s",
    "device.rng_peak_draws_per_s": "1/s",
    "device.draw_efficiency": "ratio",
    "tomography.kept_frac": "ratio",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}
