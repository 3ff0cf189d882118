package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric with its unit and the direction that is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics every untraced run reports, on every workload.
// Each is a median over the run's windows, rounds, cycles or setups.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"us_per_gp_step", "us", lower},
	{"cpu_us_per_gp_step", "us", lower},
	{"rss_peak_mb", "MB", lower},
	{"armed_cpu_ratio", "ratio", lower},
	{"ckpt_write_MBps", "MB/s", higher},
	{"ckpt_read_MBps", "MB/s", higher},
}

// regionNames are the program's own always-on perf.Timers regions, plus the
// three that exist only while their instrumentation layer is armed.
var regionNames = []string{
	"COMPUTE_TRANSPORT", "REACTION_RATE_BOUNDS", "DERIVATIVES", "COMPUTE_PRIMITIVES", "RK_UPDATE",
	"ASSEMBLE_FLUXES", "COMPUTESPECIESDIFFFLUX", "GHOST_EXCHANGE", "MPI_WAIT", "NSCBC", "FILTER",
	"HEALTH", "ANALYSIS", "COST",
}

// perLayer are the metrics every traced run reports. A layer that does no
// work in a workload reports 0 there, which is the measurement.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"s3d.us_per_gp_step_traced", "us", lower},
		{"s3d.sim_us_per_wall_s", "us/s", higher},
		{"s3d.stable_dt_ms", "ms", lower},
		{"s3d.loop_unattributed_frac", "frac", lower},
		{"s3d.allocs_per_step", "count", lower},
		{"s3d.alloc_kb_per_step", "KiB", lower},
		{"s3d.gc_pause_ms_total", "ms", lower},
		{"s3d.window_ms_p90", "ms", lower},

		{"solver.rhs_us_per_gp", "us", lower},
		{"solver.primitives_us_per_gp", "us", lower},
		{"solver.diffflux_us_per_gp", "us", lower},
		{"solver.assemble_us_per_gp", "us", lower},
		{"solver.rk_update_us_per_gp", "us", lower},
		{"solver.filter_us_per_gp", "us", lower},
		{"solver.halo_pack_ns_per_float.conserved", "ns", lower},
		{"solver.halo_pack_ns_per_float.flux", "ns", lower},
		{"solver.acoustic_dt_us_per_gp", "us", lower},
		{"solver.ckpt_save_ms", "ms", lower},
		{"solver.ckpt_load_ms", "ms", lower},
		{"solver.region.attributed_frac", "frac", higher},
	}
	for _, r := range regionNames {
		m = append(m, metricDef{"solver.region." + r + "_frac", "frac", lower})
	}
	return append(m, []metricDef{
		{"deriv.diff_ns_per_pt.x", "ns", lower},
		{"deriv.diff_ns_per_pt.y", "ns", lower},
		{"deriv.diff_ns_per_pt.z", "ns", lower},
		{"deriv.filter_ns_per_pt.x", "ns", lower},

		{"grid.fields", "count", lower},
		{"grid.arena_mb", "MB", lower},

		{"par.run_overhead_us", "us", lower},
		{"par.rhs_speedup_workers2", "ratio", higher},

		{"comm.pingpong_us.8B", "us", lower},
		{"comm.pingpong_us.512KiB", "us", lower},
		{"comm.allreduce_us", "us", lower},
		{"comm.allreduce_ordered_us", "us", lower},
		{"comm.msgs_per_step", "count", lower},
		{"comm.kb_per_step", "KiB", lower},
		{"comm.wait_frac", "frac", lower},

		{"chem.rates_ns_per_call.h2", "ns", lower},
		{"chem.rates_ns_per_call.ch4", "ns", lower},
		{"thermo.t_from_e_ns_per_call.h2", "ns", lower},
		{"thermo.cp_mass_ns_per_call.h2", "ns", lower},
		{"transport.mixture_ns_per_call.air2", "ns", lower},
		{"transport.mixture_ns_per_call.h2", "ns", lower},
		{"transport.mixture_ns_per_call.ch4", "ns", lower},
		{"reactor.ignition_delay_ms.h2", "ms", lower},

		{"sdf.encode_MBps", "MB/s", higher},
		{"sdf.decode_MBps", "MB/s", higher},
		{"sdf.file_write_MBps", "MB/s", higher},
		{"sdf.file_read_MBps", "MB/s", higher},

		{"obs.trace_bytes_per_step", "B", lower},
		{"insitu.record_bytes", "B", lower},
		{"cost.record_bytes", "B", lower},
		{"critpath.record_bytes", "B", lower},
		{"jsonl.append_us", "us", lower},
		{"perf.timer_pair_ns", "ns", lower},

		{"turb.newfield_ms", "ms", lower},
		{"host.triad_GBps.start", "GB/s", higher},
		{"host.triad_GBps.end", "GB/s", higher},
		{"host.exp_ns_per_call.start", "ns", lower},
		{"host.exp_ns_per_call.end", "ns", lower},
	}...)
}()

// manifest is BENCHMARK.json, the contract the driver reads. The benchmark
// reads it only for the bounds it prints and -repeat enforces.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// bounds maps each end-to-end metric to its worsening bound.
func (m *manifest) bounds() map[string]float64 {
	b := map[string]float64{}
	for _, e := range m.EndToEnd {
		b[e.Name] = e.Bound
	}
	return b
}
