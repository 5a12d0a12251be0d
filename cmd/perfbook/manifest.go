package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// This file is the single definition of the benchmark's names: the
// workloads, the end-to-end metrics with their bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root is `perfbook -manifest`;
// a test keeps the two equal.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured time of one benchmark run.
const runSeconds = 15

var workloadSpecs = []workloadSpec{
	{"paper_table4", "The paper's main evaluation: conv training of TinyMobileNetV3 under FedAvg, HeteroSwitch and q-FedAvg; tensor/nn/core dominate and the aggregation engine is under 5 % of round time."},
	{"agg_sync_wide", "K=512 of 1024 clients per round with a stub trainer on fl.Server, so sampling, weight load, snapshot, shard fold, merge and finalize dominate; kernel work must not move it."},
	{"agg_async_chaos", "The same population on fl.AsyncServer under stragglers, crash/flaky/corrupt/churn faults, timeouts and staleness drops: event loop, simclock heap and fault draws beside the barriered loop."},
	{"serve_wall", "Two closed-loop clients call PredictInto on TinyMobileNetV3 while one republishes: pin, replica borrow, Ensure, frozen forward and copy; frozen-path and panel-cache work shows only here."},
	{"serve_sim", "Open-loop virtual-time RunLoad near saturation on a 16-to-3 dense net, so the scheduler (event map, batching, EDF heap, admission, publish flush) dominates and both shed paths fire."},
}

// Every workload reports every end-to-end metric; what one operation and
// one call are is fixed per workload (see README.md). Every bound is the
// contract's maximum: on the shared 2-vCPU reference box ten seeds spread by
// about 1 % in a quiet phase and by 5–20 % in a noisy one, and the phases
// themselves differ by up to 23 %.
var endToEndMetrics = []endToEndSpec{
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"call_ms_p50", "ms", "lower", 0.25},
	{"call_ms_p90", "ms", "lower", 0.25},
	{"pass_wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func layerSpecs(unit, better string, names ...string) []perLayerSpec {
	out := make([]perLayerSpec, len(names))
	for i, n := range names {
		out[i] = perLayerSpec{n, unit, better}
	}
	return out
}

var perLayerMetrics = buildPerLayer()

var perLayerIndex = func() map[string]perLayerSpec {
	m := map[string]perLayerSpec{}
	for _, s := range perLayerMetrics {
		m[s.Name] = s
	}
	return m
}()

func buildPerLayer() []perLayerSpec {
	var frozen []string
	for _, shape := range []string{"dense768x256", "conv_pw", "conv_stem"} {
		for _, b := range []string{"b1", "b16"} {
			for _, be := range []string{"serial", "packed", "int8"} {
				frozen = append(frozen, "tensor.frozen_"+shape+"_"+b+"_us."+be)
			}
		}
	}
	var overhead []string
	for _, w := range workloadSpecs {
		overhead = append(overhead, "trace.overhead_share."+w.Name)
	}
	groups := [][]perLayerSpec{
		// machine calibration
		layerSpecs("GFLOP/s", "higher", "calib.fma_gflops"),
		layerSpecs("GB/s", "higher", "calib.copy_gbps"),
		// scene / isp / device / dataset
		layerSpecs("us", "lower", "scene.render_us_per_image", "isp.pipeline_us_per_image", "device.capture_us_per_image"),
		layerSpecs("1/s", "higher", "dataset.capture_images_per_s"),
		// tensor, ORACLE tier (training kernels through one-layer nets)
		layerSpecs("GFLOP/s", "higher",
			"tensor.dense_fwd_gflops.768x256", "tensor.dense_bwd_gflops.768x256",
			"tensor.conv_stem_fwd_gflops", "tensor.conv_stem_bwd_gflops",
			"tensor.conv_pw_fwd_gflops", "tensor.conv_pw_bwd_gflops",
			"tensor.conv_dw_fwd_gflops", "tensor.conv_dw_bwd_gflops"),
		layerSpecs("share", "higher", "tensor.train_peak_share"),
		// tensor, TOLERANCE tier (frozen one-layer nets per backend)
		layerSpecs("us", "lower", frozen...),
		layerSpecs("share", "higher", "tensor.auto_within5pct_share"),
		// parallel
		layerSpecs("ns", "lower", "parallel.dispatch_ns"),
		layerSpecs("ratio", "higher", "nn.train_intraop2_speedup.mobilenet"),
		// nn / models
		layerSpecs("us", "lower",
			"nn.train_us_per_sample.mobilenet", "nn.train_us_per_sample.shufflenet",
			"nn.train_us_per_sample.squeezenet", "nn.train_us_per_sample.simplecnn",
			"nn.infer_us.mobilenet_b1", "nn.infer_us.mobilenet_b16",
			"nn.infer_us.simplecnn_b1", "nn.infer_us.simplecnn_b16",
			"nn.infer_us.mobilenet_b1.serial", "nn.infer_us.mobilenet_b1.packed", "nn.infer_us.mobilenet_b1.int8",
			"nn.freeze_us.mobilenet", "nn.ensure_us.mobilenet", "models.build_us.mobilenet"),
		layerSpecs("count", "lower", "nn.infer_allocs_per_op"),
		// core
		layerSpecs("us", "lower", "core.transform_us_per_image"),
		layerSpecs("1/s", "higher", "core.heteroswitch_samples_per_s"),
		layerSpecs("ratio", "higher", "core.heteroswitch_vs_fedavg_ratio"),
		// fl
		layerSpecs("1/s", "higher", "fl.fedavg_samples_per_s", "fl.qfedavg_samples_per_s"),
		layerSpecs("us", "lower", "fl.local_update_us_p50",
			"fl.sync_engine_self_us_per_update", "fl.async_engine_self_us_per_update"),
		layerSpecs("share", "lower", "fl.train_engine_self_share"),
		layerSpecs("share", "higher", "fl.sync_engine_self_share", "fl.async_engine_self_share"),
		layerSpecs("count", "lower", "fl.sync_allocs_per_update", "fl.async_allocs_per_update"),
		layerSpecs("KiB", "lower", "fl.sync_alloc_kb_per_round", "fl.async_alloc_kb_per_round"),
		layerSpecs("ms", "lower", "fl.build_population_ms", "fl.new_server_ms"),
		layerSpecs("B", "lower", "fl.bytes_up_per_round"),
		layerSpecs("count", "lower", "fl.async_reissues", "fl.async_failed", "fl.async_rejected",
			"fl.async_stale_dropped", "fl.async_deferred", "fl.async_skipped", "fl.async_mean_staleness"),
		layerSpecs("share", "lower", "fl.async_lost_share"),
		layerSpecs("vtime", "lower", "fl.async_vtime_end"),
		// simclock / faults
		layerSpecs("ns", "lower", "simclock.schedule_next_ns", "faults.draw_ns"),
		// metrics
		layerSpecs("1/s", "higher", "metrics.accuracy_samples_per_s"),
		// serve
		layerSpecs("us", "lower", "serve.predict_overhead_us", "serve.latency_us_p99", "serve.latency_us_p999",
			"serve.publish_us_p50", "serve.post_publish_request_us_p50"),
		layerSpecs("count", "lower", "serve.predict_allocs_per_op"),
		layerSpecs("ns", "lower", "serve.sim_ns_per_request"),
		layerSpecs("share", "higher", "serve.sim_residual_share"),
		layerSpecs("count", "higher", "serve.sim_served", "serve.sim_batches", "serve.sim_mean_batch", "serve.sim_digest_stable"),
		layerSpecs("count", "lower", "serve.sim_shed_queue", "serve.sim_shed_deadline", "serve.sim_max_queue"),
		layerSpecs("share", "lower", "serve.sim_shed_share"),
		layerSpecs("vtime", "lower", "serve.sim_vp99"),
		layerSpecs("1/vtime", "higher", "serve.sim_vthroughput"),
		// experiments
		layerSpecs("s", "lower", "experiments.table4_wall_s", "experiments.train_serve_wall_s"),
		// tracing
		layerSpecs("share", "lower", overhead...),
		layerSpecs("share", "higher", "trace.closure_share.paper_table4"),
	}
	var out []perLayerSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// manifestJSON renders BENCHMARK.json.
func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []endToEndSpec `json:"end_to_end"`
		PerLayer   []perLayerSpec `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./cmd/perfbook"},
		Paths:      []string{"cmd/perfbook"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}, "", "  ")
	return append(b, '\n'), err
}

// fingerprint identifies the machine and the code a result file was
// measured on, with two numbers the driver measures itself so that two
// files can be judged comparable.
type fingerprint struct {
	CPUModel       string  `json:"cpu_model"`
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Commit         string  `json:"commit"`
	Dirty          bool    `json:"dirty"`
	CalibFmaGflops float64 `json:"calib_fma_gflops"`
	CalibCopyGbps  float64 `json:"calib_copy_gbps"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			fp.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	fp.CalibFmaGflops, fp.CalibCopyGbps = calibrate(100 * time.Millisecond)
	return fp
}
