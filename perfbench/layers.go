package main

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// layerMetrics is the per-layer set every traced run reports, with units.
// A workload fills the metrics of the layers on its path; the others read
// 0, meaning no work reached that layer (README.md maps each metric to the
// end-to-end metric and workload it should move).
var layerMetrics = []struct{ name, unit string }{
	{"node.batch_write_ns.p50", "ns"},
	{"node.batch_write_ns.p99", "ns"},
	{"node.batch_frames.p50", "count"},
	{"node.batch_bytes.p50", "B"},
	{"node.frames_per_msg", "ratio"},
	{"node.credit_stalls", "count"},
	{"node.credit_stall_ns.p99", "ns"},
	{"node.deliver_ns.p50", "ns"},
	{"node.deliver_ns.p99", "ns"},
	{"node.read_ns.p50", "ns"},
	{"msgcodec.encode_ns.p50", "ns"},
	{"msgcodec.encode_ns.p99", "ns"},
	{"msgcodec.decode_ns.p50", "ns"},
	{"msgcodec.decode_ns.p99", "ns"},
	{"core.send_ns.p50", "ns"},
	{"core.send_ns.p99", "ns"},
	{"core.lane_queue_ns.p50", "ns"},
	{"core.lane_queue_ns.p99", "ns"},
	{"core.lane.inline_ratio", "ratio"},
	{"core.accept_wait_ns.p50", "ns"},
	{"core.accept_wait_ns.p99", "ns"},
	{"core.vm_boot_us.p50", "us"},
	{"memory.heap_charges", "count"},
	{"memory.msg_bytes.p50", "B"},
	{"go.allocs_per_msg", "count"},
	{"go.bytes_per_msg", "B"},
	{"obs.recorder.events_per_msg", "ratio"},
	{"obs.recorder.overwrites", "count"},
	{"pfi.stmt_ns.p50", "ns"},
	{"pfi.stmt_ns.p99", "ns"},
	{"pfi.stmts", "count"},
	{"pfi.run_ms.p50", "ms"},
	{"pfi.compile_us.p50", "us"},
	{"pfi.compile_us.p99", "us"},
	{"pfi.cache.hit_ratio", "ratio"},
	{"pfi.cache.evictions", "count"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p99", "ms"},
	{"serve.service_ms.hit.p50", "ms"},
	{"serve.service_ms.miss.p50", "ms"},
	{"serve.backlog_max", "count"},
	{"serve.rejected", "count"},
	{"loadgen.late_ms.p99", "ms"},
	{"overhead.setup_s", "ratio"},
	{"overhead.mem_peak_mb", "ratio"},
	{"overhead.lat_p50_ms", "ratio"},
	{"overhead.rate_per_s", "ratio"},
}

// layerValues orders a traced pass's layer metrics by layerMetrics and
// rejects a name the table does not define.
func layerValues(layers map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{layers[m.name], m.unit}
	}
	for name := range layers {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s is not in layerMetrics", name)
		}
	}
	return out, nil
}

// vmLayers fills the core, msgcodec and memory metrics a VM's registry
// exports, from the timed phase's registry difference.
func vmLayers(p *pass, d *obs.Snapshot) {
	q := func(name string, qq float64) float64 { return snapHist(d, name).Quantile(qq) }
	p.layer("msgcodec.encode_ns.p50", q("codec.encode.ns", 0.5))
	p.layer("msgcodec.encode_ns.p99", q("codec.encode.ns", 0.99))
	p.layer("msgcodec.decode_ns.p50", q("codec.decode.ns", 0.5))
	p.layer("msgcodec.decode_ns.p99", q("codec.decode.ns", 0.99))
	p.layer("core.lane_queue_ns.p50", q("router.lane.queue.ns", 0.5))
	p.layer("core.lane_queue_ns.p99", q("router.lane.queue.ns", 0.99))
	p.layer("core.accept_wait_ns.p50", q("core.accept.wait.ns", 0.5))
	p.layer("core.accept_wait_ns.p99", q("core.accept.wait.ns", 0.99))
	p.layer("memory.heap_charges", float64(snapCounter(d, "core.heap.charge")))
	p.layer("memory.msg_bytes.p50", q("core.heap.msg.bytes", 0.5))
}

// timerLayers fills the compile and boot metrics from the benchmark's own
// timings of pfi.CompileUncached and core.NewVM.
func timerLayers(p *pass) {
	s := p.reg.Snapshot()
	p.layer("pfi.compile_us.p50", snapHist(s, "bench.pfi.compile").Quantile(0.5)/1e3)
	p.layer("pfi.compile_us.p99", snapHist(s, "bench.pfi.compile").Quantile(0.99)/1e3)
	p.layer("core.vm_boot_us.p50", snapHist(s, "bench.core.vm_boot").Quantile(0.5)/1e3)
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
