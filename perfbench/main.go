// Command perfbench is the repository benchmark: three seeded workloads that
// drive the real-time backend through the layers' public calls and report
// end-to-end metrics (clean run) or per-layer metrics (traced run).
//
//	bash perfbench/run.sh --workload mesh-e5 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// workload runs twice, clean for the first half of --seconds and traced for
// the second, and the metrics are the per-layer set plus the tracing overhead
// of every end-to-end metric (traced value / clean value).  Every line before
// the JSON is a human-readable report: the run shape and each metric under
// the name the workload defines it by.  A full report and the traced run's
// spans are written under .bench_out/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// pass is one measured execution of a workload: clean or traced.
type pass struct {
	seed int64
	dur  time.Duration // timed-phase budget
	// reg is the benchmark's own registry, nil on a clean pass.  On the
	// traced pass it keeps a span per timed call into a layer and a
	// histogram per timed call kind (names under "bench.").
	reg *obs.Registry

	attempted, failed int64
	setups            []time.Duration // one per set-up repetition, active time
	memPeak           uint64          // peak heap bytes during the timed phase

	e2e    map[string]float64 // generic end-to-end metrics, see e2eUnits
	named  []namedValue       // the workload's own metric names, printed
	layers map[string]float64 // per-layer metrics (traced pass only)
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

func (p *pass) note(name string, value float64, unit string) {
	p.named = append(p.named, namedValue{name, value, unit})
}

func (p *pass) layer(name string, value float64) { p.layers[name] = finite(value) }

// setupDone records one set-up repetition started at c, in active time.
func (p *pass) setupDone(c activeClock) {
	wall, steal := c.read()
	p.setups = append(p.setups, wall-steal)
}

// timer returns the benchmark histogram for one kind of timed call; nil,
// whose observations are no-ops, on a clean pass.
func (p *pass) timer(name string) *obs.Histogram {
	if p.reg == nil {
		return nil
	}
	return p.reg.Histogram(name, "ns")
}

// fail counts one failed operation and reports why on standard error.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// e2eUnits lists the end-to-end metrics every workload reports; what each
// means per workload is in README.md.  The p99 latencies are in the report
// lines but not here: on a shared host they spread more between runs than
// any bound a result metric may carry.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"lat_p50_ms", "ms"},
	{"rate_per_s", "1/s"},
}

var workloads = map[string]func(*pass) error{
	"mesh-e5":   runMesh,
	"pfi-force": runForce,
	"serve-mix": runServe,
}

// outDir receives each run's report and a traced run's spans.
const outDir = ".bench_out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "mesh-e5, pfi-force or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "timed-phase length in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and tracing overhead")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {mesh-e5|pfi-force|serve-mix} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	// A run that wedges must not outlive the caller's limit; it ends with
	// an error and no result line.
	watchdog := time.AfterFunc(max(170*time.Second, time.Duration(2**seconds+60)*time.Second), func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired, aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	shape := runShape(*workload, *seed, *seconds, *traced)
	if b, err := json.Marshal(shape); err == nil {
		fmt.Printf("# shape %s\n", b)
	}
	res, report, reg, err := measure(run, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	report["shape"] = shape
	report["result"] = res
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traced)), report); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if reg != nil {
		if err := writeTrace(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", *workload, *seed)), reg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure runs the clean pass, and for a traced run the traced pass after
// it, and assembles the result line.
func measure(run func(*pass) error, seed int64, dur time.Duration, traced bool) (result, map[string]any, *obs.Registry, error) {
	report := map[string]any{}
	var reg *obs.Registry
	cleanDur := dur
	if traced {
		cleanDur = dur / 2
	}
	clean, err := execute(run, seed, cleanDur, nil)
	if err != nil {
		return result{}, nil, nil, err
	}
	printPass("clean", clean)
	report["clean"] = passReport(clean)
	res := result{
		Attempted: clean.attempted,
		Failed:    clean.failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		for _, m := range e2eUnits {
			res.Metrics[m.name] = metric{clean.e2e[m.name], m.unit}
		}
	} else {
		reg = obs.New()
		reg.Enable(obs.Metrics | obs.Spans)
		tp, err := execute(run, seed, dur-cleanDur, reg)
		if err != nil {
			return result{}, nil, nil, err
		}
		printPass("traced", tp)
		report["traced"] = passReport(tp)
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		for _, m := range e2eUnits {
			ratio := 0.0
			if c := clean.e2e[m.name]; c != 0 {
				ratio = tp.e2e[m.name] / c
			}
			tp.layer("overhead."+m.name, ratio)
		}
		if res.Metrics, err = layerValues(tp.layers); err != nil {
			return result{}, nil, nil, err
		}
		for _, m := range layerMetrics {
			fmt.Printf("layer %-34s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
		}
		spans, dropped := reg.Spans()
		fmt.Printf("# spans: %d kept, %d dropped\n", len(spans), dropped)
	}
	res.Correct = res.Failed == 0
	fmt.Printf("# all passes: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	return res, report, reg, nil
}

// execute runs one pass of the workload and fills in the metrics common to
// every workload.
func execute(run func(*pass) error, seed int64, dur time.Duration, reg *obs.Registry) (*pass, error) {
	p := &pass{seed: seed, dur: dur, reg: reg, e2e: map[string]float64{}, layers: map[string]float64{}}
	if err := run(p); err != nil {
		return nil, err
	}
	if p.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	p.e2e["setup_s"] = medianDur(p.setups).Seconds()
	p.e2e["mem_peak_mb"] = float64(p.memPeak) / (1 << 20)
	p.note("setup_s", p.e2e["setup_s"], "s")
	p.note("mem_peak_mb", p.e2e["mem_peak_mb"], "MB")
	p.note("failed_frac", float64(p.failed)/float64(p.attempted), "ratio")
	for _, m := range e2eUnits {
		if v := p.e2e[m.name]; !(v > 0) {
			return nil, fmt.Errorf("end-to-end metric %s is %v", m.name, v)
		}
	}
	return p, nil
}

func printPass(label string, p *pass) {
	for _, n := range p.named {
		fmt.Printf("metric %-20s %14.6g %-6s (%s pass)\n", n.name, n.value, n.unit, label)
	}
	fmt.Printf("# %s pass: attempted=%d failed=%d setups=%v\n", label, p.attempted, p.failed, p.setups)
}

func passReport(p *pass) map[string]any {
	named := map[string]metric{}
	for _, n := range p.named {
		named[n.name] = metric{n.value, n.unit}
	}
	return map[string]any{
		"attempted": p.attempted,
		"failed":    p.failed,
		"e2e":       p.e2e,
		"named":     named,
		"layers":    p.layers,
	}
}

// runShape records what a result may be compared against: runs of different
// shapes are not comparable.
func runShape(workload string, seed int64, seconds, traced int) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeTrace writes the traced pass's spans as a Chrome trace-event file,
// viewable in chrome://tracing or Perfetto.
func writeTrace(path string, reg *obs.Registry) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
