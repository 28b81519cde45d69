// Command perfbench is the repository's benchmark. It runs one named
// workload against the public fastjoin API, checks every result against an
// oracle and prints the workload's end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run. The last line of standard output is a
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload zipf-replay --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"fastjoin"
)

const (
	// setupProbes is how many extra New → first pull set-ups each run
	// times besides its measured passes; setup_s is the median of all.
	setupProbes = 16
	// runBudget bounds a whole run: a pass still waiting for the system
	// to settle after it fails with a wait error.
	runBudget = 150 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric the benchmark reports, in
// output order, with their units. BENCHMARK.json lists the same.
var endToEnd = []metricDef{
	{"throughput_tps", "tuples/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_us_per_tuple", "us"},
	{"alloc_bytes_per_tuple", "B"},
	{"allocs_per_tuple", "count"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"e2e.latency_p90_ms", "ms"},
		{"e2e.latency_p99_ms", "ms"},
		{"engine.ingest_lag_p50_ms", "ms"},
		{"engine.ingest_lag_p99_ms", "ms"},
	}
	for _, c := range components {
		defs = append(defs, metricDef{"engine.queue_depth_mean." + c, "count"})
	}
	for _, c := range components {
		defs = append(defs, metricDef{"engine.queue_high_water." + c, "count"})
	}
	return append(defs, []metricDef{
		{"biclique.hop_ingest_p50_us", "us"},
		{"biclique.hop_ingest_p99_us", "us"},
		{"biclique.hop_route_p50_us", "us"},
		{"biclique.hop_route_p99_us", "us"},
		{"biclique.hop_emit_p50_us", "us"},
		{"biclique.hop_emit_p99_us", "us"},
		{"biclique.scanned_per_probe", "count"},
		{"biclique.results_per_tuple", "count"},
		{"balance.migrations", "count"},
		{"balance.migrated_tuples", "count"},
		{"balance.replayed_tuples", "count"},
		{"balance.li_mean", "ratio"},
		{"balance.max_over_avg_mean", "ratio"},
		{"split.activations", "count"},
		{"split.retired", "count"},
		{"split.active_peak", "count"},
		{"window.add_ns", "ns"},
		{"window.probe_ns", "ns"},
		{"window.scan_ns_per_match", "ns"},
		{"window.advance_ns_per_expired", "ns"},
		{"window.bytes_per_tuple", "B"},
		{"window.allocs_per_op", "count"},
		{"routing.route_ns", "ns"},
		{"sketch.observe_ns", "ns"},
		{"core.greedyfit_us", "us"},
		{"core.imbalance_ns", "ns"},
		{"baseline.single_thread_tps", "tuples/s"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed of the generated input")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	traced := fs.Int("trace", 0, "1: run the traced pass and print per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := lookupSpec(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	deadline := time.Now().Add(runBudget)
	salt := fnv.New64a()
	salt.Write([]byte(s.name))
	in := s.gen(s, rand.New(rand.NewPCG(*seed, salt.Sum64())), s.inputSize())
	want := newOracle(s, in)

	var setups []float64
	for i := 0; i < setupProbes; i++ {
		v, err := setupProbe(s)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: setup probe:", err)
			return 1
		}
		setups = append(setups, v)
	}
	passes, runErr := measure(s, in, want, *seconds, deadline)
	res := result{Metrics: map[string]metric{}}
	for _, p := range passes {
		res.Attempted += p.expected
		res.Failed += p.failed
	}
	values := endToEndValues(passes, setups)
	fmt.Fprintf(stdout, "workload %s seed %d: %s, %s, %d tuples per pass, %d passes, %d latency samples, failed_frac %.3g\n",
		s.name, *seed, s.regime(), s.loop(), len(in), len(passes), latencySamples(passes), ratio(float64(res.Failed), float64(res.Attempted)))
	defs := endToEnd

	if *traced != 0 && runErr == nil {
		var tv map[string]float64
		var tp passResult
		tv, tp, runErr = tracedRun(s, in, want, *seed, *out, values, deadline, stderr)
		res.Attempted += tp.expected
		res.Failed += tp.failed
		values, defs = tv, perLayer
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "perfbench:", runErr)
		res.Failed++
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// regime names how the run's costs arise: the program's own CPU cost, or
// an emulated per-instance capacity (Options.ServiceRate).
func (s *spec) regime() string {
	if r := s.options().ServiceRate; r > 0 {
		return fmt.Sprintf("emulated capacity (ServiceRate %g)", r)
	}
	return "real CPU (ServiceRate 0)"
}

func (s *spec) loop() string {
	if s.openLoop {
		return fmt.Sprintf("open loop at %.0f tuples/s", s.rate)
	}
	return "closed loop"
}

// measure runs untraced passes over the same input until the run has
// measured for seconds.
func measure(s *spec, in []fastjoin.Tuple, want *oracle, seconds float64, deadline time.Time) ([]passResult, error) {
	begin := time.Now()
	var passes []passResult
	for {
		p, err := runPass(s, in, want, nil, deadline)
		passes = append(passes, p)
		if err != nil {
			return passes, err
		}
		if time.Since(begin).Seconds() >= seconds {
			return passes, nil
		}
	}
}

func latencySamples(passes []passResult) int {
	n := 0
	for _, p := range passes {
		n += len(p.lat)
	}
	return n
}

// endToEndValues takes each metric's median over the passes (setup_s over
// the set-up probes and the passes).
func endToEndValues(passes []passResult, setups []float64) map[string]float64 {
	per := func(fn func(p passResult) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = fn(p)
		}
		return quantile(xs, 0.5)
	}
	for _, p := range passes {
		setups = append(setups, p.setup)
	}
	return map[string]float64{
		"throughput_tps":        per(func(p passResult) float64 { return float64(p.tuples) / p.elapsed }),
		"latency_p50_ms":        per(func(p passResult) float64 { return quantile(p.lat, 0.5) }),
		"e2e.latency_p90_ms":    per(func(p passResult) float64 { return quantile(p.lat, 0.90) }),
		"e2e.latency_p99_ms":    per(func(p passResult) float64 { return quantile(p.lat, 0.99) }),
		"cpu_us_per_tuple":      per(func(p passResult) float64 { return p.cpuUs / float64(p.tuples) }),
		"alloc_bytes_per_tuple": per(func(p passResult) float64 { return float64(p.allocBytes) / float64(p.tuples) }),
		"allocs_per_tuple":      per(func(p passResult) float64 { return float64(p.allocs) / float64(p.tuples) }),
		"heap_live_mb":          per(func(p passResult) float64 { return p.heapLive / 1e6 }),
		"setup_s":               quantile(setups, 0.5),
		"runtime.gc_cycles":     per(func(p passResult) float64 { return float64(p.gcCycles) }),
		"runtime.gc_pause_ms":   per(func(p passResult) float64 { return float64(p.gcPauseNs) / 1e6 }),
	}
}

// tracedRun makes one traced pass with a CPU profile, writes its span
// file, replays the layers in isolation and returns the per-layer metrics
// and the traced pass. untraced holds the run's untraced
// end-to-end values, which tracing overhead is measured against.
func tracedRun(s *spec, in []fastjoin.Tuple, want *oracle, seed uint64, dir string, untraced map[string]float64, deadline time.Time, stderr io.Writer) (map[string]float64, passResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, passResult{}, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", s.name, seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, passResult{}, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, passResult{}, err
	}
	tr := &tracer{}
	p, err := runPass(s, in, want, tr, deadline)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, p, err
	}
	if err := writeSpans(base+".spans.jsonl", p.trace.spans); err != nil {
		return nil, p, err
	}
	fmt.Fprintf(stderr, "perfbench: spans of %d sampled results (%d broken chains) in %s.spans.jsonl, %d /metrics samples (%d failed), CPU profile in %s.cpu.pprof\n",
		len(p.trace.spans), p.trace.broken, base, len(tr.scrapes), tr.scrapeErrs, base)
	if p.trace.broken > 0 {
		err = fmt.Errorf("%d sampled results have hops that do not chain", p.trace.broken)
	}

	values, lerr := layerMetrics(s, in, want)
	if err == nil {
		err = lerr
	}
	for k, v := range p.trace.metrics {
		values[k] = v
	}
	for _, k := range []string{"e2e.latency_p90_ms", "e2e.latency_p99_ms", "runtime.gc_cycles", "runtime.gc_pause_ms"} {
		values[k] = untraced[k]
	}
	values["trace.overhead_frac"] = p.cpuUs/float64(p.tuples)/untraced["cpu_us_per_tuple"] - 1
	return values, p, err
}
