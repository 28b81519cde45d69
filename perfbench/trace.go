package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fastjoin"
)

// components are the engine tasks whose queues the traced run samples,
// in pipeline order.
var components = []string{"shuffler", "dispatcher", "joinerR", "joinerS", "sink"}

// scrapeEvery is how often the traced run samples /metrics.
const scrapeEvery = 100 * time.Millisecond

// tracer instruments one pass from the outside: it wraps the public hooks,
// serves /metrics through Options.Observe and samples it while the pass
// runs. Spans are kept in memory for the sampled tuples (one in
// 1<<sampleShift by Seq) and written out when the pass ends.
type tracer struct {
	pre []atomic.Int64 // sampled slot → PreProcess entry (unix ns)
	// calls counts Predicate calls, sharded by the probing tuple so one
	// probe's scan stays on one cache line.
	calls [64]struct {
		n atomic.Int64
		_ [56]byte
	}

	stop, done chan struct{}
	scrapes    []scrape
	scrapeErrs int
}

// scrape is one /metrics sample.
type scrape struct {
	depth     map[string]float64 // component → backlog summed over tasks
	highWater map[string]float64 // component → deepest task backlog so far
	loads     [2][]float64       // side → per-instance load L_i
	li        [2]float64         // side → the monitor's LI
	splitKeys float64
}

func (t *tracer) instrument(o *fastjoin.Options, n int) {
	t.pre = make([]atomic.Int64, n>>sampleShift+1)
	o.Observe.Addr = "127.0.0.1:0"
	o.PreProcess = func(tp fastjoin.Tuple) fastjoin.Tuple {
		if tp.Seq&sampleMask == 0 {
			t.pre[tp.Seq>>sampleShift].Store(nowNs())
		}
		return tp
	}
	inner := o.Predicate
	o.Predicate = func(r, s fastjoin.Tuple) bool {
		t.calls[max(r.Seq, s.Seq)&63].n.Add(1)
		return inner(r, s)
	}
}

func (t *tracer) startScrape(addr string) {
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		client := &http.Client{Timeout: time.Second}
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			sc, err := scrapeOnce(client, "http://"+addr+"/metrics")
			if err != nil {
				t.scrapeErrs++
				continue
			}
			t.scrapes = append(t.scrapes, sc)
		}
	}()
}

// stopScrape ends the sampler and waits for it, so its samples may be read.
func (t *tracer) stopScrape() {
	close(t.stop)
	<-t.done
}

func scrapeOnce(client *http.Client, url string) (scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("scrape: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the families the traced run uses from a Prometheus
// text exposition.
func parseMetrics(r io.Reader) (scrape, error) {
	sc := scrape{depth: map[string]float64{}, highWater: map[string]float64{}}
	lines := bufio.NewScanner(r)
	for lines.Scan() {
		line := lines.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return sc, fmt.Errorf("metric line %q: %w", line, err)
		}
		name, labels := line[:sp], map[string]string{}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(name[i+1:], "}"), ",") {
				k, val, _ := strings.Cut(kv, "=")
				labels[k] = strings.Trim(val, `"`)
			}
			name = name[:i]
		}
		side := 0
		if labels["side"] == "S" {
			side = 1
		}
		switch name {
		case "fastjoin_engine_queue_depth":
			sc.depth[labels["component"]] += v
		case "fastjoin_engine_queue_high_water":
			sc.highWater[labels["component"]] = math.Max(sc.highWater[labels["component"]], v)
		case "fastjoin_instance_load":
			sc.loads[side] = append(sc.loads[side], v)
		case "fastjoin_load_imbalance":
			sc.li[side] = v
		case "fastjoin_split_keys":
			sc.splitKeys = v
		}
	}
	return sc, lines.Err()
}

// traceResult is what a traced pass adds to a passResult.
type traceResult struct {
	metrics map[string]float64
	spans   []tupleSpans
	broken  int // sampled results whose hops do not chain
}

// tupleSpans are the stamps of one sampled tuple's path; consecutive
// stamps bound its hops, so the hops sum to its end-to-end latency.
type tupleSpans struct {
	id                               string
	due, pulled, pre, joined, result int64
	emitted                          bool // the result reached OnResult
}

func (t *tracer) collect(s *spec, f *feed, rec *recorder, stamps *probeStamps, st fastjoin.Stats) *traceResult {
	tr := &traceResult{metrics: map[string]float64{}}
	m := tr.metrics
	n := len(f.in)

	var lag []float64
	if s.openLoop {
		lag = make([]float64, n)
		for i := range lag {
			lag[i] = float64(f.pulled[i]-f.due(i)) / 1e6
		}
	}
	m["engine.ingest_lag_p50_ms"] = quantile(lag, 0.5)
	m["engine.ingest_lag_p99_ms"] = quantile(lag, 0.99)

	var ingest, route, emit []float64
	for slot := range t.pre {
		i := slot << sampleShift
		if i >= n {
			break
		}
		sp := tupleSpans{
			id:     fmt.Sprintf("%s:%d", f.in[i].Side, i),
			due:    f.due(i),
			pulled: f.pulled[i],
			pre:    t.pre[slot].Load(),
		}
		if rec != nil {
			sp.joined, sp.result, sp.emitted = rec.joined[i], rec.last[i], true
		} else {
			sp.joined = stamps.at[slot].Load()
			sp.result = sp.joined
		}
		if sp.pre == 0 || sp.result == 0 {
			continue // no result for this tuple
		}
		if !(sp.due <= sp.pulled && sp.pulled <= sp.pre && sp.pre <= sp.joined && sp.joined <= sp.result) {
			tr.broken++
		}
		tr.spans = append(tr.spans, sp)
		ingest = append(ingest, float64(sp.pre-sp.pulled)/1e3)
		route = append(route, float64(sp.joined-sp.pre)/1e3)
		if sp.emitted {
			emit = append(emit, float64(sp.result-sp.joined)/1e3)
		}
	}
	for name, xs := range map[string][]float64{"ingest": ingest, "route": route, "emit": emit} {
		m["biclique.hop_"+name+"_p50_us"] = quantile(xs, 0.5)
		m["biclique.hop_"+name+"_p99_us"] = quantile(xs, 0.99)
	}

	var calls int64
	for i := range t.calls {
		calls += t.calls[i].n.Load()
	}
	m["biclique.scanned_per_probe"] = float64(calls) / float64(n)
	m["biclique.results_per_tuple"] = float64(st.Results) / float64(n)

	var liSum, moaSum, peak float64
	var liN, moaN int
	for _, c := range components {
		m["engine.queue_depth_mean."+c] = 0
		m["engine.queue_high_water."+c] = 0
	}
	for _, sc := range t.scrapes {
		for _, c := range components {
			m["engine.queue_depth_mean."+c] += sc.depth[c] / float64(len(t.scrapes))
			m["engine.queue_high_water."+c] = math.Max(m["engine.queue_high_water."+c], sc.highWater[c])
		}
		for side := range sc.loads {
			if li := sc.li[side]; li > 0 && !math.IsInf(li, 0) && !math.IsNaN(li) {
				liSum += li
				liN++
			}
			if moa, ok := maxOverAvg(sc.loads[side]); ok {
				moaSum += moa
				moaN++
			}
		}
		peak = math.Max(peak, sc.splitKeys)
	}
	m["balance.li_mean"] = ratio(liSum, float64(liN))
	m["balance.max_over_avg_mean"] = ratio(moaSum, float64(moaN))
	m["balance.migrations"] = float64(st.Migrations)
	m["balance.migrated_tuples"] = float64(st.MigratedTuples)
	m["balance.replayed_tuples"] = float64(st.ReplayedTuples)
	m["split.activations"] = float64(st.KeysSplit)
	m["split.retired"] = float64(st.KeysRetired)
	m["split.active_peak"] = peak
	return tr
}

// maxOverAvg is the imbalance of one side's instance loads, max/avg − 1.
func maxOverAvg(loads []float64) (float64, bool) {
	if len(loads) == 0 {
		return 0, false
	}
	var sum, hi float64
	for _, l := range loads {
		sum += l
		hi = math.Max(hi, l)
	}
	if sum <= 0 {
		return 0, false
	}
	return hi/(sum/float64(len(loads))) - 1, true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanLine is one span in the span file (JSON lines). Every span of a
// sampled tuple shares its trace id; hops name the e2e span as parent.
type spanLine struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func writeSpans(path string, spans []tupleSpans) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		lines := []spanLine{
			{sp.id, "e2e", "", sp.due, sp.result},
			{sp.id, "source", "e2e", sp.due, sp.pulled},
			{sp.id, "ingest", "e2e", sp.pulled, sp.pre},
			{sp.id, "route", "e2e", sp.pre, sp.joined},
		}
		if sp.emitted {
			lines = append(lines, spanLine{sp.id, "emit", "e2e", sp.joined, sp.result})
		}
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				fh.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
