package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
	"time"

	"fastjoin"
)

// The open-loop schedule is fixed by the input: a consumer that pulls late
// gets tuples stamped with the same due times as one that pulls on time.
func TestDueTimesIndependentOfPullRate(t *testing.T) {
	const rate = 2000.0
	for _, pause := range []time.Duration{0, 3 * time.Millisecond} {
		in := scheduled(genDrift(rand.New(rand.NewPCG(1, 2)), 40, 100, 1.0, 20, 7), rate)
		f := newFeed(in, true)
		srcs := f.sources()
		for i := range in {
			tp, ok := srcs[i%sources]()
			if !ok {
				t.Fatalf("pause %v: source ended at tuple %d", pause, i)
			}
			if got, want := tp.EventTime-f.start.Load(), dueOffset(i, rate); got != want {
				t.Fatalf("pause %v: tuple %d due %d after start, want %d", pause, i, got, want)
			}
			if f.pulled[i] < tp.EventTime {
				t.Fatalf("pause %v: tuple %d pulled before it was due", pause, i)
			}
			time.Sleep(pause)
		}
		if pause > 0 {
			last := len(in) - 1
			if lag := f.pulled[last] - f.due(last); lag < int64(time.Millisecond) {
				t.Fatalf("slow consumer should run late, lag %v", time.Duration(lag))
			}
		}
	}
}

func TestWindowOracleMatchesBruteForce(t *testing.T) {
	in := scheduled(genDrift(rand.New(rand.NewPCG(3, 4)), 3000, 20, 1.0, 1000, 3), 1000)
	const need, thin = int64(400 * time.Millisecond), 3
	cnt, sum, total := windowOracle(in, 20, need, thin)
	var bruteTotal int64
	for i := range in {
		var c uint32
		var h uint64
		for j := 0; j < i; j++ {
			if in[j].Side != in[i].Side && in[j].Key == in[i].Key &&
				in[i].EventTime-in[j].EventTime <= need && (i+j)%thin == 0 {
				c++
				h += mix(uint64(j))
			}
		}
		if c != cnt[i] || h != sum[i] {
			t.Fatalf("tuple %d: oracle (%d, %x), brute force (%d, %x)", i, cnt[i], sum[i], c, h)
		}
		bruteTotal += int64(c)
	}
	if total != bruteTotal || total == 0 {
		t.Fatalf("oracle total %d, brute force %d", total, bruteTotal)
	}
}

func TestExactCount(t *testing.T) {
	in := genZipfUniform(rand.New(rand.NewPCG(5, 6)), 2000, 50, 1.0)
	var brute int64
	for i := range in {
		for j := range in {
			if in[i].Side == fastjoin.R && in[j].Side == fastjoin.S && in[i].Key == in[j].Key {
				brute++
			}
		}
	}
	if got := exactCount(in, 50); got != brute || got == 0 {
		t.Fatalf("exactCount %d, brute force %d", got, brute)
	}
}

// A sink that drops or duplicates pairs must show up as failures; the
// unmodified sink must not.
func TestFailuresDetectDroppedAndDuplicatedPairs(t *testing.T) {
	s := &spec{
		openLoop: true, rate: 4000, keys: 200, window: 500 * time.Millisecond,
		guard: 200 * time.Millisecond, thin: 3, emit: true, joiners: 4, splitThreshold: 0.3,
	}
	in := scheduled(genDrift(rand.New(rand.NewPCG(7, 8)), 4000, s.keys, 1.0, 2000, 30), s.rate)
	want := newOracle(s, in)
	if want.count == 0 {
		t.Fatal("workload yields no required pairs")
	}
	n := 0
	for _, tc := range []struct {
		name string
		sink func(p fastjoin.JoinedPair, deliver func(fastjoin.JoinedPair))
		bad  bool
	}{
		{"exact", func(p fastjoin.JoinedPair, deliver func(fastjoin.JoinedPair)) { deliver(p) }, false},
		{"drop", func(p fastjoin.JoinedPair, deliver func(fastjoin.JoinedPair)) {
			if n++; n%50 != 0 {
				deliver(p)
			}
		}, true},
		{"duplicate", func(p fastjoin.JoinedPair, deliver func(fastjoin.JoinedPair)) {
			deliver(p)
			if n++; n%50 == 0 {
				deliver(p)
			}
		}, true},
	} {
		f := newFeed(in, true)
		rec := newRecorder(in, s.need(), s.thin, false)
		opts := s.options()
		opts.Sources = f.sources()
		opts.Predicate = s.keep
		opts.OnResult = func(p fastjoin.JoinedPair) { tc.sink(p, rec.onResult) }
		sys, err := fastjoin.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		err = sys.WaitComplete(30 * time.Second)
		sys.Stop()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		failed := rec.failures(want.cnt, want.sum)
		frac := float64(failed) / float64(want.count)
		if tc.bad && frac <= 0 || !tc.bad && failed != 0 {
			t.Fatalf("%s sink: failed_frac %g (%d of %d)", tc.name, frac, failed, want.count)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP fastjoin_engine_queue_depth Current data-queue backlog per engine task.
# TYPE fastjoin_engine_queue_depth gauge
fastjoin_engine_queue_depth{component="joinerR",task="0"} 3
fastjoin_engine_queue_depth{component="joinerR",task="1"} 4
fastjoin_engine_queue_high_water{component="sink",task="0"} 17
fastjoin_instance_load{side="S",instance="0"} 10
fastjoin_instance_load{side="S",instance="1"} 30
fastjoin_load_imbalance{side="S"} +Inf
fastjoin_split_keys 2
`
	sc, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if sc.depth["joinerR"] != 7 || sc.highWater["sink"] != 17 || sc.splitKeys != 2 {
		t.Fatalf("parsed %+v", sc)
	}
	if moa, ok := maxOverAvg(sc.loads[1]); !ok || moa != 0.5 {
		t.Fatalf("max/avg-1 = %v, %v; want 0.5", moa, ok)
	}
}

// BENCHMARK.json names the same workloads and metrics, with the same
// units, as the program reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		prog []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.prog))
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
