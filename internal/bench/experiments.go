package bench

import (
	"fmt"
	"math/rand"
	"time"

	"fastjoin"
	"fastjoin/internal/workload"
)

// Experiment regenerates one (or several closely related) paper figures.
type Experiment struct {
	// ID is the canonical identifier ("fig3").
	ID string
	// Aliases are other figure ids this experiment also produces (an
	// experiment that compares throughput and latency in one run covers
	// two figures).
	Aliases []string
	// Title describes the experiment.
	Title string
	// Run executes the experiment and returns its reports.
	Run func(p Params) ([]*Report, error)
}

// Covers reports whether the experiment produces the given figure id.
func (e *Experiment) Covers(id string) bool {
	if e.ID == id {
		return true
	}
	for _, a := range e.Aliases {
		if a == id {
			return true
		}
	}
	return false
}

// All returns every experiment in figure order.
func All() []*Experiment {
	return []*Experiment{
		expFig1ab(),
		expFig1cd(),
		expFig3_4_11(),
		expFig5_6(),
		expFig7_8(),
		expFig9_10(),
		expFig12_13(),
		expFig14(),
		expBatch(),
		expSplit(),
		Ablation(),
	}
}

// Find returns the experiment covering the figure id, or nil.
func Find(id string) *Experiment {
	for _, e := range All() {
		if e.Covers(id) {
			return e
		}
	}
	return nil
}

// calibrationTime is the warm-up the offered-rate calibration skips before
// its 2-second steady measurement: at least one full window plus slack.
func calibrationTime(p Params) time.Duration {
	d := timedWindow + 500*time.Millisecond
	if p.Quick {
		d = timedWindow
	}
	return d
}

// timedWindow is the join window used by the timed experiments
// (Figs. 1cd/3/4/11): it keeps the per-probe work stationary so the
// measured series compare steady states rather than the unbounded growth
// of a full-history store. The batch sweeps run full-history.
const timedWindow = 2 * time.Second

// rideHailingSources builds the default (DiDi-style) workload with an
// optional tuple budget (0 = unbounded).
func rideHailingSources(p Params, budget int) []fastjoin.TupleSource {
	return rideHailingSourcesRate(p, budget, 0)
}

// rideHailingSourcesRate is rideHailingSources with a paced ingest rate.
func rideHailingSourcesRate(p Params, budget int, rate float64) []fastjoin.TupleSource {
	w := fastjoin.NewRideHailingWorkload(fastjoin.RideHailingOptions{
		Cells:    p.Keys,
		Tuples:   budget,
		Rate:     rate,
		Parallel: 3,
		Seed:     p.Seed,
	})
	return w.Sources
}

// ---------------------------------------------------------------- fig 1ab

func expFig1ab() *Experiment {
	return &Experiment{
		ID:      "fig1ab",
		Aliases: []string{"fig1a", "fig1b"},
		Title:   "Key-frequency skew of the ride-hailing streams (paper Fig. 1a/1b)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			cfg := workload.DefaultRideHailingConfig()
			side := isqrtInt(p.Keys)
			cfg.GridWidth, cfg.GridHeight = side, (p.Keys+side-1)/side
			cfg.Seed = p.Seed
			rh := workload.NewRideHailing(cfg)

			samples := p.TupleBudget
			rep := &Report{
				ID:      "fig1ab",
				Title:   "Skew of orders (R) and taxi tracks (S); paper: 20%/24% of locations hold 80%",
				XLabel:  "stream",
				Columns: []string{"keys_for_80%_mass(%)", "top_20%_keys_share(%)", "tuples_per_key(c)"},
			}
			for _, sc := range []struct {
				name string
				src  *workload.Source
			}{{"orders(R)", rh.R}, {"tracks(S)", rh.S}} {
				d := workload.NewDistribution()
				for i := 0; i < samples; i++ {
					d.Observe(sc.src.Next().Key)
				}
				rep.AddRow(sc.name,
					d.KeysForMass(0.8)*100,
					d.TopShare(0.2)*100,
					d.MeanTuplesPerKey(),
				)
			}
			rep.AddNote("calibrated zipf exponents: orders θ=%.3f, tracks θ=%.3f", rh.OrderTheta, rh.TrackTheta)
			rep.AddNote("paper reports ~20%% of locations holding 80%% of orders and ~24%% for tracks")
			return []*Report{rep}, nil
		},
	}
}

// ---------------------------------------------------------------- fig 1cd

func expFig1cd() *Experiment {
	return &Experiment{
		ID:      "fig1cd",
		Aliases: []string{"fig1c", "fig1d"},
		Title:   "Load divergence and throughput decay under plain hash partitioning (paper Fig. 1c/1d)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			calOpts := sysOptions(fastjoin.KindBiStream, p, p.Joiners, rideHailingSources(p, 0))
			calOpts.Windowing.Span = timedWindow
			rate, err := calibrateOfferedRate(calOpts, calibrationTime(p))
			if err != nil {
				return nil, err
			}
			opts := sysOptions(fastjoin.KindBiStream, p, p.Joiners, rideHailingSourcesRate(p, 0, rate))
			opts.Windowing.Span = timedWindow
			res, err := runTimed(fastjoin.KindBiStream, opts, p.Duration, p.SampleEvery)
			if err != nil {
				return nil, err
			}

			// Fig 1c: per-instance load over time (first 8 instances).
			n := len(res.Loads)
			if n > 8 {
				n = 8
			}
			loadRep := &Report{
				ID:     "fig1cd",
				Title:  "Fig 1c: per-instance load L_i = |R_i|*φ_si over time (BiStream, R side)",
				XLabel: "sample#",
			}
			maxLen := 0
			for i := 0; i < n; i++ {
				loadRep.Columns = append(loadRep.Columns, fmt.Sprintf("I%d", i))
				if len(res.Loads[i]) > maxLen {
					maxLen = len(res.Loads[i])
				}
			}
			for s := 0; s < maxLen; s++ {
				cells := make([]float64, n)
				for i := 0; i < n; i++ {
					if s < len(res.Loads[i]) {
						cells[i] = res.Loads[i][s].Value
					}
				}
				loadRep.AddRow(fmt.Sprintf("%d", s), cells...)
			}
			loadRep.AddNote("loads diverge over time: hash partitioning concentrates hot keys")

			thrRep := &Report{
				ID:      "fig1cd",
				Title:   "Fig 1d: BiStream throughput over time under the skewed workload",
				XLabel:  "t",
				Columns: []string{"results/s"},
			}
			for _, s := range res.Samples {
				thrRep.AddRow(s.At.String(), s.Throughput)
			}
			return []*Report{loadRep, thrRep}, nil
		},
	}
}

// ------------------------------------------------------------ fig 3/4/11

func expFig3_4_11() *Experiment {
	return &Experiment{
		ID:      "fig3",
		Aliases: []string{"fig4", "fig11"},
		Title:   "Real-time throughput, latency and load imbalance (paper Figs. 3, 4, 11)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			calOpts := sysOptions(fastjoin.KindBiStream, p, p.Joiners, rideHailingSources(p, 0))
			calOpts.Windowing.Span = timedWindow
			rate, err := calibrateOfferedRate(calOpts, calibrationTime(p))
			if err != nil {
				return nil, err
			}
			results := make([]TimedResult, 0, len(comparedSystems))
			for _, kind := range comparedSystems {
				opts := sysOptions(kind, p, p.Joiners, rideHailingSourcesRate(p, 0, rate))
				opts.Windowing.Span = timedWindow
				res, err := runTimed(kind, opts, p.Duration, p.SampleEvery)
				if err != nil {
					return nil, err
				}
				results = append(results, res)
			}

			cols := make([]string, len(results))
			for i, r := range results {
				cols[i] = r.Kind.String()
			}
			minSamples := len(results[0].Samples)
			for _, r := range results {
				if len(r.Samples) < minSamples {
					minSamples = len(r.Samples)
				}
			}

			thr := &Report{ID: "fig3", Title: "Fig 3: real-time throughput (results/s)", XLabel: "t", Columns: cols}
			lat := &Report{ID: "fig4", Title: "Fig 4: real-time processing latency (µs)", XLabel: "t", Columns: cols}
			li := &Report{ID: "fig11", Title: "Fig 11: real-time degree of load imbalance LI (R side)", XLabel: "t", Columns: cols}
			for s := 0; s < minSamples; s++ {
				x := results[0].Samples[s].At.String()
				thrCells := make([]float64, len(results))
				latCells := make([]float64, len(results))
				liCells := make([]float64, len(results))
				for i, r := range results {
					thrCells[i] = r.Samples[s].Throughput
					latCells[i] = r.Samples[s].LatencyUs
					if s < len(r.LI) {
						liCells[i] = r.LI[s]
					}
				}
				thr.AddRow(x, thrCells...)
				lat.AddRow(x, latCells...)
				li.AddRow(x, liCells...)
			}
			thr.AddNote("offered load: %.0f tuples/s (1.2x the BiStream baseline's calibrated skew-limited capacity)", rate)
			for i, r := range results {
				thr.AddNote("%s: mean %s = %.0f results/s, migrations = %d",
					cols[i], "throughput", r.MeanThroughput(), r.Migrations)
				lat.AddNote("%s: mean latency = %.0f µs", cols[i], r.MeanLatencyUs())
				li.AddNote("%s: steady LI (tail mean) = %.2f (Θ = %.1f)", cols[i], meanTail(r.LI, 0.5), p.Theta)
			}
			return []*Report{thr, lat, li}, nil
		},
	}
}

// -------------------------------------------------------------- fig 5/6

func expFig5_6() *Experiment {
	return &Experiment{
		ID:      "fig5",
		Aliases: []string{"fig6"},
		Title:   "Throughput and latency vs number of join instances (paper Figs. 5, 6)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			sweep := []int{2, 4, 8, 12}
			if p.Quick {
				sweep = []int{2, 4}
			}
			return timedSweepReports(p, "fig5", "fig6",
				"Fig 5: avg throughput vs #join instances per side",
				"Fig 6: avg latency vs #join instances per side",
				"instances", intLabels(sweep),
				func(i int, kind fastjoin.Kind) fastjoin.Options {
					return sysOptions(kind, p, sweep[i], rideHailingSources(p, 0))
				})
		},
	}
}

// -------------------------------------------------------------- fig 7/8

func expFig7_8() *Experiment {
	return &Experiment{
		ID:      "fig7",
		Aliases: []string{"fig8"},
		Title:   "Throughput and latency vs dataset scale (paper Figs. 7, 8)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			fractions := []float64{0.25, 0.5, 1, 1.5, 2}
			if p.Quick {
				fractions = []float64{0.5, 1}
			}
			labels := make([]string, len(fractions))
			budgets := make([]int, len(fractions))
			for i, f := range fractions {
				budgets[i] = int(f * float64(p.TupleBudget))
				labels[i] = fmt.Sprintf("%dk", budgets[i]/1000)
			}
			return sweepReports(p, "fig7", "fig8",
				"Fig 7: avg throughput vs dataset scale (tuple budget; paper: 10-70 GB)",
				"Fig 8: avg latency vs dataset scale",
				"tuples", labels,
				func(i int, kind fastjoin.Kind) (BatchResult, error) {
					opts := sysOptions(kind, p, p.Joiners, rideHailingSources(p, budgets[i]))
					return runBatch(kind, opts)
				})
		},
	}
}

// ------------------------------------------------------------- fig 9/10

func expFig9_10() *Experiment {
	return &Experiment{
		ID:      "fig9",
		Aliases: []string{"fig10"},
		Title:   "Throughput and latency vs load imbalance threshold Θ (paper Figs. 9, 10)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			thetas := []float64{1.2, 1.6, 2.2, 3.2, 5.0}
			if p.Quick {
				thetas = []float64{1.2, 2.2}
			}
			labels := make([]string, len(thetas))
			for i, th := range thetas {
				labels[i] = fmt.Sprintf("%.1f", th)
			}
			return timedSweepReports(p, "fig9", "fig10",
				"Fig 9: avg throughput vs threshold Θ (baselines are Θ-independent)",
				"Fig 10: avg latency vs threshold Θ",
				"theta", labels,
				func(i int, kind fastjoin.Kind) fastjoin.Options {
					pp := p
					pp.Theta = thetas[i]
					return sysOptions(kind, pp, p.Joiners, rideHailingSources(p, 0))
				})
		},
	}
}

// ------------------------------------------------------------ fig 12/13

func expFig12_13() *Experiment {
	return &Experiment{
		ID:      "fig12",
		Aliases: []string{"fig13"},
		Title:   "Throughput and latency across synthetic skew groups Gxy (paper Figs. 12, 13)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			thetas := []float64{0, 1, 2}
			var labels []string
			var groups [][2]float64
			for _, tr := range thetas {
				for _, ts := range thetas {
					labels = append(labels, fmt.Sprintf("G%d%d", int(tr), int(ts)))
					groups = append(groups, [2]float64{tr, ts})
				}
			}
			if p.Quick {
				labels = []string{"G00", "G22"}
				groups = [][2]float64{{0, 0}, {2, 2}}
			}
			cols := make([]string, len(comparedSystems))
			for i, k := range comparedSystems {
				cols[i] = k.String()
			}
			thr := &Report{ID: "fig12", Title: "Fig 12: avg throughput across skew groups (Gxy: R zipf x, S zipf y)", XLabel: "group", Columns: cols}
			lat := &Report{ID: "fig13", Title: "Fig 13: avg latency across skew groups", XLabel: "group", Columns: cols}
			// Timed saturated runs: each system processes each group at its
			// own capacity for a fixed wall-clock window.
			for i, label := range labels {
				thrCells := make([]float64, len(comparedSystems))
				latCells := make([]float64, len(comparedSystems))
				for k, kind := range comparedSystems {
					w := fastjoin.NewZipfWorkload(fastjoin.ZipfOptions{
						Keys:     p.Keys,
						ThetaR:   groups[i][0],
						ThetaS:   groups[i][1],
						Parallel: 3,
						Seed:     p.Seed,
					})
					opts := sysOptions(kind, p, p.Joiners, w.Sources)
					opts.Windowing.Span = timedWindow
					res, err := runTimed(kind, opts, p.Duration, p.SampleEvery)
					if err != nil {
						return nil, fmt.Errorf("fig12 %s@%s: %w", kind, label, err)
					}
					thrCells[k] = res.MeanThroughput()
					latCells[k] = res.MeanLatencyUs()
				}
				thr.AddRow(label, thrCells...)
				lat.AddRow(label, latCells...)
			}
			thr.AddNote("offered load: unbounded; each system runs each group at its own capacity")
			return []*Report{thr, lat}, nil
		},
	}
}

// --------------------------------------------------------------- fig 14

func expFig14() *Experiment {
	return &Experiment{
		ID:    "fig14",
		Title: "GreedyFit vs SAFit key selection (paper Fig. 14)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			rep := &Report{
				ID:      "fig14",
				Title:   "Fig 14: processing latency of FastJoin with the two key selectors",
				XLabel:  "selector",
				Columns: []string{"latency_mean_us", "latency_p99_us", "throughput", "migrations"},
			}
			for _, kind := range []fastjoin.Kind{fastjoin.KindFastJoin, fastjoin.KindFastJoinSAFit} {
				opts := sysOptions(kind, p, p.Joiners, rideHailingSources(p, p.TupleBudget))
				res, err := runBatch(kind, opts)
				if err != nil {
					return nil, err
				}
				rep.AddRow(kind.String(), res.LatencyMeanUs, res.LatencyP99Us, res.Throughput, float64(res.Migrations))
			}
			rep.AddNote("paper finding: the two selectors perform nearly the same")
			return []*Report{rep}, nil
		},
	}
}

// ---------------------------------------------------------------- batch

// zipfG10ThetaR is the skew of the shared A/B workload: zipf θ=1 on R (hot
// routing lanes, hot stores), uniform S.
const zipfG10ThetaR = 1.0

// pregenZipfG10 materializes the deterministic skew-group-G10 workload the
// data-plane A/B experiment (batch) uses, returning a factory that
// replays the identical tuple slices at memory speed for every run. With a
// full-history store the join cardinality is Σ_k |R_k|·|S_k| — a function of
// the tuple multiset only, so every run produces the IDENTICAL result count
// no matter how arrival interleaves, and throughput ratios compare equal
// work. (A time window would make match volume depend on source
// interleaving and drown the A/B in run-to-run noise; uniform S keeps the
// hot key's scan cost linear instead of quadratic. Live zipf sampling is
// slower than the paths under test and would bound ingestion.)
func pregenZipfG10(p Params) func() []fastjoin.TupleSource {
	gen := fastjoin.NewZipfWorkload(fastjoin.ZipfOptions{
		Keys:     p.Keys,
		ThetaR:   zipfG10ThetaR,
		ThetaS:   0,
		Tuples:   p.TupleBudget,
		Parallel: 3,
		Seed:     p.Seed,
	})
	pre := make([][]fastjoin.Tuple, len(gen.Sources))
	for i, src := range gen.Sources {
		for {
			t, ok := src()
			if !ok {
				break
			}
			pre[i] = append(pre[i], t)
		}
	}
	return func() []fastjoin.TupleSource {
		out := make([]fastjoin.TupleSource, len(pre))
		for i := range pre {
			ts := pre[i]
			idx := 0
			out[i] = func() (fastjoin.Tuple, bool) {
				if idx >= len(ts) {
					return fastjoin.Tuple{}, false
				}
				t := ts[idx]
				idx++
				return t, true
			}
		}
		return out
	}
}

// expBatch is the batched-data-plane A/B (archived as BENCH_3.json): the
// identical skewed zipf workload at fixed seed runs with batches of one
// (BatchSize 1, one message per routed tuple) and with the default batch
// size, and the report compares sustained throughput.
//
// Methodology notes:
//   - ServiceRate is forced to 0. The emulated per-node capacity works by
//     sleeping, which caps every configuration at the same virtual rate
//     and would mask exactly the per-message overhead this experiment
//     measures. The A/B must be CPU/channel bound.
//   - A short join window bounds per-probe scan work so the data plane
//     (boxing + channel send per emit) stays the dominant term, as it is
//     at cluster scale where windows are always bounded.
func expBatch() *Experiment {
	return &Experiment{
		ID:      "batch",
		Aliases: []string{"bench3"},
		Title:   "Batched data plane A/B: throughput with batching off vs on (BENCH_3)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			// Skew group G10: zipf θ=1 on R (hot routing lanes, hot
			// stores), uniform S. With a full-history store the join
			// cardinality is Σ_k |R_k|·|S_k| — a function of the tuple
			// multiset only, so every run produces the IDENTICAL result
			// count no matter how arrival interleaves, and the throughput
			// ratio compares equal work. (A time window would make match
			// volume depend on source interleaving and drown the A/B in
			// run-to-run noise; uniform S keeps the hot key's scan cost
			// linear instead of quadratic.)
			mkSources := pregenZipfG10(p)
			// Best-of-reps: the runs are sub-second, so scheduler noise
			// swings a single measurement by ±20%; the fastest of a few
			// repetitions is the standard throughput estimate.
			reps := 3
			if p.Quick {
				reps = 1
			}
			run := func(kind fastjoin.Kind, batchSize int) (BatchResult, error) {
				var best BatchResult
				for r := 0; r < reps; r++ {
					opts := sysOptions(kind, p, p.Joiners, mkSources())
					opts.ServiceRate = 0 // full-history, CPU/channel bound
					opts.Batching.Size = batchSize
					res, err := runBatch(kind, opts)
					if err != nil {
						return BatchResult{}, err
					}
					if r == 0 || res.Elapsed < best.Elapsed {
						best = res
					}
					if res.Results != best.Results {
						return BatchResult{}, fmt.Errorf("batch %s rep %d: result count %d != %d; workload not deterministic",
							kind, r, res.Results, best.Results)
					}
				}
				return best, nil
			}
			rep := &Report{
				ID:     "batch",
				Title:  fmt.Sprintf("Batching off (BatchSize=1) vs on (BatchSize=%d): zipf G10 (θR=%.1f, uniform S), %d joiners/side, seed %d", fastjoin.DefaultBatchSize, zipfG10ThetaR, p.Joiners, p.Seed),
				XLabel: "system",
				Columns: []string{
					"unbatched(results/s)", "batched(results/s)", "speedup",
					"unbatched_lat_us", "batched_lat_us",
				},
			}
			for _, kind := range []fastjoin.Kind{fastjoin.KindBiStream, fastjoin.KindFastJoin} {
				off, err := run(kind, 1)
				if err != nil {
					return nil, fmt.Errorf("batch %s off: %w", kind, err)
				}
				on, err := run(kind, 0) // 0 = default batch size
				if err != nil {
					return nil, fmt.Errorf("batch %s on: %w", kind, err)
				}
				speedup := 0.0
				if off.Throughput > 0 {
					speedup = on.Throughput / off.Throughput
				}
				rep.AddRow(kind.String(),
					off.Throughput, on.Throughput, speedup,
					off.LatencyMeanUs, on.LatencyMeanUs)
				rep.AddNote("%s: %d results, unbatched %s vs batched %s elapsed (speedup %.2fx)",
					kind, on.Results, off.Elapsed.Round(time.Millisecond),
					on.Elapsed.Round(time.Millisecond), speedup)
				if off.Results != on.Results {
					return nil, fmt.Errorf("batch %s: result counts diverge (off %d, on %d); exactly-once broken or workload not deterministic",
						kind, off.Results, on.Results)
				}
			}
			rep.AddNote("ServiceRate forced to 0 (capacity emulation sleeps would mask the per-message overhead under test)")
			return []*Report{rep}, nil
		},
	}
}

// ---------------------------------------------------------------- split

// megaKeyShare is the single scorching key's share of both streams in the
// split experiment: far more than one instance's fair share, so no
// whole-key migration can balance it — the workload whole-key migration
// provably cannot help with, and the one hot-key splitting exists for.
const megaKeyShare = 0.4

// splitPredMod thins the mega-key's quadratic result set so the runs are
// dominated by probe/scan work (what splitting parallelizes), not result
// materialization. The expected count stays exactly computable from the
// per-key Seq residue histograms.
const splitPredMod = 64

// pregenMegaKey builds the deterministic mega-key workload (one key at
// megaKeyShare of both streams, the rest uniform) pre-generated so every
// run replays the identical multiset, and returns the source factory plus
// the exact expected result count under the splitPredMod predicate.
func pregenMegaKey(p Params, n int) (func() []fastjoin.TupleSource, int64) {
	rng := rand.New(rand.NewSource(p.Seed))
	tuples := make([]fastjoin.Tuple, 0, n)
	// hist[key][side][residue] counts Seq%splitPredMod per key and side:
	// pairs match iff (rSeq+sSeq)%splitPredMod == 0, so the exact join
	// cardinality is Σ_k Σ_a histR[a]·histS[(mod-a)%mod].
	hist := make(map[fastjoin.Key]*[2][splitPredMod]int64)
	var rSeq, sSeq uint64
	for i := 0; i < n; i++ {
		key := fastjoin.Key(0)
		if rng.Float64() >= megaKeyShare {
			key = fastjoin.Key(1 + rng.Intn(p.Keys-1))
		}
		t := fastjoin.Tuple{Key: key}
		if i%2 == 0 {
			t.Side, t.Seq = fastjoin.R, rSeq
			rSeq++
		} else {
			t.Side, t.Seq = fastjoin.S, sSeq
			sSeq++
		}
		tuples = append(tuples, t)
		h := hist[key]
		if h == nil {
			h = new([2][splitPredMod]int64)
			hist[key] = h
		}
		h[t.Side][t.Seq%splitPredMod]++
	}
	var expected int64
	for _, h := range hist {
		for a := 0; a < splitPredMod; a++ {
			expected += h[fastjoin.R][a] * h[fastjoin.S][(splitPredMod-a)%splitPredMod]
		}
	}
	// Round-robin across 3 parallel sources, like the zipf pregen.
	const parallel = 3
	pre := make([][]fastjoin.Tuple, parallel)
	for i, t := range tuples {
		pre[i%parallel] = append(pre[i%parallel], t)
	}
	return func() []fastjoin.TupleSource {
		out := make([]fastjoin.TupleSource, len(pre))
		for i := range pre {
			ts := pre[i]
			idx := 0
			out[i] = func() (fastjoin.Tuple, bool) {
				if idx >= len(ts) {
					return fastjoin.Tuple{}, false
				}
				t := ts[idx]
				idx++
				return t, true
			}
		}
		return out
	}, expected
}

// splitArrivalFactor sets the split experiment's offered arrival rate as
// a fraction of the per-instance ServiceRate. Pacing the sources is what
// makes the A/B honest: with an unbounded finite replay the dispatcher
// routes the entire stream in milliseconds — long before the detector's
// intent/ack handshake lands — so every tuple is already enqueued at the
// old owner and activation redirects nothing. A paced stream keeps the
// dispatcher in (emulated) real time, so tuples arriving after
// activation actually take the salted route, exactly as they would in a
// long-running deployment. 0.5 keeps the hot instance unsaturated until
// the split activates (so the handshake isn't stuck behind a backlog)
// while the no-split run still drowns in the mega-key's quadratic scan.
const splitArrivalFactor = 0.5

// pacedSources throttles a source set to an aggregate arrival rate of
// perSecTotal tuples/second, split evenly across the sources. Each
// source's clock starts on its first pull so system startup time is not
// counted as banked arrival credit.
func pacedSources(srcs []fastjoin.TupleSource, perSecTotal float64) []fastjoin.TupleSource {
	per := perSecTotal / float64(len(srcs))
	out := make([]fastjoin.TupleSource, len(srcs))
	for i, src := range srcs {
		src := src
		var start time.Time
		emitted := 0
		out[i] = func() (fastjoin.Tuple, bool) {
			t, ok := src()
			if !ok {
				return t, ok
			}
			if emitted == 0 {
				start = time.Now()
			}
			emitted++
			due := time.Duration(float64(emitted) / per * float64(time.Second))
			if ahead := due - time.Since(start); ahead > 2*time.Millisecond {
				time.Sleep(ahead)
			}
			return t, ok
		}
	}
	return out
}

// expSplit is the hot-key splitting A/B (archived as BENCH_5.json): the
// identical single-mega-key workload runs on FastJoin with splitting off
// and on. Without splitting the mega-key's entire probe/scan load
// serializes on one join instance per side; with splitting the stores
// salt across SplitWays instances and probes fan out to them, dividing
// the per-instance scan volume by SplitWays. Unlike expBatch
// this experiment keeps the ServiceRate capacity emulation ON and paces
// the offered load (see splitArrivalFactor): the win under test is
// parallelism across instances, which the emulated per-instance op
// budget exposes faithfully on any host (the emulation sleeps
// concurrently), whereas raw CPU-bound wall clock would only show it on
// a machine with enough free cores. Both sides of the A/B must produce
// the exactly computed expected result count — the bench doubles as a
// correctness check of salted routing.
func expSplit() *Experiment {
	return &Experiment{
		ID:      "split",
		Aliases: []string{"bench5", "megakey"},
		Title:   "Hot-key splitting A/B: one mega-key with splitting off vs on (BENCH_5)",
		Run: func(p Params) ([]*Report, error) {
			p = p.withDefaults()
			// The mega-key's virtual scan load is quadratic in the budget;
			// cap it so the serial (no-split) side finishes in seconds.
			n := min(p.TupleBudget, 20_000)
			if p.Quick {
				n = min(n, 8_000)
			}
			mkSources, expected := pregenMegaKey(p, n)
			ways := min(4, p.Joiners)
			pred := func(r, s fastjoin.Tuple) bool { return (r.Seq+s.Seq)%splitPredMod == 0 }
			reps := 3
			if p.Quick {
				reps = 1
			}
			run := func(threshold float64) (BatchResult, int64, error) {
				var best BatchResult
				var splits int64
				for r := 0; r < reps; r++ {
					srcs := pacedSources(mkSources(), splitArrivalFactor*p.ServiceRate)
					opts := sysOptions(fastjoin.KindFastJoin, p, p.Joiners, srcs)
					opts.Predicate = pred
					opts.Migration.SplitThreshold = threshold
					opts.Migration.SplitWays = ways
					res, err := runBatch(fastjoin.KindFastJoin, opts)
					if err != nil {
						return BatchResult{}, 0, err
					}
					if res.Results != expected {
						return BatchResult{}, 0, fmt.Errorf("split threshold=%v rep %d: %d results, expected exactly %d; salted routing broke the join",
							threshold, r, res.Results, expected)
					}
					if r == 0 || res.Elapsed < best.Elapsed {
						best = res
						splits = res.KeysSplit
					}
				}
				return best, splits, nil
			}
			off, _, err := run(0)
			if err != nil {
				return nil, fmt.Errorf("split off: %w", err)
			}
			// Threshold 0.3: the mega-key holds ~55% of its dispatcher
			// task's traffic (its 40% plus a quarter of the uniform rest),
			// every other key a fraction of a percent — only the mega-key
			// can split.
			on, splits, err := run(0.3)
			if err != nil {
				return nil, fmt.Errorf("split on: %w", err)
			}
			if splits == 0 {
				return nil, fmt.Errorf("split on: the mega-key never split (KeysSplit=0); the A/B compared identical systems")
			}
			speedup := 0.0
			if off.Throughput > 0 {
				speedup = on.Throughput / off.Throughput
			}
			rep := &Report{
				ID:     "split",
				Title:  fmt.Sprintf("Hot-key splitting off vs on: one key at %.0f%% of both streams, %d joiners/side, %d-way split, seed %d", megaKeyShare*100, p.Joiners, ways, p.Seed),
				XLabel: "system",
				Columns: []string{
					"nosplit(results/s)", "split(results/s)", "speedup",
					"nosplit_lat_us", "split_lat_us",
				},
			}
			rep.AddRow(fastjoin.KindFastJoin.String(),
				off.Throughput, on.Throughput, speedup,
				off.LatencyMeanUs, on.LatencyMeanUs)
			rep.AddNote("%d tuples, %d results (both runs match the residue-histogram expectation exactly); nosplit %s vs split %s elapsed (speedup %.2fx, %d split activations)",
				n, expected, off.Elapsed.Round(time.Millisecond),
				on.Elapsed.Round(time.Millisecond), speedup, splits)
			rep.AddNote("nosplit run migrated %d times — whole-key migration cannot shed a single mega-key, which is the gap splitting closes",
				off.Migrations)
			rep.AddNote("ServiceRate %.0f virtual ops/s per instance: the emulated capacity exposes the %d-way scan parallelism on any host",
				p.ServiceRate, ways)
			return []*Report{rep}, nil
		},
	}
}

// timedSweepReports runs every compared system across a sweep as timed
// saturated runs (windowed, unbounded offered load) and renders the
// throughput and latency tables.
func timedSweepReports(p Params, idA, idB, titleA, titleB, xLabel string, labels []string,
	mkOpts func(i int, kind fastjoin.Kind) fastjoin.Options) ([]*Report, error) {

	cols := make([]string, len(comparedSystems))
	for i, k := range comparedSystems {
		cols[i] = k.String()
	}
	thr := &Report{ID: idA, Title: titleA, XLabel: xLabel, Columns: cols}
	lat := &Report{ID: idB, Title: titleB, XLabel: xLabel, Columns: cols}
	var migrations int64
	for i, label := range labels {
		thrCells := make([]float64, len(comparedSystems))
		latCells := make([]float64, len(comparedSystems))
		for k, kind := range comparedSystems {
			opts := mkOpts(i, kind)
			opts.Windowing.Span = timedWindow
			res, err := runTimed(kind, opts, p.Duration, p.SampleEvery)
			if err != nil {
				return nil, fmt.Errorf("%s %s@%s: %w", idA, kind, label, err)
			}
			thrCells[k] = res.MeanThroughput()
			latCells[k] = res.MeanLatencyUs()
			if kind == fastjoin.KindFastJoin {
				migrations += res.Migrations
			}
		}
		thr.AddRow(label, thrCells...)
		lat.AddRow(label, latCells...)
	}
	thr.AddNote("timed saturated runs (window %v): each system at its own capacity", timedWindow)
	thr.AddNote("FastJoin migrations across the sweep: %d", migrations)
	return []*Report{thr, lat}, nil
}

// sweepReports runs every compared system across a sweep and renders the
// throughput and latency tables.
func sweepReports(p Params, idA, idB, titleA, titleB, xLabel string, labels []string,
	run func(i int, kind fastjoin.Kind) (BatchResult, error)) ([]*Report, error) {

	cols := make([]string, len(comparedSystems))
	for i, k := range comparedSystems {
		cols[i] = k.String()
	}
	thr := &Report{ID: idA, Title: titleA, XLabel: xLabel, Columns: cols}
	lat := &Report{ID: idB, Title: titleB, XLabel: xLabel, Columns: cols}
	var migrations int64
	for i, label := range labels {
		thrCells := make([]float64, len(comparedSystems))
		latCells := make([]float64, len(comparedSystems))
		for k, kind := range comparedSystems {
			res, err := run(i, kind)
			if err != nil {
				return nil, fmt.Errorf("%s %s@%s: %w", idA, kind, label, err)
			}
			thrCells[k] = res.Throughput
			latCells[k] = res.LatencyMeanUs
			if kind == fastjoin.KindFastJoin {
				migrations += res.Migrations
			}
		}
		thr.AddRow(label, thrCells...)
		lat.AddRow(label, latCells...)
	}
	thr.AddNote("FastJoin migrations across the sweep: %d", migrations)
	return []*Report{thr, lat}, nil
}

func intLabels(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

// isqrtInt is integer sqrt (floor, >= 1).
func isqrtInt(n int) int {
	if n <= 0 {
		return 1
	}
	x, y := n, (n+1)/2
	for y < x {
		x, y = y, (y+n/y)/2
	}
	if x < 1 {
		return 1
	}
	return x
}

// RunAll executes every experiment and returns all reports in order.
func RunAll(p Params) ([]*Report, error) {
	var out []*Report
	for _, e := range All() {
		reps, err := e.Run(p)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, reps...)
	}
	return out, nil
}
