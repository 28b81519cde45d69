package main

import "fastjoin"

// mix is the splitmix64 finalizer: it spreads pair ids so a plain sum of
// them is an order-independent fingerprint of a multiset of pairs.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// recorder is the emission-mode sink. The system calls OnResult from its
// single sink task, so the recorder needs no locking; its per-result work
// is a few array writes, keeping the timed path cheap.
//
// A pair is filed under its later tuple (the larger Seq, which is also the
// later due time): cnt and sum fingerprint the required partners the later
// tuple received, and last is when its most recent result arrived, which
// gives one latency sample per probing tuple.
type recorder struct {
	in   []fastjoin.Tuple
	need int64 // required pairs lie at most this far apart in due time (ns)
	thin uint64

	cnt  []uint32
	sum  []uint64
	last []int64
	// joined is the JoinedAt of the pair that set last (traced runs).
	joined []int64
	// extra counts valid pairs beyond the guard (tolerated); bad counts
	// pairs that should never have been emitted.
	extra, bad int64
}

func newRecorder(in []fastjoin.Tuple, need int64, thin uint64, traced bool) *recorder {
	r := &recorder{
		in: in, need: need, thin: thin,
		cnt:  make([]uint32, len(in)),
		sum:  make([]uint64, len(in)),
		last: make([]int64, len(in)),
	}
	if traced {
		r.joined = make([]int64, len(in))
	}
	return r
}

func (r *recorder) onResult(p fastjoin.JoinedPair) {
	now := nowNs()
	a, b := p.R.Seq, p.S.Seq
	n := uint64(len(r.in))
	if a >= n || b >= n || p.R.Side != fastjoin.R || p.S.Side != fastjoin.S ||
		p.R.Key != p.S.Key || r.in[a].Key != p.R.Key || r.in[b].Key != p.S.Key ||
		(a+b)%r.thin != 0 {
		r.bad++
		return
	}
	later, earlier := a, b
	if b > a {
		later, earlier = b, a
	}
	r.last[later] = now
	if r.joined != nil {
		r.joined[later] = p.JoinedAt
	}
	if r.in[later].EventTime-r.in[earlier].EventTime <= r.need {
		r.cnt[later]++
		r.sum[later] += mix(earlier)
	} else {
		r.extra++
	}
}

// windowOracle computes, for every tuple as the later side of a pair, the
// count and fingerprint of its required partners: opposite-side tuples of
// the same key that come earlier, lie at most need apart in due time, and
// pass the thinning predicate.
func windowOracle(in []fastjoin.Tuple, keys int, need int64, thin uint64) (cnt []uint32, sum []uint64, total int64) {
	cnt = make([]uint32, len(in))
	sum = make([]uint64, len(in))
	var hist [2][][]int32
	var head [2][]int
	for s := range hist {
		hist[s] = make([][]int32, keys)
		head[s] = make([]int, keys)
	}
	for i, t := range in {
		opp := t.Side.Opposite()
		list := hist[opp][t.Key]
		h := head[opp][t.Key]
		for h < len(list) && t.EventTime-in[list[h]].EventTime > need {
			h++
		}
		head[opp][t.Key] = h
		for _, j := range list[h:] {
			if (uint64(i)+uint64(j))%thin == 0 {
				cnt[i]++
				sum[i] += mix(uint64(j))
			}
		}
		total += int64(cnt[i])
		hist[t.Side][t.Key] = append(hist[t.Side][t.Key], int32(i))
	}
	return cnt, sum, total
}

// failures compares what the recorder received with the oracle. A tuple
// whose count differs contributes the difference (missing or duplicated
// pairs); one whose count agrees but whose fingerprint does not lost at
// least one pair and gained another, and contributes 2. Pairs that should
// never have been emitted all count.
func (r *recorder) failures(cnt []uint32, sum []uint64) int64 {
	failed := r.bad
	for i := range cnt {
		switch {
		case r.cnt[i] != cnt[i]:
			d := int64(r.cnt[i]) - int64(cnt[i])
			if d < 0 {
				d = -d
			}
			failed += d
		case r.sum[i] != sum[i]:
			failed += 2
		}
	}
	return failed
}

// exactCount is the full-history oracle of an accept-all join: the number
// of pairs is Σ_k |R_k|·|S_k|.
func exactCount(in []fastjoin.Tuple, keys int) int64 {
	var n [2][]int64
	n[0], n[1] = make([]int64, keys), make([]int64, keys)
	for _, t := range in {
		n[t.Side][t.Key]++
	}
	var total int64
	for k := 0; k < keys; k++ {
		total += n[0][k] * n[1][k]
	}
	return total
}
