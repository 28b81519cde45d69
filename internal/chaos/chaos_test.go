package chaos

import (
	"sync"
	"testing"
	"time"
)

// decideSeq collects n decisions for one lane/class.
func decideSeq(in *Injector, lane string, cls Class, n int) []Decision {
	out := make([]Decision, n)
	for i := range out {
		out[i] = in.Decide(lane, cls)
	}
	return out
}

func TestDecideDeterministicPerSeed(t *testing.T) {
	p, err := Lookup("mixed")
	if err != nil {
		t.Fatal(err)
	}
	a := decideSeq(NewInjector(p, 42), "j[0]/markers", ClassMarker, 200)
	b := decideSeq(NewInjector(p, 42), "j[0]/markers", ClassMarker, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical (profile, seed): %+v vs %+v", i, a[i], b[i])
		}
	}
	c := decideSeq(NewInjector(p, 43), "j[0]/markers", ClassMarker, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("200 decisions identical across different seeds; seed is not feeding the rand")
	}
}

func TestDecidePerLaneIndependence(t *testing.T) {
	// A lane's decision stream must not shift when another lane's traffic
	// is interleaved differently — that is what makes replay robust to
	// goroutine scheduling.
	p, err := Lookup("mixed")
	if err != nil {
		t.Fatal(err)
	}
	solo := decideSeq(NewInjector(p, 7), "laneA", ClassMarker, 100)

	in := NewInjector(p, 7)
	interleaved := make([]Decision, 0, 100)
	for i := 0; i < 100; i++ {
		in.Decide("laneB", ClassReport)
		interleaved = append(interleaved, in.Decide("laneA", ClassMarker))
		in.Decide("laneC", ClassRouteUpdate)
	}
	for i := range solo {
		if solo[i] != interleaved[i] {
			t.Fatalf("laneA decision %d shifted under interleaving: %+v vs %+v", i, solo[i], interleaved[i])
		}
	}
}

func TestDecideConcurrentSafety(t *testing.T) {
	p, err := Lookup("mixed")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(p, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := string(rune('a' + g))
			for i := 0; i < 500; i++ {
				in.Decide(lane, ClassMarker)
				in.StallFor(lane)
			}
		}(g)
	}
	wg.Wait()
}

func TestScriptedRuleWindow(t *testing.T) {
	p := Profile{
		Name:  "scripted",
		Rules: []Rule{{Class: ClassMarker, Op: OpDrop, First: 2, Count: 3}},
	}
	in := NewInjector(p, 0)
	var got []Op
	for i := 0; i < 8; i++ {
		got = append(got, in.Decide("x", ClassMarker).Op)
	}
	want := []Op{OpNone, OpNone, OpDrop, OpDrop, OpDrop, OpNone, OpNone, OpNone}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d: got %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	// Unscripted classes are untouched.
	if d := in.Decide("x", ClassRouteUpdate); d.Op != OpNone {
		t.Errorf("route-update hit marker rule: %v", d)
	}
}

func TestScriptedRuleUnbounded(t *testing.T) {
	p := Profile{Rules: []Rule{{Class: ClassMarker, Op: OpDrop}}}
	in := NewInjector(p, 0)
	for i := 0; i < 50; i++ {
		if d := in.Decide("x", ClassMarker); d.Op != OpDrop {
			t.Fatalf("occurrence %d not dropped under unbounded rule: %v", i, d)
		}
	}
}

func TestDataClassesCleanInBuiltins(t *testing.T) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cls := range []Class{ClassOther, ClassData, ClassMigData} {
			pol := p.Policies[cls]
			if pol.Drop != 0 || pol.Dup != 0 || pol.Delay != 0 {
				t.Errorf("profile %q faults %v: %+v (breaks exactly-once scoping)", name, cls, pol)
			}
			for _, r := range p.Rules {
				if r.Class == cls {
					t.Errorf("profile %q scripts a rule against %v", name, cls)
				}
			}
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("no-such-profile"); err == nil {
		t.Error("unknown profile did not error")
	}
	p, err := Lookup("")
	if err != nil || p.Name != "none" {
		t.Errorf("empty name: profile %+v, err %v; want the none profile", p, err)
	}
}

func TestCounts(t *testing.T) {
	p := Profile{Rules: []Rule{
		{Class: ClassMarker, Op: OpDrop, First: 0, Count: 2},
		{Class: ClassMarker, Op: OpDup, First: 2, Count: 1},
		{Class: ClassMarker, Op: OpDelay, Delay: time.Microsecond, First: 3, Count: 1},
	}}
	in := NewInjector(p, 0)
	for i := 0; i < 4; i++ {
		in.Decide("x", ClassMarker)
	}
	got := in.Counts()
	want := Counts{Dropped: 2, Duplicated: 1, Delayed: 1}
	if got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
}
