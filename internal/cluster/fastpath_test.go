package cluster

import (
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Fleet-level fast-path equivalence: macro-stepping under the event-kernel
// horizon, the shared cost table, and the O(1) router signals must leave the
// whole FleetResult — every replica's Result, the realised stream, the
// latency digests — deep-equal to the reference decode path.

// runFleet builds a 3-replica PAPI/OPT-30B fleet on the given decode path,
// its options adjusted by configure (nil keeps them), and drives it.
func runFleet(t *testing.T, mode serving.FastPathMode, tlp int, configure func(*Options), drive func(*Cluster) (*FleetResult, error)) *FleetResult {
	t.Helper()
	opt := serving.DefaultOptions(tlp)
	opt.FastPath = mode
	fopt := Options{
		Replicas: 3,
		MaxBatch: 6,
		Router:   LeastOutstanding(),
		Serving:  opt,
	}
	if configure != nil {
		configure(&fopt)
	}
	cl, err := NewByName("PAPI", model.OPT30B(), fopt)
	if err != nil {
		t.Fatal(err)
	}
	f, err := drive(cl)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFastPathEquivalenceFleetOpenLoop(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(40, 60, 23)
	for _, tlp := range []int{1, 4} {
		fast := runFleet(t, serving.FastPathOn, tlp, nil, func(cl *Cluster) (*FleetResult, error) { return cl.Run(reqs) })
		ref := runFleet(t, serving.FastPathOff, tlp, nil, func(cl *Cluster) (*FleetResult, error) { return cl.Run(reqs) })
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("open-loop fleet TLP=%d diverged:\n fast: %+v\n  ref: %+v", tlp, fast, ref)
		}
	}
}

// TestFastPathEquivalenceFleetTiered runs the flagship tiered-diurnal stream
// — the regime PR 10's priority-aware macro windows un-fallbacked — through
// a fleet on both decode paths and both TLP regimes.
func TestFastPathEquivalenceFleetTiered(t *testing.T) {
	reqs := tieredStream(t, 72, 37)
	for _, tlp := range []int{1, 4} {
		fast := runFleet(t, serving.FastPathOn, tlp, nil, func(cl *Cluster) (*FleetResult, error) { return cl.Run(reqs) })
		ref := runFleet(t, serving.FastPathOff, tlp, nil, func(cl *Cluster) (*FleetResult, error) { return cl.Run(reqs) })
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("tiered fleet TLP=%d diverged:\n fast: %+v\n  ref: %+v", tlp, fast, ref)
		}
	}
}

// TestFastPathEquivalenceFleetClosedLoop pins RunPlan's closed-loop
// lookahead — each replica macro-steps up to its own earliest pending
// follow-up, the next first turn and the next control tick — against
// single-stepping: on a generated chat plan, on the same plan with
// block-level KV prefix sharing, and on a hand-built plan whose first turns
// tie each other and land exactly on autoscaler tick instants.
func TestFastPathEquivalenceFleetClosedLoop(t *testing.T) {
	sc, err := workload.ScenarioByName(workload.ScenarioChatMultiTurn)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Plan(12, 29)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		plan      []workload.Conversation
		configure func(*Options)
		check     func(t *testing.T, f *FleetResult)
	}{
		{name: "chat", plan: plan},
		{name: "block-kv", plan: plan, configure: func(o *Options) {
			o.Serving.KV = &kv.Options{BlockTokens: 32, Sharing: true, ColdFactor: 4}
		}},
		{name: "tick-ties", plan: tickTiedPlan(), configure: func(o *Options) {
			o.Autoscale = &AutoscaleOptions{Min: 3, Max: 5, Interval: 1, UpArrivalRate: 3}
		}, check: func(t *testing.T, f *FleetResult) {
			// First turns are ordered as if all were scheduled at the start,
			// so the burst at t = 2 routes before the tick at t = 2 (armed
			// at t = 1) and that tick's window counts it: 12 arrivals on 3
			// replicas exceed the 3/s-per-replica trigger right there.
			for _, ev := range f.ScaleEvents {
				if ev.Action == ScaleUp {
					if ev.At != 2 {
						t.Fatalf("first scale-up at %v, want 2 (the burst's tick)", ev.At)
					}
					return
				}
			}
			t.Fatalf("no scale-up; events %+v", f.ScaleEvents)
		}},
	}
	for _, tc := range cases {
		for _, tlp := range []int{1, 4} {
			drive := func(cl *Cluster) (*FleetResult, error) { return cl.RunPlan(tc.plan) }
			fast := runFleet(t, serving.FastPathOn, tlp, tc.configure, drive)
			ref := runFleet(t, serving.FastPathOff, tlp, tc.configure, drive)
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("%s closed-loop fleet TLP=%d diverged:\n fast: %+v\n  ref: %+v", tc.name, tlp, fast, ref)
			}
			if tc.check != nil {
				tc.check(t, fast)
			}
		}
	}
}

// tickTiedPlan is a closed-loop plan whose first turns arrive in ties on
// whole seconds — the autoscaler's tick instants at a 1 s interval — with a
// burst of 12 at t = 2.
func tickTiedPlan() []workload.Conversation {
	var plan []workload.Conversation
	for _, burst := range []struct {
		at units.Seconds
		n  int
	}{{1, 3}, {2, 12}, {3, 4}, {5, 3}} {
		for i := 0; i < burst.n; i++ {
			id := len(plan)
			plan = append(plan, workload.Conversation{ID: id, Arrival: burst.at, Turns: []workload.Turn{
				{Input: 96 + 16*(id%5), Output: 24 + 8*(id%4)},
				{Input: 32, Output: 16 + 4*(id%3), Think: 0.5},
				{Input: 48, Output: 20, Think: 1},
			}})
		}
	}
	return plan
}
