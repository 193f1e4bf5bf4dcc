package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/core"
	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// runTiered drives one tiered-diurnal fleet run with the given shard count and
// decode path, retaining everything so DeepEqual compares the full result.
func runTiered(t *testing.T, shards int, mode serving.FastPathMode, autoscale *AutoscaleOptions, n int, seed int64) *FleetResult {
	t.Helper()
	opt := serving.DefaultOptions(1)
	opt.FastPath = mode
	replicas := 3
	if autoscale != nil {
		replicas = autoscale.Min
	}
	cl, err := NewByName("PAPI", model.OPT30B(), Options{
		Replicas:       replicas,
		MaxBatch:       6,
		Router:         LeastOutstanding(),
		Serving:        opt,
		Autoscale:      autoscale,
		Shards:         shards,
		RetainRequests: true,
		RetainStream:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := cl.Run(tieredStream(t, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// diffFleet pinpoints the first diverging exported field so an equivalence
// failure names the broken subsystem instead of dumping two full results.
func diffFleet(t *testing.T, label string, a, b *FleetResult) {
	t.Helper()
	if reflect.DeepEqual(a, b) {
		return
	}
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		f := av.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			t.Errorf("%s: field %s diverged:\n serial:  %+v\n sharded: %+v",
				label, f.Name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
	if !t.Failed() {
		t.Errorf("%s: results diverged in unexported state", label)
	}
}

// TestShardedMatchesSerial pins the tentpole equivalence claim: the parallel
// barrier driver is bit-identical to the serial kernel schedule — every
// exported field, per-request record, realised stream, and energy ledger —
// for static and elastic fleets, on both decode paths.
func TestShardedMatchesSerial(t *testing.T) {
	slo := workload.SLO{TokenLatency: units.Milliseconds(8)}
	for _, tc := range []struct {
		name      string
		mode      serving.FastPathMode
		autoscale *AutoscaleOptions
	}{
		{"static/fastpath-on", serving.FastPathOn, nil},
		{"static/fastpath-off", serving.FastPathOff, nil},
		{"autoscaled/fastpath-on", serving.FastPathOn, DefaultAutoscale(1, 4, slo)},
		{"autoscaled/fastpath-off", serving.FastPathOff, DefaultAutoscale(1, 4, slo)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := runTiered(t, 1, tc.mode, tc.autoscale, 96, 23)
			// 8 shards run more helpers than a small host has cores, so
			// helpers routinely wake after their barrier has ended.
			for _, shards := range []int{2, 3, 4, 8} {
				sharded := runTiered(t, shards, tc.mode, tc.autoscale, 96, 23)
				diffFleet(t, fmt.Sprintf("%s, %d shards", tc.name, shards), serial, sharded)
			}
		})
	}
}

// TestShardedMixedFleetMatchesSerial extends the equivalence pin to a mixed
// PAPI+baseline fleet, whose per-design split merges the replica aggregates.
func TestShardedMixedFleetMatchesSerial(t *testing.T) {
	run := func(shards int) *FleetResult {
		cl, err := NewFromSpecs(mixedSpecs(t), model.OPT30B(), Options{
			Replicas:       4,
			MaxBatch:       6,
			Router:         LeastOutstanding(),
			Serving:        serving.DefaultOptions(1),
			Shards:         shards,
			RetainRequests: true,
			RetainStream:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := cl.Run(tieredStream(t, 64, 41))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	diffFleet(t, "mixed", run(1), run(4))
}

// TestShardedFaultsMatchSerial extends the equivalence pin to fault-injected
// fleets: fault edges, timeout deadlines, and retry re-injections are kernel
// events, so the sharded driver treats them as barriers and must reproduce
// the serial failure trace — casualties, retries, failures, lost tokens —
// bit-for-bit. (Before PR 10 these runs fell back to the serial schedule.)
func TestShardedFaultsMatchSerial(t *testing.T) {
	crashPlan := &faults.Plan{Name: "crash", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 0, At: 0.8},
	}}
	windowPlan := &faults.Plan{Name: "windows", Faults: []faults.Fault{
		{Kind: faults.KindStraggler, Replica: 1, At: 0.3, Factor: 2.5, Duration: 0.6},
		{Kind: faults.KindBrownout, At: 0.7, Factor: 1.8, Duration: 0.4},
		{Kind: faults.KindCrash, Replica: 2, At: 1.1},
	}}
	for _, tc := range []struct {
		name    string
		plan    *faults.Plan
		timeout units.Seconds
		stream  func(t *testing.T) []workload.Request
	}{
		// Crash + bounded retries on a single-class stream.
		{"crash-retry", crashPlan, 0,
			func(t *testing.T) []workload.Request { return workload.GeneralQA().Poisson(48, 60, 31) }},
		// Straggler and brownout windows plus a crash on the tiered stream
		// (brownouts shed batch-class arrivals), with per-attempt timeouts
		// arming deadline events between arrivals.
		{"windows-tiered", windowPlan, units.Seconds(2),
			func(t *testing.T) []workload.Request { return tieredStream(t, 64, 31) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) *FleetResult {
				cl, err := New(func() *core.System { return core.NewPAPI(0) }, model.LLaMA65B(), Options{
					Replicas:       3,
					MaxBatch:       8,
					Router:         LeastOutstanding(),
					Serving:        serving.DefaultOptions(1),
					Faults:         tc.plan,
					Retries:        1,
					Timeout:        tc.timeout,
					RetryBackoff:   units.Seconds(0.05),
					Shards:         shards,
					RetainRequests: true,
					RetainStream:   true,
				})
				if err != nil {
					t.Fatal(err)
				}
				f, err := cl.Run(tc.stream(t))
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			serial := run(1)
			if serial.Faults == 0 {
				t.Fatalf("fault plan never fired: the equivalence pin is vacuous")
			}
			for _, shards := range []int{2, 4} {
				diffFleet(t, tc.name, serial, run(shards))
			}
		})
	}
}

// TestRunPlanRejectsShards: closed-loop plans couple replicas through
// follow-ups, so sharding them is an error, not a silent serial fallback.
func TestRunPlanRejectsShards(t *testing.T) {
	opt := testOptions(2, LeastOutstanding())
	opt.Shards = 4
	c, err := New(func() *core.System { return core.NewPAPI(0) }, model.LLaMA65B(), opt)
	if err != nil {
		t.Fatal(err)
	}
	plan := []workload.Conversation{{ID: 0, Turns: []workload.Turn{{Input: 32, Output: 8}}}}
	if _, err := c.RunPlan(plan); err == nil {
		t.Fatal("RunPlan accepted a sharded run")
	}
	// The rejection must not consume the single-use cluster.
	if _, err := c.Run(workload.GeneralQA().Generate(4, 1)); err != nil {
		t.Fatalf("run after rejected sharded plan: %v", err)
	}
}

// TestRunSeqMatchesRun: the lazy one-lookahead stream driver fed the stream
// directly is the same simulation as the serial sorted-slice Run, serial
// and sharded.
func TestRunSeqMatchesRun(t *testing.T) {
	reqs := tieredStream(t, 96, 29)
	build := func(shards int) *Cluster {
		opt := testOptions(3, LeastOutstanding())
		opt.Shards = shards
		c, err := New(func() *core.System { return core.NewPAPI(0) }, model.LLaMA65B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	want, err := build(1).Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		i := 0
		got, err := build(shards).RunSeq(func() (workload.Request, bool) {
			if i >= len(reqs) {
				return workload.Request{}, false
			}
			i++
			return reqs[i-1], true
		})
		if err != nil {
			t.Fatal(err)
		}
		diffFleet(t, "runseq", want, got)
	}
}

// TestRunTiedArrivals: simultaneous arrivals (here every arrival at 0, as
// papiserve -rate 0 generates) all route before any replica steps, so each
// replica's first iteration admits its whole share, and the serial run
// matches each sharded one.
func TestRunTiedArrivals(t *testing.T) {
	reqs := workload.GeneralQA().Generate(8, 1)
	var serial *FleetResult
	for _, shards := range []int{1, 3, 4, 8} {
		opt := testOptions(2, LeastOutstanding())
		opt.Shards = shards
		c, err := New(func() *core.System { return core.NewPAPI(0) }, model.LLaMA65B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range f.Replicas {
			if n := len(rep.Requests); n == 0 || len(rep.RLPTrace) == 0 || rep.RLPTrace[0] != n {
				t.Errorf("shards %d replica %d: first iteration RLP %v, want all %d arrivals at 0",
					shards, i, rep.RLPTrace[:min(1, len(rep.RLPTrace))], n)
			}
		}
		if serial == nil {
			serial = f
			continue
		}
		diffFleet(t, fmt.Sprintf("tied arrivals, %d shards", shards), serial, f)
	}
}

// TestRunSeqValidation: a nil source, an empty stream, and an out-of-order
// arrival are errors, a rejected empty stream leaves the cluster runnable,
// and the arrival-order error does not hang the drain.
func TestRunSeqValidation(t *testing.T) {
	build := func() *Cluster {
		c, err := New(func() *core.System { return core.NewPAPI(0) }, model.LLaMA65B(), testOptions(2, nil))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if _, err := build().RunSeq(nil); err == nil {
		t.Error("nil source should fail")
	}
	c := build()
	if _, err := c.RunSeq(func() (workload.Request, bool) { return workload.Request{}, false }); err == nil {
		t.Error("empty stream should fail")
	}
	seq := func(reqs []workload.Request) func() (workload.Request, bool) {
		i := 0
		return func() (workload.Request, bool) {
			if i >= len(reqs) {
				return workload.Request{}, false
			}
			i++
			return reqs[i-1], true
		}
	}
	// A validation failure must not consume the single-use cluster.
	if _, err := c.RunSeq(seq(workload.GeneralQA().Generate(4, 1))); err != nil {
		t.Errorf("run after rejected empty stream: %v", err)
	}
	if _, err := c.RunSeq(seq(workload.GeneralQA().Generate(4, 1))); err == nil {
		t.Error("second completed RunSeq should fail")
	}
	backwards := []workload.Request{
		{ID: 0, InputLen: 16, OutputLen: 4, Arrival: 2},
		{ID: 1, InputLen: 16, OutputLen: 4, Arrival: 1},
	}
	if _, err := build().RunSeq(seq(backwards)); err == nil {
		t.Error("out-of-order arrivals should fail")
	}
}

// TestConstantMemoryDefaults pins the new retention contract: without opting
// in, a run keeps no per-request records and no realised stream, yet the
// completion count, latency digests, and attainment all still populate from
// the streaming aggregate — bit-identical to the retained run's.
func TestConstantMemoryDefaults(t *testing.T) {
	reqs := tieredStream(t, 64, 17)
	run := func(retain bool) *FleetResult {
		c, err := New(func() *core.System { return core.NewPAPI(0) }, model.LLaMA65B(), Options{
			Replicas:       2,
			MaxBatch:       8,
			Router:         LeastOutstanding(),
			Serving:        serving.DefaultOptions(1),
			RetainRequests: retain,
			RetainStream:   retain,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	lean, full := run(false), run(true)
	if len(lean.Requests) != 0 || len(lean.Stream) != 0 {
		t.Fatalf("default run retained %d records, %d stream entries", len(lean.Requests), len(lean.Stream))
	}
	if len(full.Requests) != len(reqs) || len(full.Stream) != len(reqs) {
		t.Fatalf("opt-in run retained %d records, %d stream entries, want %d", len(full.Requests), len(full.Stream), len(reqs))
	}
	if lean.Completed != len(reqs) || full.Completed != len(reqs) {
		t.Fatalf("completed %d / %d, want %d", lean.Completed, full.Completed, len(reqs))
	}
	if lean.TTFT != full.TTFT || lean.TPOT != full.TPOT {
		t.Errorf("digests diverged across retention:\n lean %+v %+v\n full %+v %+v", lean.TTFT, lean.TPOT, full.TTFT, full.TPOT)
	}
	slo := workload.SLO{TokenLatency: units.Milliseconds(10)}
	if a, b := lean.Attainment(slo), full.Attainment(slo); a != b {
		t.Errorf("attainment diverged across retention: %v vs %v", a, b)
	}
	for _, class := range []workload.Class{workload.ClassInteractive, workload.ClassBatch} {
		if a, b := lean.AttainmentClass(slo, class), full.AttainmentClass(slo, class); a != b {
			t.Errorf("%v attainment diverged across retention: %v vs %v", class, a, b)
		}
	}
}

// TestVacuousScores pins the zero-request audit: an empty window scores 1
// everywhere (vacuous truth), never 0 and never a 0/0 NaN; failures alone
// drive availability to 0.
func TestVacuousScores(t *testing.T) {
	slo := workload.SLO{TokenLatency: units.Milliseconds(5)}
	empty := &FleetResult{Agg: newFleetAggregate()}
	for name, got := range map[string]float64{
		"Attainment":              empty.Attainment(slo),
		"AttainmentUnbounded":     empty.Attainment(workload.SLO{}),
		"AttainmentInteractive":   empty.AttainmentClass(slo, workload.ClassInteractive),
		"AttainmentBatch":         empty.AttainmentClass(slo, workload.ClassBatch),
		"Availability":            empty.Availability(),
		"DesignAttainment":        DesignMetrics{}.Attainment(slo),
		"DesignAttainmentWithAgg": DesignMetrics{agg: newFleetAggregate()}.Attainment(slo),
	} {
		if got != 1 {
			t.Errorf("%s on an empty window = %v, want vacuous 1", name, got)
		}
	}

	// All-failed: nothing completed, so availability and attainment are hard
	// zeros — real misses, not vacuous truths.
	failed := &FleetResult{Agg: newFleetAggregate(), FailedRequests: []FailedRequest{
		{ID: 0, Class: workload.ClassInteractive, Reason: "crash"},
		{ID: 1, Class: workload.ClassBatch, Reason: "timeout"},
	}}
	if got := failed.Availability(); got != 0 {
		t.Errorf("all-failed availability = %v, want 0", got)
	}
	if got := failed.Attainment(slo); got != 0 {
		t.Errorf("all-failed attainment = %v, want 0", got)
	}
	for _, class := range []workload.Class{workload.ClassInteractive, workload.ClassBatch} {
		if got := failed.AttainmentClass(slo, class); got != 0 {
			t.Errorf("all-failed %v attainment = %v, want 0", class, got)
		}
	}
}

// FuzzShardedEquivalence drives random small fleets through both schedules —
// the CI fuzz target backing the equivalence pin with adversarial shapes,
// including fault-injected ones: a randomized crash (replica and instant), a
// degradation window, and per-attempt timeouts, so barrier-scheduled failure
// events are fuzzed against the serial failure trace.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), uint8(2), false, uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(40), uint8(3), uint8(4), true, uint8(0), uint8(0), false)
	f.Add(int64(23), uint8(8), uint8(1), uint8(3), false, uint8(0), uint8(0), false)
	f.Add(int64(31), uint8(48), uint8(3), uint8(4), false, uint8(3), uint8(40), true)
	f.Add(int64(11), uint8(32), uint8(2), uint8(2), true, uint8(7), uint8(90), false)
	f.Fuzz(func(t *testing.T, seed int64, n, replicas, shards uint8, elastic bool,
		fault, faultAt uint8, timeout bool) {

		nreq := int(n%64) + 1
		reps := int(replicas%4) + 1
		nshards := int(shards%6) + 2
		// fault%4 selects the plan shape: 0 none, 1 crash, 2 crash+straggler,
		// 3 crash+brownout. faultAt places the crash inside the stream's
		// ~[0, 2s] arrival span so it can land before, between, or after
		// most arrivals.
		var plan *faults.Plan
		at := units.Seconds(float64(faultAt%100) / 50)
		switch fault % 4 {
		case 1:
			plan = &faults.Plan{Name: "f1", Faults: []faults.Fault{
				{Kind: faults.KindCrash, Replica: int(fault) % reps, At: float64(at)},
			}}
		case 2:
			plan = &faults.Plan{Name: "f2", Faults: []faults.Fault{
				{Kind: faults.KindStraggler, Replica: int(fault) % reps, At: float64(at), Factor: 3, Duration: 0.5},
				{Kind: faults.KindCrash, Replica: int(fault+1) % reps, At: float64(at) + 0.2},
			}}
		case 3:
			plan = &faults.Plan{Name: "f3", Faults: []faults.Fault{
				{Kind: faults.KindBrownout, At: float64(at), Factor: 2, Duration: 0.6},
				{Kind: faults.KindCrash, Replica: int(fault) % reps, At: float64(at) + 0.3},
			}}
		}
		run := func(s int) *FleetResult {
			opt := Options{
				Replicas:       reps,
				MaxBatch:       4,
				Router:         LeastOutstanding(),
				Serving:        serving.DefaultOptions(1),
				Faults:         plan,
				Shards:         s,
				RetainRequests: true,
				RetainStream:   true,
			}
			if plan != nil {
				opt.Retries = 1
				opt.RetryBackoff = units.Seconds(0.05)
			}
			if timeout {
				opt.Timeout = units.Seconds(1.5)
			}
			if elastic {
				opt.Autoscale = DefaultAutoscale(reps, reps+2, workload.SLO{TokenLatency: units.Milliseconds(8)})
			}
			c, err := New(func() *core.System { return core.NewPAPI(0) }, model.OPT30B(), opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(workload.GeneralQA().Poisson(nreq, 50, seed))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		serial, sharded := run(1), run(nshards)
		if !reflect.DeepEqual(serial, sharded) {
			diffFleet(t, "fuzz", serial, sharded)
			t.Fatalf("sharded run diverged (seed=%d n=%d replicas=%d shards=%d elastic=%v fault=%d at=%v timeout=%v)",
				seed, nreq, reps, nshards, elastic, fault%4, at, timeout)
		}
	})
}
