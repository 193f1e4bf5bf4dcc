package serving

import (
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/core"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/workload"
)

func driveToDrain(t *testing.T, s *Stepper) Result {
	t.Helper()
	for {
		info, err := s.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if info.Kind == StepDrained {
			return s.Finalize()
		}
	}
}

// An inert perturbation (factors at or below 1, or the zero value) must be
// byte-for-byte invisible: the macro-stepping gate stays open and no stretch
// is priced.
func TestPerturbationInertIsNoOp(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(12, 30, 5)
	run := func(p Perturbation, set bool) Result {
		e := mustEngine(t, core.NewPAPI(0), model.LLaMA65B(), DefaultOptions(1))
		st, err := e.NewStreamStepper(reqs, 8)
		if err != nil {
			t.Fatal(err)
		}
		if set {
			st.SetPerturbation(p)
		}
		return driveToDrain(t, st)
	}
	base := run(Perturbation{}, false)
	for _, p := range []Perturbation{{}, {Slow: 1, Attn: 1}, {Slow: 0.5, Attn: 0}} {
		if got := run(p, true); !reflect.DeepEqual(base, got) {
			t.Fatalf("inert perturbation %+v changed the Result", p)
		}
	}
}

// An active perturbation must price identically on both decode paths — the
// stretch is computed from per-iteration deltas that are themselves
// bit-identical across paths — and must actually slow the run down, with and
// without speculative decoding.
func TestPerturbationFastMatchesReference(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(12, 30, 5)
	for _, tlp := range []int{1, 4} {
		run := func(mode FastPathMode, p Perturbation) Result {
			opt := DefaultOptions(tlp)
			opt.FastPath = mode
			e := mustEngine(t, core.NewPAPI(0), model.LLaMA65B(), opt)
			st, err := e.NewStreamStepper(reqs, 8)
			if err != nil {
				t.Fatal(err)
			}
			st.SetPerturbation(p)
			return driveToDrain(t, st)
		}
		p := Perturbation{Slow: 2, Attn: 1.5}
		fast := run(FastPathOn, p)
		ref := run(FastPathOff, p)
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("tlp=%d: perturbed fast path diverged from reference:\nfast %+v\nref  %+v", tlp, fast, ref)
		}
		base := run(FastPathOn, Perturbation{})
		if fast.DecodeTime <= base.DecodeTime {
			t.Fatalf("tlp=%d: perturbed decode %v not slower than baseline %v", tlp, fast.DecodeTime, base.DecodeTime)
		}
		if fast.PrefillTime <= base.PrefillTime {
			t.Fatalf("tlp=%d: straggler prefill %v not slower than baseline %v", tlp, fast.PrefillTime, base.PrefillTime)
		}
		if fast.Breakdown.Other <= base.Breakdown.Other {
			t.Fatalf("tlp=%d: straggler surcharge not booked under Breakdown.Other", tlp)
		}
	}
}

// Fail surrenders every outstanding request exactly once, keeps the sunk
// work in the Result, and leaves the stepper permanently drained.
func TestFailSurrendersOutstanding(t *testing.T) {
	opt := DefaultOptions(1)
	opt.KV = &kv.Options{BlockTokens: 32, Sharing: true}
	e := mustEngine(t, core.NewPAPI(0), model.LLaMA65B(), opt)
	reqs := workload.GeneralQA().Poisson(12, 20, 7)
	st, err := e.NewStreamStepper(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := st.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	outstanding := st.Outstanding()
	if outstanding == 0 {
		t.Fatal("test needs outstanding requests at the crash instant")
	}
	cas := st.Fail()
	if len(cas) != outstanding {
		t.Fatalf("Fail returned %d casualties, want %d", len(cas), outstanding)
	}
	seen := map[int]bool{}
	for _, c := range cas {
		if seen[c.Request.ID] {
			t.Fatalf("request %d surrendered twice", c.Request.ID)
		}
		seen[c.Request.ID] = true
	}
	if st.HasWork() {
		t.Fatal("failed stepper still reports work")
	}
	if st.KVDemand() != 0 {
		t.Fatalf("failed stepper still reports KV demand %v", st.KVDemand())
	}
	info, err := st.Step()
	if err != nil || info.Kind != StepDrained {
		t.Fatalf("failed stepper Step = (%v, %v), want drained", info.Kind, err)
	}
	if err := st.Push(workload.Request{ID: 999, InputLen: 8, OutputLen: 2}); err == nil {
		t.Fatal("push into a failed stepper should error")
	}
	if again := st.Fail(); again != nil {
		t.Fatal("second Fail should return nil")
	}
	res := st.Finalize()
	if res.Tokens == 0 {
		t.Fatal("failed stepper lost its sunk tokens")
	}
	for _, rm := range res.Requests {
		if seen[rm.ID] {
			t.Fatalf("casualty %d still has a metrics record", rm.ID)
		}
	}
}

// Cancel withdraws exactly one request — pending or active — and the rest of
// the run completes untouched.
func TestCancelPendingAndActive(t *testing.T) {
	// Reference path: one iteration per Step, so requests are still active
	// (not macro-stepped to completion) at the cancel instants.
	opt := DefaultOptions(1)
	opt.FastPath = FastPathOff
	e := mustEngine(t, core.NewPAPI(0), model.LLaMA65B(), opt)
	st, err := e.NewStreamStepper(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		if err := st.Push(workload.Request{ID: id, InputLen: 64, OutputLen: 32}); err != nil {
			t.Fatal(err)
		}
	}
	// Admit the first two (maxBatch 2); 3 and 4 stay pending.
	if _, err := st.Step(); err != nil {
		t.Fatal(err)
	}
	if c, ok, err := st.Cancel(3); err != nil || !ok || c.Admitted {
		t.Fatalf("cancel pending 3 = (%+v, %v, %v), want pending casualty", c, ok, err)
	}
	if c, ok, err := st.Cancel(1); err != nil || !ok || !c.Admitted {
		t.Fatalf("cancel active 1 = (%+v, %v, %v), want admitted casualty", c, ok, err)
	}
	if _, ok, err := st.Cancel(77); err != nil || ok {
		t.Fatalf("cancel of unknown ID should report not-found, got ok=%v err=%v", ok, err)
	}
	res := driveToDrain(t, st)
	got := map[int]bool{}
	for _, rm := range res.Requests {
		got[rm.ID] = true
	}
	if got[1] || got[3] {
		t.Fatalf("cancelled requests still in Result: %v", got)
	}
	if !got[2] || !got[4] {
		t.Fatalf("surviving requests missing from Result: %v", got)
	}
}

// A timeout-retry can land back on the replica that timed it out: the same
// ID enters the stepper twice. Finalize must report it once.
func TestFinalizeDedupesRetriedID(t *testing.T) {
	opt := DefaultOptions(1)
	opt.FastPath = FastPathOff
	e := mustEngine(t, core.NewPAPI(0), model.LLaMA65B(), opt)
	st, err := e.NewStreamStepper(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(workload.Request{ID: 1, InputLen: 64, OutputLen: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Cancel(1); err != nil || !ok {
		t.Fatalf("cancel: ok=%v err=%v", ok, err)
	}
	// The retry re-enters with the grown context re-prefilled.
	if err := st.Push(workload.Request{ID: 1, InputLen: 66, OutputLen: 14}); err != nil {
		t.Fatal(err)
	}
	res := driveToDrain(t, st)
	if len(res.Requests) != 1 {
		t.Fatalf("retried ID reported %d times, want 1", len(res.Requests))
	}
	if res.Requests[0].ID != 1 || res.Requests[0].OutputTokens != 14 {
		t.Fatalf("unexpected retry record %+v", res.Requests[0])
	}
}
