package serving

import (
	"fmt"

	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Perturbation is the fault injector's latency lens on one engine: Slow
// multiplies every kernel latency (a straggling node), Attn multiplies the
// attention and communication terms only (a degraded PIM pool or GPU↔PIM
// link brownout, priced through the existing cost-model breakdown). Factors
// at or below 1 are inert; the zero value means "no perturbation".
type Perturbation struct {
	Slow float64
	Attn float64
}

// active reports whether the perturbation changes anything.
func (p Perturbation) active() bool { return p.Slow > 1 || p.Attn > 1 }

// SetPerturbation installs (or, with the zero value, clears) the engine's
// latency perturbation. The cluster fault injector calls this at window
// edges; while a perturbation is active the stepper prices every iteration
// individually (every macro window closes after one iteration) so the
// stretch lands on the exact iterations inside the window.
func (s *Stepper) SetPerturbation(p Perturbation) {
	s.perturb = p
	s.perturbed = p.active()
}

// stretch prices the active perturbation onto one just-priced iteration:
// the attention and communication deltas of this iteration scale by Attn,
// then the whole stretched iteration scales by Slow, with the straggler
// surcharge booked under Other (it is node slowness, not a kernel). pre is
// the Result breakdown snapshotted before the iteration ran. First-order
// model: the surcharge is time only — no extra device energy is charged for
// it, though host energy grows with the longer makespan.
func (s *Stepper) stretch(it *IterationStat, pre TimeBreakdown) {
	var extra units.Seconds
	if f := s.perturb.Attn; f > 1 {
		ea := (s.res.Breakdown.Attention - pre.Attention).Scale(f - 1)
		ec := (s.res.Breakdown.Communication - pre.Communication).Scale(f - 1)
		s.res.Breakdown.Attention += ea
		s.res.Breakdown.Communication += ec
		extra += ea + ec
	}
	if f := s.perturb.Slow; f > 1 {
		es := (it.Time + extra).Scale(f - 1)
		s.res.Breakdown.Other += es
		extra += es
	}
	it.Time += extra
	s.res.DecodeTime += extra
}

// Casualty is one request lost from a stepper by a crash (Fail) or a
// cancellation (Cancel): what the fleet's failover path needs to rebuild the
// retry. Generated counts the output tokens the request had committed —
// already in Result.Tokens and lost with the replica, so a retry must
// re-prefill them and the fleet's goodput must discount them.
type Casualty struct {
	Request   workload.Request
	Generated int
	// Admitted reports whether the request was in the active batch (true) or
	// still queued (false) when it was lost.
	Admitted bool
}

// Fail crashes the stepper: every outstanding request — active batch and
// pending queue — is surrendered (KV leases dropped, metrics entries
// withdrawn) and returned as casualties in admission-then-queue order. A
// failed stepper reports StepDrained forever and refuses further pushes; its
// Result keeps the work it already did (tokens, energy, time), which is how
// the fleet accounts a dead replica's sunk cost. Fail on a static stepper or
// a second Fail returns nil.
func (s *Stepper) Fail() []Casualty {
	if s.static || s.failed {
		return nil
	}
	s.failed = true
	var out []Casualty
	for _, r := range s.active {
		s.kvSum -= r.contextLen()
		s.kvDemandActive -= r.kvBytes
		s.kvDemandAll -= r.kvBytes
		s.countClass(r.Class, &s.actInteractive, &s.actBatch, -1)
		out = append(out, Casualty{Request: r.Request, Generated: r.generated, Admitted: true})
		s.surrender(r)
	}
	for _, r := range s.pending {
		s.kvDemandAll -= r.kvBytes
		s.countClass(r.Class, &s.pendInteractive, &s.pendBatch, -1)
		out = append(out, Casualty{Request: r.Request, Generated: r.generated, Admitted: false})
		s.surrender(r)
	}
	s.active = nil
	s.pending = nil
	s.intHint = 0
	return out
}

// Cancel withdraws one outstanding request by ID — the per-request timeout
// path. A pending request is spliced from the queue; an active one is
// evicted from the batch (the scheduler observes the eviction) and its KV
// lease surrendered. The second return is false when the ID is not
// outstanding here (already finished, or never routed here), which a stale
// timeout treats as "nothing to do".
func (s *Stepper) Cancel(id int) (Casualty, bool, error) {
	if s.static {
		return Casualty{}, false, fmt.Errorf("serving: cannot cancel in a static batch stepper")
	}
	for i, r := range s.pending {
		if r.ID != id {
			continue
		}
		s.removePending(i)
		s.countClass(r.Class, &s.pendInteractive, &s.pendBatch, -1)
		s.kvDemandAll -= r.kvBytes
		c := Casualty{Request: r.Request, Generated: r.generated}
		s.surrender(r)
		return c, true, nil
	}
	for i, r := range s.active {
		if r.ID != id {
			continue
		}
		s.active = append(s.active[:i], s.active[i+1:]...)
		s.countClass(r.Class, &s.actInteractive, &s.actBatch, -1)
		s.kvSum -= r.contextLen()
		s.kvDemandActive -= r.kvBytes
		s.kvDemandAll -= r.kvBytes
		c := Casualty{Request: r.Request, Generated: r.generated, Admitted: true}
		s.surrender(r)
		if err := s.scheduler.Evict(1); err != nil {
			return Casualty{}, false, err
		}
		return c, true, nil
	}
	return Casualty{}, false, nil
}

// surrender drops one lost request's engine-side state: its KV lease (the
// blocks are gone with the replica, not parked for revival) and its metrics
// record, so a half-served casualty cannot masquerade as a completion in
// Finalize. The retry that replaces it starts a fresh record wherever it
// lands.
func (s *Stepper) surrender(r *request) {
	if s.kvStore != nil {
		s.kvStore.Surrender(r.lease)
	}
	delete(s.tracker.byID, r.ID)
	r.rm = nil
}
