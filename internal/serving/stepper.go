package serving

import (
	"fmt"
	"math"
	"sort"

	"github.com/papi-sim/papi/internal/energy"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// StepKind says what a single Step advanced.
type StepKind int

const (
	// StepDrained means nothing is left to do: no live requests and no
	// pending arrivals. The stepper is finished.
	StepDrained StepKind = iota
	// StepIdle means no request was runnable, so the clock jumped to the
	// next pending arrival (idle time, continuous batching only).
	StepIdle
	// StepIteration means one decoding iteration ran and committed tokens.
	StepIteration
)

// StepInfo reports the outcome of one Step call.
type StepInfo struct {
	Kind StepKind
	// Iteration is the iteration's trace entry (valid for StepIteration),
	// with Tokens filled from the committed count.
	Iteration IterationStat
	// Completed is how many requests reached <|eos|> this step.
	Completed int
	// Finished lists the requests that reached <|eos|> this step, in active
	// order — the hook closed-loop arrival owners (multi-turn conversations
	// in internal/cluster) use to couple a follow-up Push to a completion.
	Finished []workload.Request
}

// Stepper is the resumable core of the serving engine: the iteration loop
// shared by RunBatch and RunContinuous, exposed as an
// admit → decide → iterate → commit cycle that advances by exactly one
// iteration per Step call on a caller-owned clock. This lets a caller — the
// multi-replica simulator in internal/cluster — interleave many engines
// deterministically on one event kernel instead of each run owning its own
// timeline.
//
// Two modes exist:
//
//   - static (NewBatchStepper): the whole batch is prefilled up front and
//     latencies are measured from run start, reproducing RunBatch;
//   - stream (NewStreamStepper): requests are admitted at iteration
//     boundaries as they arrive (mixed continuous batching), bounded by the
//     admission cap and KV capacity, reproducing RunContinuous. More
//     arrivals may be injected mid-run with Push.
type Stepper struct {
	eng *Engine
	res Result

	all     []*request // every request seen, in input order
	seen    int        // count of requests ever pushed (survives DiscardCompleted)
	pending []*request // arrival-ordered, not yet admitted (stream mode)
	active  []*request // admitted and unfinished

	scheduler *sched.Scheduler
	tracker   *metricsTracker
	maxBatch  int
	static    bool
	clock     units.Seconds

	// Incremental accounting. kvSum is Σ(InputLen+generated) over the active
	// batch — the attention kernel's only KV-length input (fast path).
	// kvDemandAll / kvDemandActive are the worst-case KV footprints of all
	// outstanding / admitted requests, maintained on push, admit, evict and
	// finish so KVDemand and admission checks are O(1). All terms are
	// integer-valued floats far below 2⁵³, so the running sums equal a fresh
	// walk exactly.
	kvSum          int
	kvDemandAll    units.Bytes
	kvDemandActive units.Bytes

	// Outstanding-per-class counters (pending + active), maintained on push,
	// finish and — pending-only — admit/evict. A stream is "tiered" while
	// both classes are outstanding: admission is then priority-aware and
	// macro windows are bounded by class-boundary events (see
	// macroArrivalBound).
	pendInteractive, pendBatch int
	actInteractive, actBatch   int

	// intHint is a lower bound on the index of the first interactive-class
	// pending request: pending[:intHint] is all batch-class. firstInteractive
	// advances it lazily and every queue edit keeps it a valid bound, so the
	// priority-admission scan costs amortized O(1) per Step instead of
	// rescanning a deep ready batch backlog on every iteration boundary.
	intHint int

	// kvStore is the block-level KV cache (nil without Options.KV); kvShare
	// is true when its prefix index and cold tier are live — admission then
	// runs on block commitments (see kvFits) instead of the byte ledger,
	// and preemption parks leases instead of discarding their state. With
	// kvShare false the store shadows the byte ledger without changing any
	// decision, keeping Results bit-identical to kvStore = nil.
	kvStore *kv.Store
	kvShare bool

	// horizon bounds fast-path macro-stepping (see SetHorizon); +Inf when the
	// stepper owns its whole timeline.
	horizon units.Seconds
	// traceHint sizes the Result traces on first use: exact for static
	// batches (a TLP = 1 batch runs exactly max-output iterations, and
	// speculation only fewer), a modest floor for streams whose length is
	// unknowable up front.
	traceHint int

	// perturb is the fault injector's latency perturbation (see
	// SetPerturbation); perturbed caches whether it is active, because the
	// check sits on the per-iteration hot path and closes every macro window
	// after one iteration.
	perturb   Perturbation
	perturbed bool
	// failed marks a crashed replica's stepper: Fail was called, every
	// outstanding request was surrendered, and the stepper only reports
	// StepDrained from here on.
	failed bool

	finalized bool
}

// NewBatchStepper builds a static-batching stepper: every request is
// prefilled immediately and decode iterations run until the batch drains.
func (e *Engine) NewBatchStepper(reqs []workload.Request) (*Stepper, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serving: empty batch")
	}
	if err := e.checkKVCapacity(reqs); err != nil {
		return nil, err
	}
	s := &Stepper{
		eng:      e,
		res:      Result{System: e.Sys.Name, Model: e.Cfg.Name},
		maxBatch: len(reqs),
		static:   true,
		tracker:  newMetricsTracker(),
		horizon:  units.Seconds(math.Inf(1)),
	}
	if err := s.initKV(len(reqs)); err != nil {
		return nil, err
	}
	inputs := make([]int, 0, len(reqs))
	for _, r := range reqs {
		if r.InputLen <= 0 || r.OutputLen <= 0 {
			return nil, fmt.Errorf("serving: request %d has non-positive lengths", r.ID)
		}
		rr := s.newRequest(r)
		s.seen++
		s.all = append(s.all, rr)
		s.active = append(s.active, rr)
		s.countClass(r.Class, &s.actInteractive, &s.actBatch, +1)
		s.kvSum += r.InputLen
		s.kvDemandAll += rr.kvBytes
		s.kvDemandActive += rr.kvBytes
		// A static batch is admitted whole under the legacy byte check
		// (already enforced above), so the shadow/sharing store is sized
		// never to refuse it; sharing may still shorten prefill when batch
		// members share a prefix.
		shared := 0
		if s.kvStore != nil {
			c, err := s.kvStore.Admit(rr.lease, r.InputLen)
			if err != nil {
				return nil, err
			}
			shared = c.SharedTokens
		}
		if in := r.InputLen - shared; in > 0 {
			inputs = append(inputs, in)
		}
		s.notePrefill(rr, r.InputLen, shared)
		if r.OutputLen > s.traceHint {
			s.traceHint = r.OutputLen
		}
	}

	// Prefill (§2.1): all input tokens processed at once. Compute-bound, so
	// it runs on the GPU where one exists; PIM-only designs pay for it on
	// their PIM units (§7.4).
	if len(inputs) > 0 {
		s.res.PrefillTime = e.runPrefill(inputs, &s.res)
	}
	s.clock = s.res.PrefillTime

	scheduler, err := sched.NewScheduler(e.Sys.Policy, len(reqs), e.Opt.TLP)
	if err != nil {
		return nil, err
	}
	// The scheduler's own event trace duplicates Result's RLPTrace/IterStats
	// and is unreachable through the stepper — don't pay for it per iteration.
	scheduler.SetTraceCap(0)
	s.scheduler = scheduler
	return s, nil
}

// NewStreamStepper builds a continuous-batching stepper over an
// arrival-ordered request stream. The stream may be empty: a caller that
// owns the arrival process (internal/cluster) injects requests with Push as
// they reach this engine.
func (e *Engine) NewStreamStepper(reqs []workload.Request, maxBatch int) (*Stepper, error) {
	if maxBatch <= 0 {
		return nil, fmt.Errorf("serving: max batch %d must be positive", maxBatch)
	}
	s := &Stepper{
		eng:      e,
		res:      Result{System: e.Sys.Name, Model: e.Cfg.Name},
		maxBatch: maxBatch,
		tracker:  newMetricsTracker(),
		horizon:  units.Seconds(math.Inf(1)),
	}
	if err := s.initKV(0); err != nil {
		return nil, err
	}
	for _, r := range reqs {
		if r.InputLen <= 0 || r.OutputLen <= 0 {
			return nil, fmt.Errorf("serving: request %d has non-positive lengths", r.ID)
		}
		rr := s.newRequest(r)
		s.seen++
		if !s.discarding() {
			s.all = append(s.all, rr)
		}
		s.pending = append(s.pending, rr)
		s.countClass(r.Class, &s.pendInteractive, &s.pendBatch, +1)
		s.kvDemandAll += rr.kvBytes
	}
	sort.SliceStable(s.pending, func(i, j int) bool {
		return s.pending[i].readyAt < s.pending[j].readyAt
	})
	return s, nil
}

// initKV builds the block store when Options.KV asks for one. A sharing
// store's hot tier is the attention pool's capacity in whole blocks — the
// real constraint block admission enforces. A shadow store (sharing off),
// or any static batch (whose admission must stay the legacy whole-batch
// byte check), instead gets the byte capacity rounded up plus one block of
// partial-tail slack per concurrent request, so block bookkeeping can never
// refuse an admission the byte ledger granted. staticN is the batch size
// for a static stepper, 0 for a stream.
func (s *Stepper) initKV(staticN int) error {
	if s.eng.Opt.KV == nil {
		return nil
	}
	opt := s.eng.Opt.KV.Resolved()
	if err := opt.Validate(); err != nil {
		return err
	}
	blockBytes := s.eng.Cfg.KVBytes(opt.BlockTokens)
	capBytes := s.eng.Sys.KVCapacity()
	var hot int
	if opt.Sharing && staticN == 0 {
		hot = int(capBytes.Bytes() / blockBytes.Bytes())
		if hot < 1 {
			return fmt.Errorf("serving: attention pool %v holds no %d-token KV block (%v)",
				capBytes, opt.BlockTokens, blockBytes)
		}
	} else {
		slack := staticN
		if slack == 0 {
			slack = s.maxBatch
		}
		hot = int(math.Ceil(capBytes.Bytes()/blockBytes.Bytes())) + slack
	}
	store, err := kv.NewStore(opt, hot, blockBytes)
	if err != nil {
		return err
	}
	s.kvStore = store
	s.kvShare = opt.Sharing
	return nil
}

// newRequest wraps an incoming request with its lease and cached KV
// footprint. The footprint is the worst-case byte demand the request adds
// to the fleet signal; with sharing on, the part of its declared prefix
// already resident in the store is discounted at this instant — those
// tokens will be adopted, not recomputed, and counting them again would
// double-bill headroom (the chat-multiturn routing fix this PR pins).
func (s *Stepper) newRequest(r workload.Request) *request {
	rr := &request{Request: r, readyAt: r.Arrival}
	rr.kvBytes = s.eng.Cfg.KVBytes(r.SeqLen())
	if s.kvStore != nil {
		rr.lease = s.kvStore.NewLease(r.PrefixGroup, int64(r.ID), r.PrefixLen, r.SeqLen(), r.Turn > 0)
		if s.kvShare && r.PrefixGroup != 0 {
			if resident := s.kvStore.ResidentChainTokens(r.PrefixGroup, r.PrefixLen); resident > 0 {
				rr.kvBytes -= s.eng.Cfg.KVBytes(resident)
			}
		}
	}
	return rr
}

// notePrefill accounts one admission's prefill tokens: ctx tokens entered
// the engine, shared of them came from resident blocks. The re-prefill tax
// is the carried context — everything a preempted request regrew, or the
// declared shared prefix of a fresh one — that was prefilled rather than
// adopted.
func (s *Stepper) notePrefill(r *request, ctx, shared int) {
	s.res.PrefillTokens += ctx - shared
	carried := 0
	if r.preempted > 0 {
		carried = ctx
	} else if r.PrefixGroup != 0 {
		carried = min(r.PrefixLen, ctx)
	}
	if tax := carried - shared; tax > 0 {
		s.res.ReprefillTokens += tax
	}
}

// countClass bumps the interactive or batch counter for a class by delta.
func (s *Stepper) countClass(c workload.Class, interactive, batch *int, delta int) {
	if c == workload.ClassBatch {
		*batch += delta
	} else {
		*interactive += delta
	}
}

// tiered reports whether both priority classes are outstanding — the regime
// in which admission is priority-aware: interactive jumps blocked batch
// traffic and may preempt it. Fast-path macro windows must then be bounded
// by the earliest class-boundary event instead of the queue head (see
// macroArrivalBound), so no interior iteration boundary can admit or evict a
// request the window bound does not see.
func (s *Stepper) tiered() bool {
	return s.pendBatch+s.actBatch > 0 && s.pendInteractive+s.actInteractive > 0
}

// Push injects one more request into a stream stepper's pending queue. The
// cluster router calls this at the request's arrival instant. Callers that
// interleave Push with Step on the fast path must also bound Step with
// SetHorizon (see Step's contract).
func (s *Stepper) Push(r workload.Request) error {
	if s.static {
		return fmt.Errorf("serving: cannot push into a static batch stepper")
	}
	if s.failed {
		return fmt.Errorf("serving: cannot push request %d into a failed stepper", r.ID)
	}
	if r.InputLen <= 0 || r.OutputLen <= 0 {
		return fmt.Errorf("serving: request %d has non-positive lengths", r.ID)
	}
	rr := s.newRequest(r)
	s.seen++
	if !s.discarding() {
		s.all = append(s.all, rr)
	}
	s.enqueue(rr)
	s.countClass(r.Class, &s.pendInteractive, &s.pendBatch, +1)
	s.kvDemandAll += rr.kvBytes
	return nil
}

// enqueue inserts a request into the pending queue ordered by readyAt.
// Arrivals are pushed in time order in practice; insert stably so an
// out-of-order push (or an eviction requeue) cannot corrupt the queue.
func (s *Stepper) enqueue(rr *request) {
	i := sort.Search(len(s.pending), func(i int) bool {
		return s.pending[i].readyAt > rr.readyAt
	})
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = rr
	switch {
	case rr.Class != workload.ClassBatch:
		if i < s.intHint {
			s.intHint = i
		}
	case i <= s.intHint:
		// A batch insert at or below the bound grows the all-batch prefix.
		s.intHint++
	}
}

// removePending deletes pending[i], keeping the queue's order, by moving
// whichever side of i is shorter: the head side shifts right and the slice
// start advances, or the tail side shifts left. Popping the head is O(1) and
// any index costs O(min(i, n-i)), so draining a deep preloaded queue is
// linear rather than quadratic. pending[:i] keeps its indices either way, so
// intHint only moves when the removed request sat inside the all-batch
// prefix. The vacated slot is cleared so the backing array does not keep a
// removed request reachable.
//
//papivet:noalloc
func (s *Stepper) removePending(i int) {
	p := s.pending
	n := len(p)
	if i < n-1-i {
		copy(p[1:i+1], p[:i])
		p[0] = nil
		s.pending = p[1:]
	} else {
		copy(p[i:], p[i+1:])
		p[n-1] = nil
		s.pending = p[:n-1]
	}
	if i < s.intHint {
		s.intHint--
	}
}

// firstInteractive returns the index of the first interactive-class pending
// request (len(pending) when none), advancing the cached all-batch prefix
// bound as it skips.
//
//papivet:noalloc
func (s *Stepper) firstInteractive() int {
	i := s.intHint
	for i < len(s.pending) && s.pending[i].Class == workload.ClassBatch {
		i++
	}
	s.intHint = i
	return i
}

// Now reports the engine-local clock: prefill plus decode plus idle time
// elapsed so far.
func (s *Stepper) Now() units.Seconds { return s.clock }

// HasWork reports whether any request is live or waiting.
func (s *Stepper) HasWork() bool { return len(s.active) > 0 || len(s.pending) > 0 }

// Outstanding counts requests admitted-but-unfinished plus queued — the
// load signal the least-outstanding-requests router balances on.
func (s *Stepper) Outstanding() int { return len(s.active) + len(s.pending) }

// KVDemand returns the worst-case KV-cache footprint of every outstanding
// request (live and queued), the signal the KV-headroom router balances on.
// It is O(1): the total is maintained incrementally on push, admission and
// finish, since this sits on the router hot path (called per replica per
// arrival).
//
//papivet:noalloc
func (s *Stepper) KVDemand() units.Bytes { return s.kvDemandAll }

// SetHorizon bounds fast-path macro-stepping: a macro-stepped Step call
// stops fast-forwarding once its clock reaches t, so a caller interleaving
// many steppers on one event timeline (internal/cluster) can guarantee no
// other event — an arrival, a closed-loop follow-up — should have been
// observed first. It does not affect reference-path stepping, which always
// advances one iteration per call. The bound is sticky; steppers start with
// +Inf (they own their whole timeline).
func (s *Stepper) SetHorizon(t units.Seconds) { s.horizon = t }

// StartAt moves a fresh stream stepper's clock to t without accruing idle
// time — the boot instant of a replica provisioned mid-run by the cluster
// autoscaler, whose busy/idle accounting (and therefore host energy) must
// start at boot rather than at the fleet's time zero. It is only valid on a
// stream stepper that has seen no work: no requests, no iterations, no clock
// movement.
func (s *Stepper) StartAt(t units.Seconds) error {
	if s.static {
		return fmt.Errorf("serving: cannot StartAt a static batch stepper")
	}
	if s.seen > 0 || s.res.Iterations > 0 || s.clock != 0 || s.res.IdleTime != 0 {
		return fmt.Errorf("serving: StartAt on a stepper that already has history")
	}
	if t < 0 {
		return fmt.Errorf("serving: StartAt instant %v is negative", t)
	}
	s.clock = t
	return nil
}

// PeekMetrics returns a snapshot of one request's latency metrics mid-run,
// with TPOT computed from the tokens observed so far — the signal the
// cluster autoscaler reads per completion without waiting for Finalize. The
// second return is false when the request has produced no tokens yet.
func (s *Stepper) PeekMetrics(id int) (RequestMetrics, bool) {
	rm, ok := s.tracker.byID[id]
	if !ok {
		return RequestMetrics{}, false
	}
	out := *rm
	if out.OutputTokens > 1 {
		out.TPOT = (out.Completion - out.TTFT) / units.Seconds(out.OutputTokens-1)
	}
	return out, true
}

// TakeMetrics reads a request's latency snapshot like PeekMetrics and, in
// DiscardCompleted mode, releases the record — the read-once harvest the
// cluster layer performs at each completion so a streaming run's per-request
// state is O(outstanding), not O(total). Outside DiscardCompleted mode it is
// exactly PeekMetrics: records stay for Finalize.
func (s *Stepper) TakeMetrics(id int) (RequestMetrics, bool) {
	out, ok := s.PeekMetrics(id)
	if ok && s.discarding() {
		delete(s.tracker.byID, id)
	}
	return out, ok
}

// discarding reports whether completed-request records are dropped rather
// than retained for Finalize (see Options.DiscardCompleted). Static batch
// steppers always retain: RunBatch's contract is the full Result.
func (s *Stepper) discarding() bool { return s.eng.Opt.DiscardCompleted && !s.static }

// AdvanceTo moves an idle stepper's clock forward to t, accounting the gap
// as idle time. It is a no-op when t is not ahead of the clock or when live
// requests still occupy the engine (a busy engine's clock only advances by
// running iterations).
func (s *Stepper) AdvanceTo(t units.Seconds) {
	if t <= s.clock || len(s.active) > 0 {
		return
	}
	s.res.IdleTime += t - s.clock
	s.clock = t
}

// admit moves pending requests whose ready instant has passed into the
// active batch, bounded by the admission cap and the attention pool's KV
// capacity, and charges their prefill (piggybacked onto the token timeline).
//
// Admission is priority-aware. Interactive requests are admitted first, in
// ready order, skipping over blocked batch traffic; an interactive candidate
// that does not fit the KV pool may preempt active batch requests
// (evict-and-requeue, see preemptFor) instead of waiting for a completion.
// Batch requests are admitted strictly from the queue head, and only while
// no admissible interactive request is blocked ahead of them — batch
// traffic must not grab the capacity an interactive request is waiting for.
// With a single class outstanding both phases reduce to the classic FIFO
// head-of-line admission.
func (s *Stepper) admit() error {
	admitted := 0
	var inputs []int
	var xferTime units.Seconds
	var xferEnergy units.Joules

	place := func(cand *request) error {
		ctx := cand.contextLen()
		shared := 0
		if s.kvStore != nil {
			c, err := s.kvStore.Admit(cand.lease, ctx)
			if err != nil {
				return err
			}
			shared = c.SharedTokens
			xferTime += c.StallTime
			xferEnergy += c.TransferEnergy
		}
		s.active = append(s.active, cand)
		admitted++
		if in := ctx - shared; in > 0 {
			inputs = append(inputs, in)
		}
		s.notePrefill(cand, ctx, shared)
		s.countClass(cand.Class, &s.pendInteractive, &s.pendBatch, -1)
		s.countClass(cand.Class, &s.actInteractive, &s.actBatch, +1)
		s.kvSum += ctx
		s.kvDemandActive += cand.kvBytes
		return nil
	}

	// Phase one: interactive admission (skipped when none is pending). The
	// first interactive candidate that cannot be placed — even with
	// preemption — blocks the rest of its class (FIFO fairness within the
	// tier) and bars batch admission below.
	interactiveBlocked := false
	if s.pendInteractive > 0 {
		// The queue is readyAt-ordered, so every request past a not-yet-ready
		// one is not ready either: breaking at the first unready interactive
		// admits exactly what a front-to-back scan would, and firstInteractive
		// skips the batch backlog in amortized O(1) instead of re-walking it.
		for len(s.active) < s.maxBatch {
			i := s.firstInteractive()
			if i == len(s.pending) {
				break
			}
			cand := s.pending[i]
			if cand.readyAt > s.clock {
				break
			}
			if !s.kvFits(cand) {
				ok, err := s.preemptFor(cand, &xferTime, &xferEnergy)
				if err != nil {
					return err
				}
				if !ok {
					interactiveBlocked = true
					break
				}
			}
			// Removing at i == intHint leaves the all-batch prefix intact.
			s.removePending(i)
			if err := place(cand); err != nil {
				return err
			}
		}
	}

	// Phase two: batch admission from the literal queue head.
	if !interactiveBlocked {
		for len(s.pending) > 0 && len(s.active) < s.maxBatch {
			cand := s.pending[0]
			if cand.Class != workload.ClassBatch || cand.readyAt > s.clock {
				break
			}
			if !s.kvFits(cand) {
				break
			}
			s.removePending(0)
			if err := place(cand); err != nil {
				return err
			}
		}
	}

	if admitted == 0 {
		return nil
	}
	// A fully shared admission (inputs empty) still pays its demand
	// transfers: promotion rides the prefill phase of the timeline, like
	// prefill itself. Demotion write-backs charge energy only — idle state
	// drains over the host link while the stacks keep computing.
	var pt units.Seconds
	if len(inputs) > 0 {
		pt = s.eng.runPrefill(inputs, &s.res)
		// A straggling replica prefills slower too; brownout (Attn) is a
		// decode-side attention-fabric effect and leaves prefill alone.
		if f := s.perturb.Slow; s.perturbed && f > 1 {
			pt += pt.Scale(f - 1)
		}
	}
	pt += xferTime
	s.res.PrefillTime += pt
	s.clock += pt
	if xferEnergy > 0 {
		s.res.Energy.Add(energy.Interconnect, xferEnergy)
	}
	if s.scheduler == nil {
		var err error
		s.scheduler, err = sched.NewScheduler(s.eng.Sys.Policy, admitted, s.eng.Opt.TLP)
		if s.scheduler != nil {
			s.scheduler.SetTraceCap(0)
		}
		return err
	}
	return s.scheduler.AdmitRequests(admitted)
}

// kvFits reports whether cand can be admitted right now under the KV
// regime in force: block commitments when sharing is live (every block the
// admission would commit — adopted, promoted, fresh, plus growth reserve —
// must fit the hot tier next to the blocks already committed), the byte
// ledger otherwise. Bit-for-bit the legacy comparison when sharing is off:
// cand.kvBytes is exactly Cfg.KVBytes(cand.SeqLen()) then.
func (s *Stepper) kvFits(cand *request) bool {
	if s.kvShare {
		return s.kvStore.CanAdmit(s.kvStore.PlanAdmit(cand.lease, cand.contextLen()))
	}
	return s.kvDemandActive+cand.kvBytes <= s.eng.Sys.KVCapacity()
}

// preemptFor makes KV room for an interactive candidate by evicting
// batch-class requests from the active set, most recent admission first. An
// evicted request re-enters the pending queue ready immediately. What
// eviction costs depends on the KV regime: under the byte ledger the
// victim's cache is simply gone, and its eventual re-admission re-prefills
// the full grown context (prompt plus every token already generated) — the
// paper-world cost of preemption. Under block sharing the victim's lease is
// parked instead: sealed blocks are demoted to the cold tier (write-back
// energy accumulated into xe; the drain overlaps compute, so xt only grows
// by demand stalls), and re-admission promotes them
// back rather than recomputing, so only what eviction pressure dropped from
// cold is ever re-prefilled.
//
// Eviction is all-or-nothing: when even evicting every active batch request
// could not make room — judged conservatively under sharing, assuming none
// of the candidate's blocks are adoptable — nothing is evicted. Reports
// whether the candidate now fits.
func (s *Stepper) preemptFor(cand *request, xt *units.Seconds, xe *units.Joules) (bool, error) {
	if s.kvShare {
		b := s.kvStore.BlockTokens()
		worst := (cand.SeqLen() + b - 1) / b
		gain := 0
		for _, r := range s.active {
			if r.Class == workload.ClassBatch {
				gain += s.kvStore.ParkGain(r.lease)
			}
		}
		if s.kvStore.CommittedBlocks()-gain+worst > s.kvStore.HotBlocks() {
			return false, nil
		}
	} else if !s.preemptFeasible(cand) {
		return false, nil
	}
	evicted := 0
	for i := len(s.active) - 1; i >= 0 && !s.kvFits(cand); i-- {
		r := s.active[i]
		if r.Class != workload.ClassBatch {
			continue
		}
		if s.kvStore != nil {
			c := s.kvStore.Park(r.lease)
			*xt += c.StallTime
			*xe += c.TransferEnergy
		}
		s.active = append(s.active[:i], s.active[i+1:]...)
		s.kvSum -= r.contextLen()
		s.kvDemandActive -= r.kvBytes
		s.countClass(r.Class, &s.actInteractive, &s.actBatch, -1)
		s.countClass(r.Class, &s.pendInteractive, &s.pendBatch, +1)
		r.readyAt = s.clock
		r.preempted++
		if r.rm != nil {
			r.rm.Preemptions++
		}
		s.enqueue(r)
		s.res.Preemptions++
		evicted++
	}
	if evicted > 0 {
		if err := s.scheduler.Evict(evicted); err != nil {
			return false, err
		}
	}
	return s.kvFits(cand), nil
}

// Step advances the engine by one unit of progress: admit any arrived
// requests, then either run decoding work (decide → iterate → commit), jump
// the clock to the next arrival if nothing is runnable, or report the
// stepper drained.
//
// On the fast path, one Step may macro-step a whole run of iterations (see
// macroStep); the stepper accounts for every arrival already in its pending
// queue, so RunBatch/RunContinuous-style drivers are unaffected. A caller
// that instead injects arrivals incrementally with Push between Step calls
// must bound each call with SetHorizon(t) — t being the earliest instant it
// might push — or build the engine with FastPathOff; otherwise a macro-step
// can overshoot the instant the caller meant to inject at, admitting the
// request later than single-stepping would. internal/cluster does exactly
// this with its event-kernel horizon.
func (s *Stepper) Step() (StepInfo, error) {
	if s.failed {
		return StepInfo{Kind: StepDrained}, nil
	}
	if !s.static {
		if err := s.admit(); err != nil {
			return StepInfo{}, err
		}
	}
	if len(s.active) == 0 {
		if len(s.pending) == 0 {
			return StepInfo{Kind: StepDrained}, nil
		}
		gap := s.pending[0].readyAt - s.clock
		if gap <= 0 {
			// A request has arrived but could not be admitted with an empty
			// batch: some arrived request's KV cache alone exceeds the pool
			// (with priority tiers that may be an interactive request behind
			// the queue head, whose block also bars batch admission). Under
			// block sharing "alone" means its whole-sequence block count
			// against an empty hot tier.
			blocked := s.pending[0]
			for _, r := range s.pending {
				if r.readyAt > s.clock {
					break
				}
				if s.kvShare {
					if !s.kvStore.FitsAlone(r.SeqLen()) {
						blocked = r
						break
					}
				} else if s.eng.Cfg.KVBytes(r.SeqLen()) > s.eng.Sys.KVCapacity() {
					blocked = r
					break
				}
			}
			return StepInfo{}, fmt.Errorf("serving: request %d KV footprint exceeds attention pool capacity",
				blocked.ID)
		}
		s.res.IdleTime += gap
		s.clock = s.pending[0].readyAt
		return StepInfo{Kind: StepIdle}, nil
	}

	s.ensureTraces()

	// The fast path runs every iteration inside a macro window (macroStep).
	// macroArrivalBound computes the earliest instant an admission or
	// preemption could change the active batch — queue-head arrival for a
	// single class, the earliest class-boundary event for tiered streams —
	// and the window never crosses it, so macro-stepping covers priority
	// streams too.
	if s.eng.fastPath {
		return s.macroStep(s.macroArrivalBound())
	}

	ev := s.scheduler.Decide()
	var pre TimeBreakdown
	if s.perturbed {
		pre = s.res.Breakdown
	}
	it := s.eng.runIteration(s.active, ev, &s.res)
	if s.perturbed {
		s.stretch(&it, pre)
	}
	s.tick(it)

	// Commit tokens and count <|eos|> (§5.2.2 steps 1–2).
	info := StepInfo{Kind: StepIteration}
	if err := s.commitWalk(&it, &info); err != nil {
		return StepInfo{}, err
	}
	if len(s.res.IterStats) < traceCap {
		s.res.IterStats = append(s.res.IterStats, it)
	}
	info.Iteration = it
	if err := s.scheduler.ObserveEOS(info.Completed); err != nil {
		return StepInfo{}, err
	}
	if info.Completed > 0 {
		s.active = live(s.active)
	}
	return info, nil
}

// tick accounts one priced iteration: the iteration count, the RLP trace
// and the clock.
func (s *Stepper) tick(it IterationStat) {
	s.res.Iterations++
	if len(s.res.RLPTrace) < traceCap {
		s.res.RLPTrace = append(s.res.RLPTrace, it.RLP)
	}
	if s.static {
		// Recompute rather than accumulate so the clock matches the summed
		// phase times bit-for-bit.
		s.clock = s.res.PrefillTime + s.res.DecodeTime
	} else {
		s.clock += it.Time
	}
}

// commitWalk is the reference commit walk of one iteration: every active
// request commits its tokens (commitTokens draws the speculative acceptance
// samples, so the active order is part of the bit-identical contract), its
// lease grows, its metrics observe the iteration ending at the clock, and
// finishers retire into info.
func (s *Stepper) commitWalk(it *IterationStat, info *StepInfo) error {
	for _, r := range s.active {
		committed := s.eng.commitTokens(r)
		s.res.Tokens += committed
		it.Tokens += committed
		s.kvSum += committed
		if s.kvStore != nil {
			if err := s.kvStore.Extend(r.lease, r.contextLen()); err != nil {
				return err
			}
		}
		s.tracker.observe(r, committed, s.clock, s.epoch(r))
		if r.done {
			s.retire(r, info)
		}
	}
	return nil
}

// epoch is the instant a request's latencies are measured from: run start
// for a static batch, its arrival for a stream.
func (s *Stepper) epoch(r *request) units.Seconds {
	if s.static {
		return 0
	}
	return r.Arrival
}

// retire books a finished request into info and releases what it held: its
// KV length, KV demand and class count leave the active totals, and its
// lease commits its blocks. It is the one place that decides what a finish
// releases.
func (s *Stepper) retire(r *request, info *StepInfo) {
	info.Completed++
	info.Finished = append(info.Finished, r.Request)
	s.kvSum -= r.InputLen + r.generated
	s.kvDemandAll -= r.kvBytes
	s.kvDemandActive -= r.kvBytes
	s.countClass(r.Class, &s.actInteractive, &s.actBatch, -1)
	if s.kvStore != nil {
		s.kvStore.Commit(r.lease)
	}
}

// ensureTraces pre-sizes the per-iteration traces — the decode loop's only
// growing allocations — so steady-state stepping never reallocates them.
// Lazy (on the first iteration) so runs that never iterate keep nil traces;
// capacity is invisible in the Result, so both decode paths stay deep-equal.
func (s *Stepper) ensureTraces() {
	if s.res.RLPTrace != nil {
		return
	}
	hint := s.traceHint
	if hint == 0 {
		// Stream mode: run length is unknowable up front. 2048 entries
		// (~110 KiB) covers typical continuous-batching cells in one
		// allocation; worst case one doubling reaches the cap.
		hint = 2048
	}
	if hint > traceCap {
		hint = traceCap
	}
	s.res.RLPTrace = make([]int, 0, hint)
	s.res.IterStats = make([]IterationStat, 0, hint)
}

// macroArrivalBound computes the macro window's admission bound: the
// earliest instant at which an admission or preemption could change the
// active batch, +Inf when only a finish can (finishes already end every
// window). Ending a window early is always safe — the next Step re-runs
// admit for real — so every bound here may be conservative; the invariant
// is only that the window never fast-forwards past a boundary the
// reference path would have acted on. −Inf means no sound bound exists:
// the window closes after one iteration. A perturbed stepper (straggler or
// brownout) always gets −Inf: the stretch is priced per iteration and the
// multiplier may lapse at any iteration boundary.
//
// Single-class streams keep PR 3's head-of-line rule: the window pauses
// once the queue head is admissible (from its arrival onward every
// iteration boundary would admit it), while a capacity-blocked head waits
// for a finish. Tiered streams bound on the earliest class-boundary event
// instead, using the O(1) class counters and KV-demand totals. The interior
// of a window is frozen — no admissions, evictions or finishes — so under
// the byte ledger every admissibility verdict below is time-invariant
// until the window ends: a blocked request stays blocked, an infeasible
// preemption stays infeasible. Under block sharing that argument fails for
// tiered streams (interior lease growth moves CommittedBlocks and
// ParkGain, so a preemption trigger can arm mid-window) — that is the one
// −Inf regime.
//
//papivet:noalloc
func (s *Stepper) macroArrivalBound() units.Seconds {
	if s.perturbed {
		return units.Seconds(math.Inf(-1))
	}
	inf := units.Seconds(math.Inf(1))
	// Static batches never admit; streams with an empty queue have nothing
	// to admit before the horizon (Push is fenced by SetHorizon).
	if s.static || len(s.pending) == 0 {
		return inf
	}
	if !s.tiered() {
		head := s.pending[0]
		if len(s.active) < s.maxBatch && s.kvFits(head) {
			return head.readyAt
		}
		return inf
	}
	if s.kvShare {
		return units.Seconds(math.Inf(-1))
	}
	// Tiered, byte ledger. With the batch full, neither admission phase nor
	// preemption (which only runs while placing an interactive into a free
	// slot) can act before a finish.
	if len(s.active) >= s.maxBatch {
		return inf
	}
	// An admissible batch head bounds the window at its arrival (which may
	// already have passed — admit's prefill can advance the clock over it;
	// the window then closes after one iteration and the next Step admits
	// it, or discovers a blocked interactive barring it). A KV-blocked
	// batch head admits nothing — phase-two admission is literal-head-only,
	// and the head cannot change inside a window — but an interactive
	// behind it still can, so keep looking.
	if head := s.pending[0]; head.Class == workload.ClassBatch && s.kvFits(head) {
		return head.readyAt
	}
	// The earliest pending interactive decides the rest: the queue is
	// readyAt-ordered and phase-one admission is FIFO within the tier, so
	// if this one cannot be placed — even by preempting every active batch
	// request — it blocks its whole class and bars batch admission from its
	// arrival until a finish. If it can be placed, its arrival is the
	// boundary.
	if s.pendInteractive > 0 {
		if i := s.firstInteractive(); i < len(s.pending) {
			r := s.pending[i]
			if s.kvFits(r) || s.preemptFeasible(r) {
				return r.readyAt
			}
			return inf
		}
	}
	return inf
}

// preemptFeasible reports whether evicting every active batch-class request
// would make byte-ledger KV room for cand — preemptFor's all-or-nothing
// feasibility test, split out so the macro window bound can ask it without
// evicting. Callers in the block-sharing regime must use preemptFor itself.
//
//papivet:noalloc
func (s *Stepper) preemptFeasible(cand *request) bool {
	var evictable units.Bytes
	for _, r := range s.active {
		if r.Class == workload.ClassBatch {
			evictable += r.kvBytes
		}
	}
	return s.kvDemandActive-evictable+cand.kvBytes <= s.eng.Sys.KVCapacity()
}

// macroStep is the fast path's decode routine: it fast-forwards a run of
// identical-RLP iterations inside one Step call, bounded by the earliest
// finish, the caller-computed admission bound (macroArrivalBound) and the
// horizon. The window always runs at least one iteration. One Decide covers
// the whole window: with RLP and TLP frozen, every interior iteration would
// reach the same placement with no reschedule, so the scheduler is advanced
// in bulk (Repeat) when the window closes, and — decisively for the cluster
// driver — the window is one event-kernel step instead of one per
// iteration. Each iteration is priced by runIterationFast with the exact
// float operations of the reference path, so every trace entry, energy
// charge and clock value stays bit-identical to single-stepping.
//
// TLP only decides how tokens commit. With TLP = 1 commits are
// deterministic — one token per request per iteration — so nothing the
// scheduler or the admission logic observes can change inside the window:
// the interior needs no per-request commit walk, and per-request
// bookkeeping is applied once, in bulk, at the window's end. Speculative
// decoding (TLP > 1) draws per-request acceptance samples from the engine's
// RNG, so the reference commit walk runs every iteration, replaying the
// exact draw sequence, and the first finish ends the window because the
// iterations after it would run at a smaller RLP.
func (s *Stepper) macroStep(bound units.Seconds) (StepInfo, error) {
	rlp := len(s.active)
	spec := s.eng.Opt.TLP > 1
	// With TLP = 1 every iteration commits exactly one token per request, so
	// the earliest finish lands on iteration k and completions (and the
	// StepInfo.Finished hook) land on their exact iteration. With TLP > 1
	// the commit walk reports the finish itself.
	k := math.MaxInt
	if !spec {
		for _, r := range s.active {
			k = min(k, r.OutputLen-r.generated)
		}
	}

	ev := s.scheduler.Decide()
	info := StepInfo{Kind: StepIteration}
	run := 0
	var firstClock units.Seconds
	for {
		var pre TimeBreakdown
		if s.perturbed {
			pre = s.res.Breakdown
		}
		it := s.eng.runIterationFast(rlp, s.kvSum, ev, &s.res)
		if s.perturbed {
			s.stretch(&it, pre)
		}
		s.tick(it)
		run++
		if run == 1 {
			firstClock = s.clock
		}
		var finished bool // the first finish ends the window
		if spec {
			if err := s.commitWalk(&it, &info); err != nil {
				return StepInfo{}, err
			}
			finished = info.Completed > 0
		} else {
			s.kvSum += rlp // every live request grew by its committed token
			it.Tokens = rlp
			finished = run == k
		}
		if len(s.res.IterStats) < traceCap {
			s.res.IterStats = append(s.res.IterStats, it)
		}
		info.Iteration = it
		if finished || bound <= s.clock || s.clock >= s.horizon {
			break
		}
		ev.Iteration++
	}
	s.scheduler.Repeat(run - 1)

	if !spec {
		// Bulk-commit the window: each request gained one token per
		// iteration; only the final iteration can have finished requests
		// (those whose remaining output equalled the window length).
		s.res.Tokens += run * rlp
		// Lease growth replays the reference path's allocator schedule in two
		// phases. Interior iterations free nothing (commits only land on the
		// final iteration), so their per-step, per-lease block allocations all
		// draw on the same monotonically shrinking hot tier — any order pops
		// the same idle blocks, and one bulk Extend per lease to the
		// penultimate context reproduces the state exactly. The final
		// iteration is different: the reference loop interleaves each lease's
		// growth with finished leases' Commits, whose freed blocks are
		// allocatable to the leases after them, so it must be replayed in
		// active order below, not folded into the bulk phase.
		if s.kvStore != nil && run > 1 {
			for _, r := range s.active {
				if err := s.kvStore.Extend(r.lease, r.contextLen()+run-1); err != nil {
					return StepInfo{}, err
				}
			}
		}
		for _, r := range s.active {
			r.iterations += run
			r.generated += run
			if s.kvStore != nil {
				if err := s.kvStore.Extend(r.lease, r.contextLen()); err != nil {
					return StepInfo{}, err
				}
			}
			s.tracker.observeRun(r, run, firstClock, s.clock, s.epoch(r))
			if r.generated >= r.OutputLen {
				r.done = true
				s.retire(r, &info)
			}
		}
	}
	// Interior iterations had no completions, so their reference-path
	// ObserveEOS(0) calls were no-ops; one call at the window's end is
	// equivalent.
	if err := s.scheduler.ObserveEOS(info.Completed); err != nil {
		return StepInfo{}, err
	}
	if info.Completed > 0 {
		s.active = live(s.active)
	}
	return info, nil
}

// Finalize closes the run and returns the accumulated Result: per-request
// metrics in input order, scheduler activity, and host-CPU energy over the
// makespan. Further Finalize calls return the same Result.
func (s *Stepper) Finalize() Result {
	if s.finalized {
		return s.res
	}
	s.finalized = true
	order := make([]workload.Request, len(s.all))
	for i, r := range s.all {
		order[i] = r.Request
	}
	s.res.Requests = s.tracker.finalize(order)
	if s.scheduler != nil {
		s.res.Reschedules = s.scheduler.Reschedules()
	}
	if s.static {
		s.res.PerRequestIterations = make([]int, len(s.all))
		for i, r := range s.all {
			s.res.PerRequestIterations[i] = r.iterations
		}
	}
	// Host CPU draws power for the whole run.
	s.res.Energy.Add(energy.HostCPU, s.eng.Sys.HostPower.Energy(s.res.TotalTime()))
	// Block-cache counters are part of the Result only when sharing was live;
	// a shadow store's ledger is an implementation detail, and attaching it
	// would break the sharing-off ≡ legacy Result equivalence.
	if s.kvShare {
		st := s.kvStore.Stats()
		s.res.KV = &st
	}
	return s.res
}

// run drives a stepper to completion — the shared tail of RunBatch and
// RunContinuous.
func (s *Stepper) run() (Result, error) {
	for {
		info, err := s.Step()
		if err != nil {
			return Result{}, err
		}
		if info.Kind == StepDrained {
			return s.Finalize(), nil
		}
	}
}
