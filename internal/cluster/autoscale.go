package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// AutoscaleOptions configures the elastic control loop: a deterministic
// controller on the fleet's event clock that watches windowed load signals —
// arrival rate, queue depth per replica, p95 TPOT of the interactive tier
// against the SLO, and KV-pool pressure — and scales the replica set between
// Min and Max. Scaling up provisions a replica that warms for WarmUp before
// taking traffic (drawing host power from the moment it is provisioned);
// scaling down drains a replica: it finishes its in-flight requests, accepts
// no new ones, and powers off (stops accruing energy) once empty.
//
// All decisions read only simulated state at control-tick instants, so an
// autoscaled run is exactly as deterministic as a static one: a fixed seed
// reproduces the same scale events, the same request placements, and the
// same energy ledger, on both the fast and the reference decode path.
type AutoscaleOptions struct {
	// Min and Max bound the powered-on fleet (1 ≤ Min ≤ Max).
	Min, Max int
	// Interval is the control period: signals are windowed over it and
	// decisions fire at its boundaries. Zero selects 1 s.
	Interval units.Seconds
	// WarmUp is the provisioning latency: a scaled-up replica starts taking
	// traffic WarmUp after the decision. Zero means instant boot.
	WarmUp units.Seconds
	// CoolDown is the minimum gap between consecutive scale decisions, so
	// one load swing does not trigger a flapping burst. Zero re-evaluates
	// every tick.
	CoolDown units.Seconds
	// SLO is the interactive-tier TPOT objective the controller defends. A
	// zero TokenLatency disables the latency triggers, leaving queue and KV
	// pressure in charge.
	SLO workload.SLO
	// UpTPOTFactor scales up when the window's interactive p95 TPOT exceeds
	// UpTPOTFactor × SLO. Zero selects 1.
	UpTPOTFactor float64
	// DownTPOTFactor permits scale-down only while the window's interactive
	// p95 TPOT sits below DownTPOTFactor × SLO. Zero selects 0.5.
	DownTPOTFactor float64
	// UpQueue scales up when outstanding requests per active replica exceed
	// it. Zero selects the replica admission cap (MaxBatch).
	UpQueue float64
	// DownQueue permits scale-down only while outstanding requests per
	// active replica sit below it. Zero selects MaxBatch/4.
	DownQueue float64
	// KVPressure scales up when any active replica's outstanding KV demand
	// exceeds this fraction of its pool (and bars scale-down above it).
	// Zero selects 0.9.
	KVPressure float64
	// UpArrivalRate scales up when windowed arrivals/s per active replica
	// exceed it. Zero disables the trigger (the rate is still recorded on
	// every scale event).
	UpArrivalRate float64
}

func (o AutoscaleOptions) validate() error {
	if o.Min < 1 || o.Max < o.Min {
		return fmt.Errorf("cluster: autoscale bounds [%d, %d] need 1 ≤ min ≤ max", o.Min, o.Max)
	}
	if o.Interval < 0 || o.WarmUp < 0 || o.CoolDown < 0 {
		return fmt.Errorf("cluster: autoscale latencies (interval %v, warm-up %v, cool-down %v) must be ≥ 0",
			o.Interval, o.WarmUp, o.CoolDown)
	}
	if o.UpTPOTFactor < 0 || o.DownTPOTFactor < 0 || o.UpQueue < 0 ||
		o.DownQueue < 0 || o.KVPressure < 0 || o.UpArrivalRate < 0 {
		return fmt.Errorf("cluster: autoscale thresholds must be ≥ 0")
	}
	return nil
}

// withDefaults resolves the zero-value knobs against the fleet's admission
// cap.
func (o AutoscaleOptions) withDefaults(maxBatch int) AutoscaleOptions {
	if o.Interval == 0 {
		o.Interval = 1
	}
	if o.UpTPOTFactor == 0 {
		o.UpTPOTFactor = 1
	}
	if o.DownTPOTFactor == 0 {
		o.DownTPOTFactor = 0.5
	}
	if o.UpQueue == 0 {
		o.UpQueue = float64(maxBatch)
	}
	if o.DownQueue == 0 {
		o.DownQueue = float64(maxBatch) / 4
	}
	if o.KVPressure == 0 {
		o.KVPressure = 0.9
	}
	return o
}

// DefaultAutoscale returns a ready-to-use elastic configuration for the
// given fleet bounds and interactive SLO: 1 s control period, 2 s warm-up,
// one control period of cool-down, and the default signal thresholds.
func DefaultAutoscale(min, max int, slo workload.SLO) *AutoscaleOptions {
	return &AutoscaleOptions{
		Min:      min,
		Max:      max,
		Interval: 1,
		WarmUp:   2,
		CoolDown: 1,
		SLO:      slo,
	}
}

// ScaleAction names one elastic transition.
type ScaleAction string

// Scale actions, in lifecycle order.
const (
	// ScaleUp provisions a new replica (it serves after warm-up).
	ScaleUp ScaleAction = "scale-up"
	// ScaleLive marks a warmed-up replica joining the eligible set.
	ScaleLive ScaleAction = "live"
	// ScaleDrain stops routing to a replica; it finishes in-flight work.
	ScaleDrain ScaleAction = "drain"
	// ScaleStop powers a drained replica off.
	ScaleStop ScaleAction = "stop"
)

// ScaleEvent records one elastic transition with the windowed signals that
// drove it — the fleet's scaling audit trail.
type ScaleEvent struct {
	At      units.Seconds
	Action  ScaleAction
	Replica int
	// Active is the eligible replica count after the action.
	Active int
	// Window signals at decision time (zero for live/stop bookkeeping
	// events): outstanding requests per active replica, interactive p95
	// TPOT, the worst per-replica KV-demand fraction, and arrivals/s per
	// active replica.
	QueuePerReplica float64
	TPOTP95         units.Seconds
	KVPressure      float64
	ArrivalRate     float64
}

// scaler is the live state of the elastic control loop for one fleet run.
type scaler struct {
	opt AutoscaleOptions
	run *fleetRun

	// Window accumulators, reset at each tick.
	arrivals int
	tpots    []float64

	lastAction units.Seconds
	events     []ScaleEvent
	peak       int // most replicas ever powered on concurrently
}

// observeStep harvests completion signals from one replica step: interactive
// TPOT samples for the latency window, and the moment a draining replica
// runs empty (it powers off right there, not at the next tick). Window
// samples buffer on the replica — the sharded parallel phase may run this
// for distinct replicas concurrently, so nothing shared is written here —
// and the control tick merges the buffers in replica order.
func (s *scaler) observeStep(rep *Replica, info *serving.StepInfo) {
	for _, req := range info.Finished {
		if req.Class != workload.ClassInteractive {
			continue
		}
		if pm, ok := rep.stepper.PeekMetrics(req.ID); ok && pm.OutputTokens > 1 {
			rep.winTPOT = append(rep.winTPOT, pm.TPOT.Seconds())
		}
	}
	if rep.state == repDraining && info.Completed > 0 && rep.stepper.Outstanding() == 0 {
		if s.run.sharded {
			// Mid-phase the event log is shared state: park the decision on
			// the replica and let the next barrier replay it.
			rep.pendingStop = true
			rep.pendStopAt = rep.stepper.Now()
			return
		}
		s.stop(rep, rep.stepper.Now())
	}
}

// stop powers a drained replica off at the given instant.
func (s *scaler) stop(rep *Replica, at units.Seconds) {
	rep.state = repStopped
	rep.stopAt = at
	s.record(ScaleEvent{At: at, Action: ScaleStop, Replica: rep.ID, Active: len(s.run.eligible)})
}

// flushStops replays the power-off decisions a sharded parallel phase
// deferred, ordered by power-off instant (ties by replica ID) — the order
// the serial schedule's step events would have recorded them in.
func (s *scaler) flushStops() {
	var due []*Replica
	for _, rep := range s.run.reps {
		if rep.pendingStop {
			due = append(due, rep)
		}
	}
	if len(due) == 0 {
		return
	}
	sort.SliceStable(due, func(i, j int) bool { return due[i].pendStopAt < due[j].pendStopAt })
	for _, rep := range due {
		rep.pendingStop = false
		s.stop(rep, rep.pendStopAt)
	}
}

func (s *scaler) record(ev ScaleEvent) { s.events = append(s.events, ev) }

// poweredOn counts replicas currently drawing power (everything not
// stopped). A crashed replica is dead hardware, not headroom: it stops
// counting against Max, which is what lets the control loop boot its
// replacement.
func (s *scaler) poweredOn() int {
	n := 0
	for _, rep := range s.run.reps {
		if rep.state != repStopped && rep.state != repFailed {
			n++
		}
	}
	return n
}

// tick is the control loop body, fired every Interval on the fleet's event
// kernel. It reads the windowed signals, applies the scale-up triggers (any
// one suffices) or the scale-down guards (all must hold), resets the window,
// and re-arms itself while the fleet still has pending events — when the
// queue is empty the run is over and the loop retires, which is what lets
// the kernel drain.
func (s *scaler) tick(now units.Seconds) {
	r := s.run
	if r.err != nil {
		return
	}

	// Windowed signals over the active set.
	act, warming := 0, 0
	queue := 0
	kvMax := 0.0
	for _, rep := range r.reps {
		switch rep.state {
		case repWarming:
			warming++
		case repActive:
			act++
			queue += rep.stepper.Outstanding()
			if kvCap := rep.engine.Sys.KVCapacity().Bytes(); kvCap > 0 {
				if f := units.Ratio(rep.stepper.KVDemand(), rep.engine.Sys.KVCapacity()); f > kvMax {
					kvMax = f
				}
			}
		}
	}
	// An all-failed window (every active replica crashed between ticks) has
	// act == 0: the per-replica signals are vacuously zero rather than the
	// 0/0 NaN that would otherwise flow into the scale-event audit trail.
	queuePer, ratePer := 0.0, 0.0
	if act > 0 {
		queuePer = float64(queue) / float64(act)
		ratePer = float64(s.arrivals) / s.opt.Interval.Seconds() / float64(act)
	}
	// Merge the per-replica window buffers in replica order, then take the
	// percentile in place: same multiset every run, no copy, no re-sort of
	// anything but this window's samples.
	for _, rep := range r.reps {
		s.tpots = append(s.tpots, rep.winTPOT...)
		rep.winTPOT = rep.winTPOT[:0]
	}
	tpot95 := 0.0
	if len(s.tpots) > 0 {
		tpot95 = stats.PercentileInPlace(s.tpots, 95)
	}
	sig := ScaleEvent{At: now, QueuePerReplica: queuePer,
		TPOTP95: units.Seconds(tpot95), KVPressure: kvMax, ArrivalRate: ratePer}

	slo := s.opt.SLO.TokenLatency.Seconds()
	cooled := now-s.lastAction >= s.opt.CoolDown

	// Max bounds the powered-on fleet, so a still-draining replica counts
	// against headroom exactly like an active one.
	up := cooled && s.poweredOn() < s.opt.Max &&
		((slo > 0 && tpot95 > s.opt.UpTPOTFactor*slo) ||
			queuePer > s.opt.UpQueue ||
			kvMax > s.opt.KVPressure ||
			(s.opt.UpArrivalRate > 0 && ratePer > s.opt.UpArrivalRate))
	switch {
	case up:
		rep, err := r.addReplica(now, now+s.opt.WarmUp, repWarming)
		if err != nil {
			r.err = err
			return
		}
		if on := s.poweredOn(); on > s.peak {
			s.peak = on
		}
		sig.Action, sig.Replica, sig.Active = ScaleUp, rep.ID, len(r.eligible)
		s.record(sig)
		s.lastAction = now
		r.kernel.At(rep.liveAt, func(liveNow units.Seconds) {
			if r.err != nil {
				return
			}
			rep.state = repActive
			r.rebuildEligible()
			s.record(ScaleEvent{At: liveNow, Action: ScaleLive, Replica: rep.ID, Active: len(r.eligible)})
			if r.resil != nil {
				// Failover casualties stranded with no live replica
				// land on the replacement the moment it activates.
				r.resil.flushWaiting(liveNow)
			}
		})

	case cooled && act > s.opt.Min && warming == 0 &&
		(slo <= 0 || tpot95 < s.opt.DownTPOTFactor*slo) &&
		queuePer < s.opt.DownQueue && kvMax < s.opt.KVPressure:
		// Drain the least-loaded active replica (ties: the youngest), so
		// the in-flight work it must finish is minimal. Replicas holding a
		// live closed-loop conversation are not drainable: the
		// conversation's KV context pins its follow-ups here.
		var victim *Replica
		for _, rep := range r.reps {
			if rep.state != repActive || rep.holds > 0 {
				continue
			}
			if victim == nil || rep.stepper.Outstanding() <= victim.stepper.Outstanding() {
				victim = rep
			}
		}
		if victim == nil {
			break
		}
		victim.state = repDraining
		r.rebuildEligible()
		sig.Action, sig.Replica, sig.Active = ScaleDrain, victim.ID, len(r.eligible)
		s.record(sig)
		s.lastAction = now
		if victim.stepper.Outstanding() == 0 {
			// Already idle: it powers off at the decision instant (its own
			// clock may lead the fleet clock if its last iteration committed
			// past this tick).
			at := now
			if t := victim.stepper.Now(); t > at {
				at = t
			}
			s.stop(victim, at)
		}
	}

	// Reset the window and re-arm. Sharded replica steps live outside the
	// kernel, so the liveness check must count them too.
	s.arrivals = 0
	s.tpots = s.tpots[:0]
	if r.kernel.Pending() > 0 || r.stepsPending() {
		r.nextTick = now + s.opt.Interval
		r.kernel.At(r.nextTick, s.tick)
	} else {
		r.nextTick = units.Seconds(math.Inf(1))
	}
}
