// Package cluster simulates fleet-level LLM serving: N independent replicas
// — each a complete PAPI or baseline system running mixed continuous
// batching — consume one arrival-driven request stream behind a pluggable
// router. This is the layer the paper's single-engine view (§5) stops short
// of: serving heavy traffic is a coordination problem across replicated
// memory-compute units, so throughput, tail latency, and SLO attainment
// depend on how arrivals are spread as much as on each replica's scheduler.
//
// Replicas advance iteration-by-iteration through serving.Stepper and are
// interleaved deterministically on the internal/sim event kernel: arrivals
// and replica steps are events on one shared timeline, with FIFO ordering
// among simultaneous events, so a fixed seed reproduces the same fleet
// trace run-to-run.
//
// Two entry points drive a fleet: Run consumes an open-loop request stream
// (pre-generated arrivals — Poisson, bursty, diurnal, or a replayed
// workload.Trace), while RunPlan consumes a closed-loop multi-turn
// conversation plan in which each follow-up arrives think-time after the
// previous answer completes and carries the grown context back to the same
// replica. Both produce a FleetResult whose Stream field records the
// realised arrivals for byte-stable trace export.
//
// Fleets need not be homogeneous: NewFromSpecs takes a list of declarative
// design specs and provisions replicas toward the list's design ratio (a
// repeated entry weights its design), so a PAPI+baseline mixed fleet is one
// argument away and elastic fleets keep the mix as they grow. Each distinct
// design keeps its own kernel-pricing cost table (pricing is
// hardware-specific), and FleetResult splits the fleet metrics per design
// in PerDesign.
package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/papi-sim/papi/internal/core"
	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/sim"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Options configures a cluster run.
type Options struct {
	// Replicas is the number of identical serving engines (≥ 1). With
	// autoscaling enabled this is the initial fleet size, within
	// [Autoscale.Min, Autoscale.Max].
	Replicas int
	// MaxBatch is each replica's continuous-batching admission cap.
	MaxBatch int
	// Router spreads arrivals over the replicas; nil selects RoundRobin.
	Router Router
	// Serving configures every replica's engine. Each replica derives its
	// acceptance-sampling seed from Serving.Seed plus its ID, so replicas do
	// not replay identical speculation outcomes while the fleet as a whole
	// stays deterministic.
	Serving serving.Options
	// Autoscale, when non-nil, runs the elastic control loop: the fleet
	// grows and shrinks between Autoscale.Min and Autoscale.Max replicas in
	// response to windowed load signals (see AutoscaleOptions). Nil keeps
	// the fleet statically provisioned at Replicas.
	Autoscale *AutoscaleOptions

	// Faults, when non-nil and non-empty, schedules the plan's failure
	// events on the run's event kernel (see internal/faults): replica
	// crashes trigger failover of the lost requests to survivors, straggler
	// and brownout windows stretch the priced kernel latencies. A nil or
	// empty plan leaves every result bit-identical to a fault-free run.
	Faults *faults.Plan
	// Retries bounds failover: a request lost to a crash or timeout is
	// re-routed to a survivor (its grown context re-prefilled) at most
	// Retries times before it terminally fails. Zero retries means the
	// first loss is final.
	Retries int
	// RetryBackoff delays each retry by RetryBackoff × 2^(attempt-1) —
	// deterministic exponential backoff. Zero re-routes at the loss instant.
	RetryBackoff units.Seconds
	// Timeout, when positive, bounds every request attempt: an attempt
	// still outstanding Timeout after its injection is cancelled on its
	// replica and retried under the same bounded-retry policy.
	Timeout units.Seconds

	// RetainRequests keeps every per-request metrics record for
	// FleetResult.Requests. Off by default: at million-request scale the
	// record slice is the run's memory bound, and the streaming
	// FleetResult.Agg already carries the latency distributions — each
	// completion's record is harvested into it once and then dropped, so a
	// run's per-request state is O(outstanding), not O(total).
	RetainRequests bool
	// RetainStream keeps the realised arrival stream for
	// FleetResult.Stream — needed only when the run will be exported as a
	// replayable trace. Off by default for the same memory reason.
	RetainStream bool

	// Shards > 1 lets independent replicas advance in parallel between
	// fleet-level synchronization points (arrival routing, autoscaler
	// ticks, fault edges, timeout deadlines, retry re-injections), on up to
	// Shards goroutines. Results are bit-identical to the serial schedule —
	// replica steps never interact between barriers, and everything
	// cross-replica still fires in kernel order — which the equivalence
	// tests pin on both decode paths, with and without a fault plan armed.
	// Open-loop Run (and RunSeq) only: closed-loop plans couple replicas
	// through follow-ups, so RunPlan rejects Shards > 1. 0 or 1 is serial.
	Shards int
}

func (o Options) validate() error {
	if o.Replicas < 1 {
		return fmt.Errorf("cluster: replica count %d must be ≥ 1", o.Replicas)
	}
	if o.MaxBatch <= 0 {
		return fmt.Errorf("cluster: max batch %d must be positive", o.MaxBatch)
	}
	if o.Autoscale != nil {
		if err := o.Autoscale.validate(); err != nil {
			return err
		}
		if o.Replicas < o.Autoscale.Min || o.Replicas > o.Autoscale.Max {
			return fmt.Errorf("cluster: initial replica count %d outside autoscale bounds [%d, %d]",
				o.Replicas, o.Autoscale.Min, o.Autoscale.Max)
		}
	}
	if o.Retries < 0 {
		return fmt.Errorf("cluster: retry bound %d must be ≥ 0", o.Retries)
	}
	if o.RetryBackoff < 0 {
		return fmt.Errorf("cluster: retry backoff %v must be ≥ 0", o.RetryBackoff)
	}
	if o.Timeout < 0 {
		return fmt.Errorf("cluster: request timeout %v must be ≥ 0", o.Timeout)
	}
	if o.Shards < 0 {
		return fmt.Errorf("cluster: shard count %d must be ≥ 0", o.Shards)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// resilienceActive reports whether the run needs the failure machinery at
// all. When false the run takes exactly the pre-fault code paths, keeping
// every fault-free result bit-identical.
func (o Options) resilienceActive() bool {
	return (o.Faults != nil && !o.Faults.Empty()) || o.Timeout > 0
}

// replicaState is a replica's position in the elastic lifecycle. Statically
// provisioned fleets keep every replica active for the whole run.
type replicaState int

const (
	// repActive replicas take new traffic.
	repActive replicaState = iota
	// repWarming replicas are booting (provisioned but not yet serving);
	// they draw power from bootAt and join the eligible set at liveAt.
	repWarming
	// repDraining replicas finish their in-flight requests but accept no new
	// ones; they stop (and stop accruing energy) once empty.
	repDraining
	// repStopped replicas are powered off.
	repStopped
	// repFailed replicas crashed mid-run (see Options.Faults): their
	// in-flight work was surrendered to failover and they never return. The
	// autoscaler treats the slot as free headroom and may boot a replacement.
	repFailed
)

// String names the state as scale events and debug output spell it.
func (s replicaState) String() string {
	switch s {
	case repActive:
		return "active"
	case repWarming:
		return "warming"
	case repDraining:
		return "draining"
	case repStopped:
		return "stopped"
	case repFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Replica is one serving engine's slot in the fleet, exposing the load
// signals routers balance on.
type Replica struct {
	ID int

	// design is the display name of the hardware design this replica runs
	// (replicas of a mixed fleet differ).
	design string

	engine  *serving.Engine
	stepper *serving.Stepper

	// scheduled says a step event for this replica is already armed (in the
	// event queue, or — sharded — recorded in nextStep), so arrivals must
	// not double-schedule it.
	scheduled bool
	// stepEvent is this replica's kernel step callback, built once on first
	// schedule and re-armed for every subsequent step: a million-step run
	// re-posts one closure instead of allocating one per step.
	stepEvent sim.Event
	// nextStep is the armed step instant when the run is sharded: sharded
	// replicas keep their step cadence out of the kernel and are driven in
	// parallel up to each barrier instead.
	nextStep units.Seconds
	// routed counts requests this replica received.
	routed int
	// agg streams this replica's completion latencies (fed by
	// fleetRun.harvest); fleet and per-design aggregates merge these in
	// replica order.
	agg *FleetAggregate
	// winTPOT buffers the autoscaler window's interactive TPOT samples.
	// Kept per replica so the sharded parallel phase appends race-free; the
	// control tick merges the buffers in replica order.
	winTPOT []float64
	// err holds a step failure until the driver folds it into the run error
	// (sharded replicas cannot write shared state mid-phase).
	err error
	// pendingStop defers a draining replica's power-off decision made
	// inside a sharded parallel phase; the next barrier replays it through
	// the scaler (pendStopAt is the drained instant).
	pendingStop bool
	pendStopAt  units.Seconds
	// finishedIDs buffers the phase's completions for the failure ledger
	// when the run is sharded: marking a request done is a cross-replica
	// write (the ledger is shared), so it is deferred to the barrier, which
	// flushes the buffers in replica order. Distinct requests' ledger
	// entries are independent and a request is outstanding on at most one
	// replica, so flush order between replicas cannot change any entry.
	finishedIDs []int

	// Elastic lifecycle (see replicaState). bootAt is the instant the
	// replica powered on (0 for the initial fleet), liveAt when it started
	// taking traffic (bootAt plus warm-up), stopAt when a drained replica
	// powered off.
	state  replicaState
	bootAt units.Seconds
	liveAt units.Seconds
	stopAt units.Seconds
	// holds counts live closed-loop conversations pinned to this replica
	// (their grown KV context lives here, and follow-ups must come back).
	// The autoscaler never drains a replica while it holds one.
	holds int
	// followUps holds the arrival instants of the closed-loop follow-ups
	// pinned to this replica that have not fired yet — the only events
	// besides first turns and control ticks that can reach it in a
	// fault-free RunPlan, so its earliest entry bounds the replica's
	// macro-stepping horizon there.
	followUps instantHeap
}

// instantHeap is a binary min-heap of simulated instants.
type instantHeap []units.Seconds

// push adds t.
func (h *instantHeap) push(t units.Seconds) {
	*h = append(*h, t)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes the earliest instant; the heap must not be empty.
func (h *instantHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && q[l] < q[m] {
			m = l
		}
		if r := l + 1; r < n && q[r] < q[m] {
			m = r
		}
		if m == i {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// Outstanding counts the replica's admitted-but-unfinished plus queued
// requests.
func (r *Replica) Outstanding() int { return r.stepper.Outstanding() }

// KVHeadroom returns the free worst-case KV capacity of the replica's
// attention pool, given everything outstanding.
func (r *Replica) KVHeadroom() units.Bytes {
	room := r.engine.Sys.KVCapacity() - r.stepper.KVDemand()
	if room < 0 {
		room = 0
	}
	return room
}

// Now reports the replica's engine-local clock.
func (r *Replica) Now() units.Seconds { return r.stepper.Now() }

// Design names the hardware design this replica runs.
func (r *Replica) Design() string { return r.design }

// Routed counts the requests the router sent here.
func (r *Replica) Routed() int { return r.routed }

// blueprint is one replica design the fleet cycles through: the design's
// display name, a fresh-system factory (each replica owns its instance),
// and the kernel-pricing table its replicas share. Pricing is
// hardware-specific, so a mixed fleet keeps one table per design rather
// than one per fleet.
type blueprint struct {
	name   string
	newSys func() (*core.System, error)
	costs  *serving.CostTable
}

// Cluster is a single-use fleet simulation: build, Run once, read the
// FleetResult. (Routers and replicas carry per-run state, so reuse would
// silently leak one run's state into the next.)
type Cluster struct {
	sysName    string
	blueprints []blueprint
	cfg        model.Config
	opt        Options
	ran        bool
}

// New validates and builds a cluster of identical replicas. newSys is
// called once per replica so each engine owns its system instance.
func New(newSys func() *core.System, cfg model.Config, opt Options) (*Cluster, error) {
	if newSys == nil {
		return nil, fmt.Errorf("cluster: nil system factory")
	}
	return newCluster([]func() (*core.System, error){func() (*core.System, error) {
		sys := newSys()
		if sys == nil {
			return nil, fmt.Errorf("cluster: system factory returned nil")
		}
		return sys, nil
	}}, cfg, opt)
}

// NewFromSpecs validates and builds a fleet from declarative design specs:
// one spec provisions a homogeneous fleet, several a mixed one whose
// replicas target the list's design ratio (a repeated entry weights its
// design — see nextBlueprint; elastic fleets restore the ratio as they
// grow after drains). Each distinct design keeps its own kernel-pricing
// table, so Serving.Costs must be nil when more than one spec is given.
// The *initial* fleet must provision every listed spec (Replicas ≥
// len(specs)); otherwise a design could silently never run while still
// appearing zero-filled in the per-design metrics.
func NewFromSpecs(specs []design.Spec, cfg model.Config, opt Options) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no design specs")
	}
	if opt.Replicas < len(specs) {
		return nil, fmt.Errorf("cluster: %d design specs cannot all be provisioned on %d initial replicas",
			len(specs), opt.Replicas)
	}
	// Snapshot each spec through its byte-stable encoding: Spec's pointer
	// fields alias the caller's values, and replicas are built lazily (at
	// Run and at autoscale scale-ups), so without a snapshot the caller
	// could mutate a design after construction, bypassing the up-front
	// validation and the same-name conflict guard.
	factories := make([]func() (*core.System, error), len(specs))
	for i, spec := range specs {
		data, err := spec.Export()
		if err != nil {
			return nil, err
		}
		snap, err := design.ImportSpec(data)
		if err != nil {
			return nil, err
		}
		factories[i] = snap.Build
	}
	return newCluster(factories, cfg, opt)
}

// NewByName builds a cluster of the named system design.
func NewByName(name string, cfg model.Config, opt Options) (*Cluster, error) {
	spec, err := design.ByName(name)
	if err != nil {
		return nil, err
	}
	return NewFromSpecs([]design.Spec{spec}, cfg, opt)
}

// newCluster probes every blueprint factory once (building a throwaway
// engine validates each distinct design/model/options combination up
// front) and assigns one cost table per distinct design: replicas of the
// same design share their table even when the design appears several times
// in the blueprint list (a "PAPI,PAPI,A100+AttAcc" ratio list keeps one
// PAPI table). The per-design metrics split keys on the display name, so
// two *different* designs sharing a name are rejected here rather than
// silently merged.
func newCluster(factories []func() (*core.System, error), cfg model.Config, opt Options) (*Cluster, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Router == nil {
		opt.Router = RoundRobin()
	}
	probes := make([]*core.System, len(factories))
	firstByName := map[string]*core.System{}
	var names []string
	for i, factory := range factories {
		probe, err := factory()
		if err != nil {
			return nil, err
		}
		if probe == nil {
			return nil, fmt.Errorf("cluster: system factory returned nil")
		}
		if prior, ok := firstByName[probe.Name]; ok {
			if !reflect.DeepEqual(probe, prior) {
				return nil, fmt.Errorf("cluster: two different designs share the name %q; rename one so the per-design split stays meaningful", probe.Name)
			}
		} else {
			firstByName[probe.Name] = probe
			names = append(names, probe.Name)
		}
		probes[i] = probe
	}
	if opt.Serving.Costs != nil && len(names) > 1 {
		return nil, fmt.Errorf("cluster: a caller-shared cost table cannot price a mixed-design fleet; leave Serving.Costs nil")
	}
	tables := map[string]*serving.CostTable{}
	for _, name := range names {
		costs := opt.Serving.Costs
		if costs == nil {
			costs = serving.NewCostTable()
		}
		bopt := opt.Serving
		bopt.Costs = costs
		if _, err := serving.New(firstByName[name], cfg, bopt); err != nil {
			return nil, err
		}
		tables[name] = costs
	}
	c := &Cluster{cfg: cfg, opt: opt, sysName: strings.Join(names, " + ")}
	for i, factory := range factories {
		c.blueprints = append(c.blueprints, blueprint{
			name: probes[i].Name, newSys: factory, costs: tables[probes[i].Name]})
	}
	return c, nil
}

// mixed reports whether the fleet cycles through more than one distinct
// design.
func (c *Cluster) mixed() bool {
	for _, bp := range c.blueprints[1:] {
		if bp.name != c.blueprints[0].name {
			return true
		}
	}
	return false
}

// fleetRun is the live state of one cluster simulation: the replicas, the
// shared event kernel, the realised arrival stream (for trace export), and
// the optional completion hook closed-loop scenarios couple follow-ups to.
type fleetRun struct {
	c      *Cluster
	reps   []*Replica
	kernel *sim.Engine
	err    error
	// eligible caches the replicas currently taking traffic (state active);
	// rebuilt on the rare lifecycle transitions rather than per arrival.
	eligible []*Replica
	// scaler is the elastic control loop; nil for static fleets.
	scaler *scaler
	// nextTick is the next autoscaler control instant (+Inf when none) —
	// part of every fault-free macro-stepping horizon, since a control tick
	// reads every replica's signals.
	nextTick units.Seconds
	// stream records every request actually injected, in injection order —
	// the realised arrivals a Trace replays.
	stream []workload.Request
	// onFinish, when set, fires once per completed request on the replica
	// that served it, at the replica's completion instant.
	onFinish func(rep *Replica, req workload.Request)
	// resil is the failure machinery (crash failover, timeouts, bounded
	// retries, degradation windows); nil unless Options arm it, so
	// fault-free runs take exactly the pre-fault code paths.
	resil *resilience
	// onCrash and onRequeue let RunPlan keep its conversation pins honest
	// under failover: onCrash un-pins every conversation homed on the dead
	// replica, onRequeue re-pins a conversation to the survivor its retried
	// turn landed on.
	onCrash   func(rep *Replica, now units.Seconds)
	onRequeue func(id int, rep *Replica)
	// horizon returns the earliest future instant at which an event outside
	// the given replica's own stepping can interact with it — the bound its
	// fast-path macro-stepping must not cross (see Stepper.SetHorizon). The
	// default bounds by the kernel's next pending event, which is always
	// safe: new events are only scheduled at or after it. Fault-free runs
	// tighten it to the events that can actually reach the replica: RunSeq
	// to the next unfired arrival (and, when autoscaling, the next control
	// tick), ignoring the replica, since open-loop step events never touch
	// other replicas; RunPlan additionally to the earliest pending follow-up
	// pinned to that replica, since a follow-up reaches no other.
	horizon func(*Replica) units.Seconds
	// sharded moves replica step events off the kernel: between kernel
	// events (the fleet-level synchronization barriers) every armed replica
	// is driven in parallel on up to shards goroutines, with identical
	// results to the serial schedule (see Options.Shards).
	sharded bool
	shards  int
	// due is the barrier driver's scratch list of armed replicas, reused
	// across barriers so the hot loop does not allocate.
	due []*Replica
	// pool is the driver's persistent caller-runs pool, started lazily on
	// the first multi-replica phase and retired when the drain finishes.
	// barrier carries the phase's synchronization instant to the workers;
	// it is written before the dispatch publishes its batch, which
	// happens-before every claim of the phase.
	pool    *shardPool
	barrier units.Seconds
}

// newFleetRun builds the replica engines and the event kernel. Replicas of
// the same design share one kernel-pricing cost table (each (placement,
// parallelism) kernel is priced once for the whole fleet); a mixed fleet
// prices per design.
func (c *Cluster) newFleetRun() (*fleetRun, error) {
	r := &fleetRun{c: c, kernel: sim.New(),
		nextTick: units.Seconds(math.Inf(1))}
	for i := 0; i < c.opt.Replicas; i++ {
		if _, err := r.addReplica(0, 0, repActive); err != nil {
			return nil, err
		}
	}
	r.rebuildEligible()
	r.horizon = func(*Replica) units.Seconds {
		if t, ok := r.kernel.NextAt(); ok {
			return t
		}
		return units.Seconds(math.Inf(1))
	}
	if c.opt.resilienceActive() {
		r.resil = newResilience(r)
		r.resil.schedulePlan()
	}
	if c.opt.Autoscale != nil {
		opt := c.opt.Autoscale.withDefaults(c.opt.MaxBatch)
		r.scaler = &scaler{opt: opt, run: r, peak: c.opt.Replicas,
			lastAction: units.Seconds(math.Inf(-1))}
		r.nextTick = opt.Interval
		r.kernel.At(r.nextTick, r.scaler.tick)
	}
	return r, nil
}

// shard arms the parallel barrier driver when the run qualifies: Shards > 1
// on an open-loop run. The failure machinery shards too: fault edges,
// timeout deadlines, and retry re-injections are ordinary kernel events, so
// they are fleet-level barriers like arrivals — every resilience mutation
// (crash, cancel, re-route, perturbation change) runs in exact kernel order
// between parallel phases, and the one ledger write a step itself performs
// (marking a completion done) is buffered replica-locally and flushed at
// the barrier (see Replica.finishedIDs). Callers must shard before the
// first arrival is scheduled.
func (r *fleetRun) shard() {
	if r.c.opt.Shards > 1 {
		r.sharded = true
		r.shards = r.c.opt.Shards
	}
}

// nextBlueprint picks the design to provision next: the design most
// under-represented among the replicas that will take traffic (active and
// warming), relative to the blueprint list's target ratio (largest
// deficit; ties resolve in blueprint order, so the selection is
// deterministic). Building a fleet from empty reproduces an interleaved
// list order; for an elastic fleet this restores the design mix that
// load-based drains erode — the autoscaler's victim choice ignores
// designs, so without it repeated drain/grow cycles could eliminate one
// design from the active fleet entirely.
func (r *fleetRun) nextBlueprint() blueprint {
	bps := r.c.blueprints
	if len(bps) == 1 {
		return bps[0]
	}
	target := make(map[string]int, len(bps))
	for _, bp := range bps {
		target[bp.name]++
	}
	have := map[string]int{}
	inService := 0
	for _, rep := range r.reps {
		if rep.state == repActive || rep.state == repWarming {
			have[rep.design]++
			inService++
		}
	}
	best, bestDeficit := bps[0], math.Inf(-1)
	seen := map[string]bool{}
	for _, bp := range bps {
		if seen[bp.name] {
			continue
		}
		seen[bp.name] = true
		share := float64(target[bp.name]) / float64(len(bps))
		if deficit := share*float64(inService+1) - float64(have[bp.name]); deficit > bestDeficit {
			best, bestDeficit = bp, deficit
		}
	}
	return best
}

// addReplica builds one more replica engine on its blueprint's cost table
// (blueprint choice: see nextBlueprint). A warming replica powers on at
// bootAt (its clock starts there, so busy/idle accounting — and host
// energy — covers only its powered-on span) and takes traffic from liveAt;
// the caller schedules the activation event.
func (r *fleetRun) addReplica(bootAt, liveAt units.Seconds, state replicaState) (*Replica, error) {
	bp := r.nextBlueprint()
	opt := r.c.opt.Serving
	opt.Seed += int64(len(r.reps))
	opt.Costs = bp.costs
	// Without fleet-level retention each completion's metrics are read
	// exactly once, at harvest, so the engine drops its per-request records
	// as they finish — the constant-memory path. (The failure machinery
	// only ever touches records of outstanding requests, so it is
	// indifferent; keying on RetainRequests alone also keeps an armed
	// no-op fault plan bit-identical to a fault-free run.)
	opt.DiscardCompleted = !r.c.opt.RetainRequests
	sys, err := bp.newSys()
	if err != nil {
		return nil, err
	}
	eng, err := serving.New(sys, r.c.cfg, opt)
	if err != nil {
		return nil, err
	}
	st, err := eng.NewStreamStepper(nil, r.c.opt.MaxBatch)
	if err != nil {
		return nil, err
	}
	if bootAt > 0 {
		if err := st.StartAt(bootAt); err != nil {
			return nil, err
		}
	}
	rep := &Replica{ID: len(r.reps), design: bp.name, engine: eng, stepper: st,
		state: state, bootAt: bootAt, liveAt: liveAt, agg: newFleetAggregate()}
	r.reps = append(r.reps, rep)
	if r.resil != nil {
		// A replica born inside a degradation window serves at the
		// window's reduced bandwidth from its first iteration.
		r.resil.applyPerturb(rep)
	}
	return rep, nil
}

// rebuildEligible refreshes the routable-replica cache after a lifecycle
// transition.
func (r *fleetRun) rebuildEligible() {
	r.eligible = r.eligible[:0]
	for _, rep := range r.reps {
		if rep.state == repActive {
			r.eligible = append(r.eligible, rep)
		}
	}
}

// schedule arms a replica's step event at its next work instant. Serial
// runs put the step on the shared kernel; sharded runs record it on the
// replica, whose steps the barrier driver advances in parallel. Pushes
// re-arm idle replicas.
func (r *fleetRun) schedule(rep *Replica, at units.Seconds) {
	rep.scheduled = true
	if r.sharded {
		rep.nextStep = at
		return
	}
	if rep.stepEvent == nil {
		rep.stepEvent = func(now units.Seconds) {
			rep.scheduled = false
			if r.err != nil {
				return
			}
			r.stepReplica(rep, now)
			if rep.err != nil && r.err == nil {
				r.err = rep.err
			}
		}
	}
	r.kernel.At(at, rep.stepEvent)
}

// stepReplica advances one replica iteration at `now`: it absorbs any idle
// gap, steps the engine, feeds the observers and the streaming aggregate,
// and re-arms the next step while work remains. It writes only
// replica-local state (rep.err, not r.err), so the sharded driver may run
// it for distinct replicas concurrently; the serial path folds rep.err
// into the run error at its kernel event.
func (r *fleetRun) stepReplica(rep *Replica, now units.Seconds) {
	// A step armed before a crash must not touch the dead engine: its
	// clock is frozen at the failure instant.
	if rep.state == repFailed {
		return
	}
	rep.stepper.AdvanceTo(now)
	rep.stepper.SetHorizon(r.horizon(rep))
	info, err := rep.stepper.Step()
	if err != nil {
		rep.err = err
		return
	}
	if r.scaler != nil {
		r.scaler.observeStep(rep, &info)
	}
	if r.resil != nil {
		if r.sharded {
			// The ledger is shared fleet state; a parallel-phase step only
			// buffers, and the barrier flushes (see advanceShards).
			for _, req := range info.Finished {
				rep.finishedIDs = append(rep.finishedIDs, req.ID)
			}
		} else {
			for _, req := range info.Finished {
				r.resil.finished(req.ID)
			}
		}
	}
	if r.onFinish != nil {
		for _, req := range info.Finished {
			r.onFinish(rep, req)
		}
	}
	r.harvest(rep, &info)
	if info.Kind == serving.StepDrained {
		return
	}
	r.schedule(rep, rep.stepper.Now())
}

// harvest folds the step's completions into the replica's streaming
// aggregate — the always-on constant-memory metrics path. It runs after the
// observers, whose window signals peek at the same records: without
// retention the engine forgets a record once taken.
func (r *fleetRun) harvest(rep *Replica, info *serving.StepInfo) {
	for _, req := range info.Finished {
		if rm, ok := rep.stepper.TakeMetrics(req.ID); ok {
			rep.agg.observe(rm)
		}
	}
}

// push delivers a request to a replica and re-arms its step event, without
// recording a stream arrival — the failover path's re-injection, where the
// request's original arrival is already on record.
func (r *fleetRun) push(rep *Replica, req workload.Request, now units.Seconds) bool {
	if err := rep.stepper.Push(req); err != nil {
		r.err = err
		return false
	}
	rep.routed++
	if r.scaler != nil {
		r.scaler.arrivals++
	}
	if r.resil != nil {
		r.resil.noteInject(rep, req, now)
	}
	if !rep.scheduled {
		at := now
		// An idle replica's clock may lead the fleet clock (it committed
		// its last iteration past this arrival); it can only take new work
		// at its own boundary.
		if t := rep.Now(); t > at {
			at = t
		}
		r.schedule(rep, at)
	}
	return true
}

// inject pushes a request into a replica, recording the realised arrival
// when the run retains its stream (Options.RetainStream) — recording every
// arrival of a million-request run would defeat the constant-memory path.
func (r *fleetRun) inject(rep *Replica, req workload.Request, now units.Seconds) {
	if r.push(rep, req, now) && r.c.opt.RetainStream {
		r.stream = append(r.stream, req)
	}
}

// route picks a replica for an arriving request via the cluster's router and
// injects it. The router only sees the eligible (active) replicas: warming
// replicas are still booting and draining replicas accept no new work.
// During a brownout window, batch-class open-loop arrivals are parked until
// the window lifts (graceful degradation: interactive traffic keeps the
// thinned bandwidth).
func (r *fleetRun) route(req workload.Request, now units.Seconds) *Replica {
	if r.resil != nil && r.resil.shedArrival(req) {
		return nil
	}
	if len(r.eligible) == 0 && r.resil != nil {
		// Every replica is down (faults can empty a static fleet): the
		// arrival strands like a failover casualty instead of panicking the
		// router — parked for a replacement boot, or terminally failed.
		r.resil.strand(req, now)
		return nil
	}
	idx := r.c.opt.Router.Route(req, r.eligible)
	if idx < 0 || idx >= len(r.eligible) {
		r.err = fmt.Errorf("cluster: router %s chose invalid replica %d of %d",
			r.c.opt.Router.Name(), idx, len(r.eligible))
		return nil
	}
	rep := r.eligible[idx]
	r.inject(rep, req, now)
	return rep
}

// drain runs the simulation to completion. Serial runs simply drain the
// kernel — replica steps are kernel events. Sharded runs alternate: every
// kernel event (arrival, control tick, replica activation, fault edge,
// timeout deadline, retry re-injection) is a barrier,
// and between barriers the armed replicas advance in parallel, each
// strictly below the barrier instant, so everything cross-replica still
// fires in exact kernel order and the result is bit-identical to the
// serial schedule.
func (r *fleetRun) drain() {
	if !r.sharded {
		r.kernel.Run()
		return
	}
	defer func() {
		if r.pool != nil {
			r.pool.close()
			r.pool = nil
		}
	}()
	for r.err == nil {
		if t, ok := r.kernel.NextAt(); ok {
			r.advanceShards(t)
			if r.err != nil {
				return
			}
			r.kernel.Step()
			continue
		}
		if !r.stepsPending() {
			return
		}
		// No kernel events left: the surviving step cadences run dry
		// unbounded.
		r.advanceShards(units.Seconds(math.Inf(1)))
	}
}

// advanceShards drives every armed replica up to (strictly below) the
// barrier, in parallel, then replays the phase's deferred power-off
// decisions in deterministic order. Replica errors fold into the run error
// in replica order.
func (r *fleetRun) advanceShards(barrier units.Seconds) {
	r.due = r.due[:0]
	for _, rep := range r.reps {
		if rep.scheduled && rep.nextStep < barrier {
			r.due = append(r.due, rep)
		}
	}
	if len(r.due) > 0 {
		r.barrier = barrier
		if len(r.due) == 1 {
			// One replica due: the pool's signaling costs more than it buys.
			r.driveReplica(r.due[0], barrier)
		} else {
			if r.pool == nil {
				r.pool = newShardPool(r.shards, func(rep *Replica) { r.driveReplica(rep, r.barrier) })
			}
			r.pool.dispatch(r.due)
		}
		for _, rep := range r.due {
			if rep.err != nil && r.err == nil {
				r.err = rep.err
			}
			if len(rep.finishedIDs) > 0 {
				// Ledger completions deferred from the parallel phase land
				// before the barrier's kernel event, exactly where the
				// serial schedule (steps strictly below the event) puts
				// them; a stale timeout at the barrier then sees the
				// request done, as it would serially.
				for _, id := range rep.finishedIDs {
					r.resil.finished(id)
				}
				rep.finishedIDs = rep.finishedIDs[:0]
			}
		}
	}
	if r.scaler != nil {
		r.scaler.flushStops()
	}
}

// driveReplica advances one replica's armed steps, in order, strictly below
// the barrier: events at the barrier instant belong to the kernel and fire
// first, exactly as the serial schedule orders simultaneous arrivals before
// steps. The replica parks drained, errored, or re-armed at/after the
// barrier. Only replica-local state is written (see stepReplica), so
// distinct replicas drive concurrently.
func (r *fleetRun) driveReplica(rep *Replica, barrier units.Seconds) {
	for rep.err == nil && rep.scheduled && rep.nextStep < barrier {
		now := rep.nextStep
		rep.scheduled = false
		r.stepReplica(rep, now)
	}
}

// stepsPending reports whether any sharded replica still has an armed step.
// Sharded steps live outside the kernel, so the drain loop and the
// autoscaler's re-arm check must ask here as well as kernel.Pending.
func (r *fleetRun) stepsPending() bool {
	if !r.sharded {
		return false
	}
	for _, rep := range r.reps {
		if rep.scheduled {
			return true
		}
	}
	return false
}

// shardPool is the sharded driver's persistent caller-runs pool: barriers
// arrive at arrival cadence (a million times per million-request run), so
// the helpers outlive the barriers instead of being spawned per phase. A
// dispatch publishes its batch, wakes each helper at most once, and works
// the batch itself; every worker claims items by index with one atomic
// decrement, so no item crosses a channel. fn must write only
// replica-local state, so the outcome is independent of goroutine
// scheduling and the parallel drive is indistinguishable from the serial
// loop.
type shardPool struct {
	fn func(*Replica)
	// items is the current batch, written before unclaimed publishes it.
	items []*Replica
	// unclaimed counts the batch's items no worker has claimed yet. A
	// claim decrements it and takes items[len(items)-1-result]; a negative
	// result means the batch is fully claimed, so a helper that wakes late
	// claims nothing and nobody waits on it. left counts unfinished items.
	unclaimed atomic.Int64
	left      atomic.Int64
	// wake holds one capacity-1 channel per helper; a full one means the
	// helper is already due to look for work.
	wake []chan struct{}
	// last carries the token of a helper that finished a batch's last item.
	last chan struct{}
	// panics holds the first item panic of a dispatch; dispatch re-raises
	// it on the caller.
	panics chan any
}

// newShardPool starts a pool of `workers` workers running fn: workers−1
// persistent helpers plus the dispatching caller.
func newShardPool(workers int, fn func(*Replica)) *shardPool {
	if workers < 2 {
		workers = 2
	}
	p := &shardPool{fn: fn, wake: make([]chan struct{}, workers-1),
		last: make(chan struct{}, 1), panics: make(chan any, 1)}
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
	}
	parallelMap(p)
	return p
}

// parallelMap launches the pool's helpers — the one construct the
// deterministic packages may spawn goroutines in (papivet pins this).
func parallelMap(p *shardPool) {
	for _, wake := range p.wake {
		go p.help(wake)
	}
}

// help works the current batch on every wake until the pool closes, and
// hands the batch's end to the caller when it finished the last item.
func (p *shardPool) help(wake <-chan struct{}) {
	for range wake {
		if p.work() {
			p.last <- struct{}{}
		}
	}
}

// work claims and runs items until none is left to claim, and reports
// whether it finished the batch's last item.
func (p *shardPool) work() bool {
	for {
		i := p.unclaimed.Add(-1)
		if i < 0 {
			return false
		}
		if p.run(p.items[int64(len(p.items))-1-i]) {
			return true
		}
	}
}

// run runs one claimed item and reports whether it was the batch's last to
// finish. Every item counts down exactly once, panic or not — a batch that
// never finishes would deadlock the whole run.
func (p *shardPool) run(rep *Replica) (last bool) {
	defer func() {
		if v := recover(); v != nil {
			// Keep only the first panic; a worker must never block here.
			select {
			case p.panics <- v:
			default:
			}
		}
		last = p.left.Add(-1) == 0
	}()
	p.fn(rep)
	return false
}

// dispatch runs fn over the batch and returns once every item finished,
// re-raising the first item panic on the caller. The caller works the batch
// alongside the helpers and waits only when a helper holds the last item.
func (p *shardPool) dispatch(reps []*Replica) {
	p.items = reps
	p.left.Store(int64(len(reps)))
	p.unclaimed.Store(int64(len(reps)))
	for _, wake := range p.wake {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	if !p.work() {
		<-p.last
	}
	select {
	case v := <-p.panics:
		panic(v)
	default:
	}
}

// close retires the helpers (idempotent is not needed: drain calls it once).
func (p *shardPool) close() {
	for _, wake := range p.wake {
		close(wake)
	}
}

// Run consumes the request stream to completion and returns fleet metrics.
// It may be called once per Cluster. It is RunSeq over a copy of the stream
// sorted stably by arrival, so simultaneous arrivals route in stream order
// and precede step events at the same instant.
func (c *Cluster) Run(reqs []workload.Request) (*FleetResult, error) {
	stream := append([]workload.Request(nil), reqs...)
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Arrival < stream[j].Arrival })
	i := 0
	return c.RunSeq(func() (workload.Request, bool) {
		if i == len(stream) {
			return workload.Request{}, false
		}
		i++
		return stream[i-1], true
	})
}

// RunSeq consumes a lazily generated open-loop request stream to
// completion: next is called once per request, in arrival order
// (non-decreasing arrivals; a negative arrival, already waiting at start,
// clamps to 0), until it reports no more. Only one lookahead arrival is
// ever buffered, so a million-request run pays no per-request memory up
// front — the fleet companion to workload.Scenario.Each. Simultaneous
// arrivals all route before any step event at their instant. Run is RunSeq
// over a sorted slice. RunSeq may be called once per Cluster, in place of
// Run; a rejected empty stream leaves the cluster runnable.
func (c *Cluster) RunSeq(next func() (workload.Request, bool)) (*FleetResult, error) {
	if c.ran {
		return nil, fmt.Errorf("cluster: Run may only be called once per cluster")
	}
	if next == nil {
		return nil, fmt.Errorf("cluster: nil request source")
	}
	// Pull the first request before claiming the cluster, so a rejected
	// empty stream leaves it runnable.
	first, ok := next()
	if !ok {
		return nil, fmt.Errorf("cluster: empty request stream")
	}
	c.ran = true

	r, err := c.newFleetRun()
	if err != nil {
		return nil, err
	}
	r.shard()

	// Open-loop replicas interact only at arrivals and control ticks, and
	// with one lookahead arrival buffered the next arrival instant is always
	// known, so a replica may macro-step up to the earlier of the two rather
	// than to the kernel's next event. Fault edges, timeouts and retry
	// re-injections are kernel events between arrivals, so a run with the
	// failure machinery armed keeps the default horizon.
	nextArrival := units.Seconds(math.Inf(1))
	if r.resil == nil {
		r.horizon = func(*Replica) units.Seconds { return min(r.nextTick, nextArrival) }
	}

	total := 0
	var schedule func(req workload.Request, at units.Seconds)
	schedule = func(req workload.Request, at units.Seconds) {
		total++
		nextArrival = at
		r.kernel.At(at, func(now units.Seconds) {
			// One event routes every arrival at this instant, so all of
			// them precede the step events they arm — the order sharded
			// runs give them too (steps run strictly below the barrier).
			// Each successor is pulled before the request ahead of it is
			// routed, so the horizon and the barrier schedule always cover
			// the next arrival. The loop walks its own copy of req, so the
			// closure captures req by value (no per-arrival heap box).
			req := req
			for {
				follow, more := next()
				followAt := max(follow.Arrival, 0)
				switch {
				case !more:
					nextArrival = units.Seconds(math.Inf(1))
				case followAt < at:
					r.err = fmt.Errorf("cluster: request %d arrives at %v, before its predecessor at %v; RunSeq needs arrival order",
						follow.ID, followAt, at)
				case followAt > at:
					schedule(follow, followAt)
				}
				if r.err != nil {
					return
				}
				r.route(req, now)
				if !more || followAt > at {
					return
				}
				total++
				req = follow
			}
		})
	}
	schedule(first, max(first.Arrival, 0))

	// The stream keeps growing while the kernel drains (each arrival pulls
	// its successor), so the ledger total is only known afterwards.
	r.drain()
	if r.err != nil {
		return nil, r.err
	}
	return aggregate(r, total)
}

// convState tracks one closed-loop conversation through a fleet run: which
// turn is next, how large the context has grown, and which replica holds the
// conversation's KV state (follow-ups stick to it).
type convState struct {
	conv workload.Conversation
	// baseID is the request ID of turn 0; turn k gets baseID + k, so IDs are
	// assigned deterministically up front regardless of completion order.
	baseID int
	next   int // index of the next turn to launch
	rep    *Replica
}

// RunPlan consumes a closed-loop conversation plan to completion: each
// conversation's first turn is routed like any arrival, and every follow-up
// turn arrives think-time after the previous answer completes, carrying the
// full grown context (all prior turns' inputs and outputs plus the new
// prompt tokens) back to the same replica, where its KV footprint and
// attention cost reflect the accumulated history. Every turn is tagged with
// the conversation's prefix group — negative IDs, so a workload generator's
// positive groups can never collide — and each follow-up declares the
// carried context as its shared prefix. With the block-level KV cache
// sharing enabled (Options.Serving.KV), the replica holding the
// conversation adopts those blocks instead of re-prefilling them, and the
// carried bytes are not double-counted against the replica's KV headroom;
// without it, the full history is re-prefilled each turn — an upper bound
// docs/SCENARIOS.md records. RunPlan may be called once per Cluster, in
// place of Run.
//
// A fault-free run macro-steps each replica under a closed-loop lookahead:
// a follow-up only reaches the replica its conversation is pinned to, so a
// replica's horizon is the earliest of the next first-turn arrival (routing
// reads every replica), the next control tick, and its own earliest pending
// follow-up — not the kernel's next event of any kind, which is almost
// always another replica's step. First turns enter the kernel through a
// lazy cursor: one event at a time, each posting its successor under a
// sequence number reserved up front, so the event order is exactly that of
// scheduling them all at the start.
func (c *Cluster) RunPlan(convs []workload.Conversation) (*FleetResult, error) {
	if c.ran {
		return nil, fmt.Errorf("cluster: Run may only be called once per cluster")
	}
	if len(convs) == 0 {
		return nil, fmt.Errorf("cluster: empty conversation plan")
	}
	for _, conv := range convs {
		if len(conv.Turns) == 0 {
			return nil, fmt.Errorf("cluster: conversation %d has no turns", conv.ID)
		}
	}
	if c.opt.Shards > 1 {
		// Closed-loop runs couple replicas between arrivals: a completion on
		// one replica launches a follow-up whose arrival instant the barrier
		// schedule cannot know ahead, so the parallel drive has no sound
		// synchronization points.
		return nil, fmt.Errorf("cluster: sharded execution needs an open-loop stream; RunPlan requires Shards ≤ 1")
	}
	c.ran = true

	r, err := c.newFleetRun()
	if err != nil {
		return nil, err
	}

	// Request IDs are dense — turn k of a conversation is its baseID + k —
	// so byReq is a slice over [0, total turns), set as each turn launches.
	total := workload.TotalTurns(convs)
	states := make([]convState, len(convs))
	byReq := make([]*convState, total)
	nextID := 0
	for i, conv := range convs {
		states[i] = convState{conv: conv, baseID: nextID}
		nextID += len(conv.Turns)
	}

	// Failover keeps the conversation pins honest: a crash orphans every
	// conversation homed on the dead replica (its KV state is gone), and a
	// retried turn re-pins its conversation to the survivor it lands on,
	// which re-prefills the carried context.
	r.onCrash = func(rep *Replica, now units.Seconds) {
		for i := range states {
			if states[i].rep == rep {
				states[i].rep = nil
			}
		}
	}
	r.onRequeue = func(id int, rep *Replica) {
		st := byReq[id]
		if st == nil || st.rep == rep {
			return
		}
		if st.rep != nil {
			st.rep.holds--
		}
		st.rep = rep
		rep.holds++
		if r.resil != nil {
			r.resil.repins++
		}
	}

	// A completed turn launches the conversation's next turn think-time
	// later, on the same replica. A finished conversation releases its hold
	// on the replica, making it drainable again.
	r.onFinish = func(rep *Replica, req workload.Request) {
		st := byReq[req.ID]
		if st == nil {
			return
		}
		if st.next >= len(st.conv.Turns) {
			rep.holds--
			return
		}
		turn := st.conv.Turns[st.next]
		follow := workload.Request{
			ID: st.baseID + st.next,
			// The follow-up's prompt is the grown context: everything said
			// so far plus the newly typed tokens.
			InputLen:     req.SeqLen() + turn.Input,
			OutputLen:    turn.Output,
			Arrival:      rep.stepper.Now() + turn.Think,
			Conversation: st.conv.ID,
			Turn:         st.next + 1,
			PrefixGroup:  -(int64(st.conv.ID) + 1),
			PrefixLen:    req.SeqLen(),
		}
		st.next++
		byReq[follow.ID] = st
		rep.followUps.push(follow.Arrival)
		r.kernel.At(follow.Arrival, func(now units.Seconds) {
			rep.followUps.pop()
			if r.err != nil {
				return
			}
			pinned := st.rep
			if pinned == nil || pinned.state == repFailed || pinned.state == repStopped {
				// The pinned replica died between turns: route the
				// follow-up like a fresh arrival and re-pin the
				// conversation to wherever it lands.
				if nrep := r.route(follow, now); nrep != nil {
					st.rep = nrep
					nrep.holds++
					if r.resil != nil {
						r.resil.repins++
					}
				}
				return
			}
			r.inject(pinned, follow, now)
		})
	}

	// First turns are open-loop arrivals in plan order, fed to the kernel by
	// one cursor event: launching first turn k posts turn k+1 under the
	// sequence number scheduling all of them here would have given it.
	order := make([]int, len(states))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return states[order[a]].conv.Arrival < states[order[b]].conv.Arrival
	})
	inf := units.Seconds(math.Inf(1))
	nextFirst := inf
	if r.resil == nil {
		// Fault edges, timeouts and retry re-injections are kernel events
		// that can reach any replica, so a run with the failure machinery
		// armed keeps the default horizon.
		r.horizon = func(rep *Replica) units.Seconds {
			h := min(r.nextTick, nextFirst)
			if len(rep.followUps) > 0 {
				h = min(h, rep.followUps[0])
			}
			return h
		}
	}
	base := r.kernel.Reserve(len(order))
	cursor := 0
	var launchFirst sim.Event
	post := func() {
		nextFirst = max(states[order[cursor]].conv.Arrival, 0)
		r.kernel.AtSeq(nextFirst, base+uint64(cursor)+1, launchFirst)
	}
	launchFirst = func(now units.Seconds) {
		if r.err != nil {
			return
		}
		st := &states[order[cursor]]
		if cursor++; cursor < len(order) {
			post()
		} else {
			nextFirst = inf
		}
		first := workload.Request{
			ID:           st.baseID,
			InputLen:     st.conv.Turns[0].Input,
			OutputLen:    st.conv.Turns[0].Output,
			Arrival:      st.conv.Arrival,
			Conversation: st.conv.ID,
			Turn:         1,
			PrefixGroup:  -(int64(st.conv.ID) + 1),
		}
		st.next = 1
		byReq[first.ID] = st
		st.rep = r.route(first, now)
		if st.rep != nil {
			st.rep.holds++
		}
	}
	post()

	r.drain()
	if r.err != nil {
		return nil, r.err
	}
	return aggregate(r, total)
}
