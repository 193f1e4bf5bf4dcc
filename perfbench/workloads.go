package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"github.com/papi-sim/papi/internal/cluster"
	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// slo is the per-token latency target sim_slo_attain scores against, the
// papiserve default.
var slo = workload.SLO{TokenLatency: units.Seconds(0.012)}

// Workload sizes. Each is large enough that one run takes seconds of host
// time and that the modelled tail percentiles move by only a few percent
// from seed to seed.
const (
	// fleet-tiered-day: tiered-diurnal requests on a 32-replica OPT-30B
	// fleet. The scenario's native mean rate is 12 req/s; fleetCompress
	// squeezes the simulated day so the diurnal peak nears the fleet's
	// capacity while queues still drain between peaks.
	fleetRequests = 100_000
	fleetReplicas = 32
	fleetMaxBatch = 8
	fleetCompress = 20.0

	// engine-spec-creative: one LLaMA-65B engine at TLP 4 over a Poisson
	// creative-writing stream, loaded whole into the stepper up front. At
	// 2 req/s the live batch keeps crossing PAPI's α threshold. The stream
	// is long on purpose: admission's cost grows with the pending queue,
	// and this workload is where that shows.
	engineRequests = 60_000
	engineRate     = 2.0
	engineMaxBatch = 16
	engineTLP      = 4

	// chat-kv-closed: closed-loop chat-multiturn conversations on four
	// LLaMA-65B replicas sharing prefixes through the block KV cache.
	chatConversations = 30_000
	chatReplicas      = 4
	chatMaxBatch      = 16

	// Progress chunk sizes for host_us_per_req: large enough that one
	// sample spans tens of microseconds, small enough for more than a
	// thousand samples per run.
	fleetChunkPulls   = 64
	engineChunkDone   = 8
	chatChunkArrivals = 16
)

// workloadDef is one benchmark workload: how to draw its inputs from a seed
// and build the system under test (setup), ready for one timed run.
type workloadDef struct {
	name string
	// fleet marks workloads that build a cluster (cluster.new_s).
	fleet bool
	setup func(seed int64, tr *tracer, st *setupTimes) (instance, error)
}

// setupTimes splits one setup into input generation and system build.
type setupTimes struct {
	gen, build time.Duration
}

// instance is a built system under test with its inputs, good for one run.
type instance interface {
	run(tr *tracer) (*outcome, error)
}

// outcome is what one timed run produced: host timings, the simulated
// results, and the correctness checks that failed.
type outcome struct {
	host      time.Duration // wall time of the driver call: RunSeq, RunPlan, or the Step loop and Finalize
	attempted int
	completed int
	failures  []string
	digest    string
	sim       simMetrics
	work      workCounts

	// chunkUS holds host CPU µs per simulated request over consecutive
	// chunks of progress (see cpuNow).
	chunkUS []float64
}

// simMetrics are the modelled design's results; deterministic for a seed.
type simMetrics struct {
	ttftP50, ttftP99, tpotP99 float64 // seconds
	tokensPerSimS             float64
	joulesPerToken            float64
	sloAttain                 float64
}

// workCounts are deterministic per-layer work counters of one run.
type workCounts struct {
	pulls, steps, iterSteps                     int
	iters, tokens                               int
	prefillTokens, reprefillTokens, preemptions int
	reschedules                                 int
	breakdown                                   serving.TimeBreakdown
	kv                                          kv.Stats
	routedMaxOverMean                           float64
}

var workloads = []workloadDef{
	{
		name:  "fleet-tiered-day",
		fleet: true,
		setup: func(seed int64, tr *tracer, st *setupTimes) (instance, error) {
			return setupFleet(seed, runtime.GOMAXPROCS(0), tr, st)
		},
	},
	{
		name:  "engine-spec-creative",
		setup: setupEngine,
	},
	{
		name:  "chat-kv-closed",
		fleet: true,
		setup: setupChat,
	},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// timed runs f and adds its wall time to *d, inside a span named name.
func timed(tr *tracer, name string, d *time.Duration, f func() error) error {
	sp := tr.begin(name)
	t0 := time.Now()
	err := f()
	*d += time.Since(t0)
	tr.end(sp)
	return err
}

// ---- fleet-tiered-day -------------------------------------------------

type fleetInstance struct {
	c      *cluster.Cluster
	reqs   []workload.Request
	tokens int // Σ OutputLen of the generated stream
}

func setupFleet(seed int64, shards int, tr *tracer, st *setupTimes) (*fleetInstance, error) {
	inst := &fleetInstance{}
	err := timed(tr, "workload.gen", &st.gen, func() error {
		sc, err := workload.ScenarioByName(workload.ScenarioTieredDiurnal)
		if err != nil {
			return err
		}
		inst.reqs, err = sc.Requests(fleetRequests, seed)
		for i := range inst.reqs {
			inst.reqs[i].Arrival /= fleetCompress
			inst.tokens += inst.reqs[i].OutputLen
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = timed(tr, "cluster.new", &st.build, func() error {
		var err error
		inst.c, err = cluster.NewByName(design.DesignPAPI, model.OPT30B(), cluster.Options{
			Replicas: fleetReplicas,
			MaxBatch: fleetMaxBatch,
			Router:   cluster.LeastOutstanding(),
			Serving:  serving.DefaultOptions(1),
			Shards:   shards,
		})
		return err
	})
	return inst, err
}

func (f *fleetInstance) run(tr *tracer) (*outcome, error) {
	out := &outcome{attempted: len(f.reqs)}
	out.chunkUS = make([]float64, 0, len(f.reqs)/fleetChunkPulls+1)
	i := 0
	var last time.Duration
	next := func() (workload.Request, bool) {
		if tr.on {
			tr.instant("cluster.pull")
		}
		if i == len(f.reqs) {
			return workload.Request{}, false
		}
		r := f.reqs[i]
		i++
		if i%fleetChunkPulls == 0 {
			now := cpuNow()
			out.chunkUS = append(out.chunkUS, float64(now-last)/1e3/fleetChunkPulls)
			last = now
		}
		return r, true
	}
	var res *cluster.FleetResult
	sp := tr.begin("cluster.run")
	t0 := time.Now()
	last = cpuNow()
	res, err := f.c.RunSeq(next)
	out.host = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.work.pulls = i + 1        // the final pull reports the end of the stream
	out.chunkUS = out.chunkUS[1:] // the first chunk includes replica construction
	foldFleet(out, res, f.tokens, tr)
	return out, nil
}

// foldFleet checks a fleet result and folds it into the outcome.
func foldFleet(out *outcome, res *cluster.FleetResult, wantTokens int, tr *tracer) {
	sp := tr.begin("result.aggregate")
	defer tr.end(sp)
	out.completed = res.Completed
	routed, maxRouted, repTokens := 0, 0, 0
	for i, n := range res.Routed {
		routed += n
		maxRouted = max(maxRouted, n)
		r := &res.Replicas[i]
		repTokens += r.Tokens
		addResult(&out.work, r)
	}
	out.work.routedMaxOverMean = float64(maxRouted) * float64(len(res.Routed)) / float64(routed)
	check(out, res.Completed == out.attempted, "completed %d of %d requests", res.Completed, out.attempted)
	check(out, len(res.FailedRequests) == 0, "%d requests failed", len(res.FailedRequests))
	check(out, routed == out.attempted, "routed %d of %d requests", routed, out.attempted)
	check(out, res.Tokens == repTokens, "fleet tokens %d != Σ replica tokens %d", res.Tokens, repTokens)
	check(out, repTokens == wantTokens, "Σ replica tokens %d != Σ OutputLen %d", repTokens, wantTokens)
	checkKV(out)

	out.sim = simMetrics{
		ttftP50:        res.TTFT.P50,
		ttftP99:        res.TTFT.P99,
		tpotP99:        res.TPOT.P99,
		tokensPerSimS:  res.TokensPerSecond(),
		joulesPerToken: res.JoulesPerToken(),
		sloAttain:      res.Attainment(slo),
	}
	data, err := res.Checkpoint().Export()
	check(out, err == nil, "checkpoint export: %v", err)
	out.digest = digest(data, res.Routed)
}

// ---- engine-spec-creative ---------------------------------------------

type engineInstance struct {
	st     *serving.Stepper
	n      int
	tokens int
}

func setupEngine(seed int64, tr *tracer, st *setupTimes) (instance, error) {
	var reqs []workload.Request
	inst := &engineInstance{}
	_ = timed(tr, "workload.gen", &st.gen, func() error {
		reqs = workload.CreativeWriting().Poisson(engineRequests, engineRate, seed)
		for _, r := range reqs {
			inst.tokens += r.OutputLen
		}
		return nil
	})
	inst.n = len(reqs)
	err := timed(tr, "serving.new", &st.build, func() error {
		spec, err := design.ByName(design.DesignPAPI)
		if err != nil {
			return err
		}
		sys, err := spec.Build()
		if err != nil {
			return err
		}
		eng, err := serving.New(sys, model.LLaMA65B(), serving.DefaultOptions(engineTLP))
		if err != nil {
			return err
		}
		inst.st, err = eng.NewStreamStepper(reqs, engineMaxBatch)
		return err
	})
	return inst, err
}

func (e *engineInstance) run(tr *tracer) (*outcome, error) {
	out := &outcome{attempted: e.n}
	out.chunkUS = make([]float64, 0, e.n/engineChunkDone+1)
	w := &out.work
	sp := tr.begin("serving.run")
	t0 := time.Now()
	last, done, mark := cpuNow(), 0, engineChunkDone
	for {
		ssp := tr.begin("serving.step")
		info, err := e.st.Step()
		tr.end(ssp)
		if err != nil {
			return nil, err
		}
		if info.Kind == serving.StepDrained {
			break
		}
		w.steps++
		if info.Kind == serving.StepIteration {
			w.iterSteps++
		}
		done += info.Completed
		if done >= mark {
			now := cpuNow()
			out.chunkUS = append(out.chunkUS, float64(now-last)/1e3/float64(done-mark+engineChunkDone))
			last, mark = now, done+engineChunkDone
		}
	}
	asp := tr.begin("serving.finalize")
	res := e.st.Finalize()
	tr.end(asp)
	out.host = time.Since(t0)
	tr.end(sp)

	sp = tr.begin("result.aggregate")
	defer tr.end(sp)
	addResult(w, &res)
	out.completed = len(res.Requests)
	check(out, out.completed == e.n, "completed %d of %d requests", out.completed, e.n)
	check(out, res.Tokens == e.tokens, "engine tokens %d != Σ OutputLen %d", res.Tokens, e.tokens)
	checkKV(out)

	var ttft, tpot []float64
	for _, m := range res.Requests {
		ttft = append(ttft, m.TTFT.Seconds())
		if m.OutputTokens > 1 {
			tpot = append(tpot, m.TPOT.Seconds())
		}
	}
	q := stats.Quantiles(ttft, 50, 99)
	out.sim = simMetrics{
		ttftP50:        q[0],
		ttftP99:        q[1],
		tpotP99:        stats.Percentile(tpot, 99),
		tokensPerSimS:  float64(res.Tokens) / res.TotalTime().Seconds(),
		joulesPerToken: res.Energy.Total().Joules() / float64(res.Tokens),
		sloAttain:      serving.SLOAttainment(res.Requests, slo),
	}
	var err error
	out.digest, err = engineDigest(res)
	check(out, err == nil, "result export: %v", err)
	return out, nil
}

// engineDigest hashes the JSON of an engine Result one slice element at a
// time, so the benchmark never holds the whole encoding: that buffer would
// dominate max_rss_mb.
func engineDigest(res serving.Result) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	head := res
	head.RLPTrace, head.PerRequestIterations, head.IterStats, head.Requests = nil, nil, nil, nil
	err := errors.Join(enc.Encode(head),
		encodeEach(enc, res.RLPTrace), encodeEach(enc, res.PerRequestIterations),
		encodeEach(enc, res.IterStats), encodeEach(enc, res.Requests))
	return hex.EncodeToString(h.Sum(nil))[:16], err
}

func encodeEach[T any](enc *json.Encoder, xs []T) error {
	for _, x := range xs {
		if err := enc.Encode(x); err != nil {
			return err
		}
	}
	return nil
}

// ---- chat-kv-closed ---------------------------------------------------

type chatInstance struct {
	c      *cluster.Cluster
	convs  []workload.Conversation
	router *progressRouter
	turns  int
	tokens int
}

// progressRouter forwards to a real router and reads the process CPU clock
// every chatChunkArrivals first-turn arrivals. RunPlan exposes no progress of its
// own; routing is the one call it makes back into benchmark code, once per
// conversation, so a chunk's host time is charged to the turns of the
// conversations that arrived in it.
type progressRouter struct {
	cluster.Router
	turns    []int // turn count per conversation ID
	arrivals int
	pending  int           // turns of the conversations routed in the open chunk
	last     time.Duration // process CPU time at the chunk's start
	chunkUS  []float64
	tr       *tracer
}

func (p *progressRouter) Route(req workload.Request, reps []*cluster.Replica) int {
	if p.tr.on {
		p.tr.instant("cluster.route")
	}
	if req.Turn == 1 {
		p.arrivals++
		p.pending += p.turns[req.Conversation]
		if p.arrivals%chatChunkArrivals == 0 {
			now := cpuNow()
			p.chunkUS = append(p.chunkUS, float64(now-p.last)/1e3/float64(p.pending))
			p.last, p.pending = now, 0
		}
	}
	return p.Router.Route(req, reps)
}

func setupChat(seed int64, tr *tracer, st *setupTimes) (instance, error) {
	inst := &chatInstance{}
	err := timed(tr, "workload.gen", &st.gen, func() error {
		sc, err := workload.ScenarioByName(workload.ScenarioChatMultiTurn)
		if err != nil {
			return err
		}
		inst.convs, err = sc.Plan(chatConversations, seed)
		turns := make([]int, len(inst.convs))
		for _, c := range inst.convs {
			turns[c.ID] = len(c.Turns)
			inst.turns += len(c.Turns)
			for _, t := range c.Turns {
				inst.tokens += t.Output
			}
		}
		inst.router = &progressRouter{Router: cluster.LeastOutstanding(), turns: turns}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = timed(tr, "cluster.new", &st.build, func() error {
		opt := serving.DefaultOptions(1)
		opt.KV = &kv.Options{BlockTokens: 32, Sharing: true, ColdFactor: 4}
		var err error
		inst.c, err = cluster.NewByName(design.DesignPAPI, model.LLaMA65B(), cluster.Options{
			Replicas: chatReplicas,
			MaxBatch: chatMaxBatch,
			Router:   inst.router,
			Serving:  opt,
		})
		return err
	})
	return inst, err
}

func (c *chatInstance) run(tr *tracer) (*outcome, error) {
	out := &outcome{attempted: c.turns}
	c.router.chunkUS = make([]float64, 0, len(c.convs)/chatChunkArrivals+1)
	c.router.tr = tr
	sp := tr.begin("cluster.run")
	t0 := time.Now()
	c.router.last = cpuNow()
	res, err := c.c.RunPlan(c.convs)
	out.host = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.chunkUS = c.router.chunkUS
	foldFleet(out, res, c.tokens, tr)
	return out, nil
}

// ---- shared helpers ---------------------------------------------------

// addResult adds one engine's counters to the run's work counts.
func addResult(w *workCounts, r *serving.Result) {
	w.iters += r.Iterations
	w.tokens += r.Tokens
	w.prefillTokens += r.PrefillTokens
	w.reprefillTokens += r.ReprefillTokens
	w.preemptions += r.Preemptions
	w.reschedules += r.Reschedules
	w.breakdown.FC += r.Breakdown.FC
	w.breakdown.Attention += r.Breakdown.Attention
	w.breakdown.Communication += r.Breakdown.Communication
	w.breakdown.Other += r.Breakdown.Other
	if k := r.KV; k != nil {
		w.kv.Lookups += k.Lookups
		w.kv.Hits += k.Hits
		w.kv.SharedTokens += k.SharedTokens
		w.kv.PromotedBlocks += k.PromotedBlocks
		w.kv.DemotedBlocks += k.DemotedBlocks
		w.kv.EvictedBlocks += k.EvictedBlocks
		w.kv.TransferTime += k.TransferTime
	}
}

// checkKV asserts the block-cache counters are sane.
func checkKV(out *outcome) {
	k, w := out.work.kv, out.work
	check(out, k.Lookups >= 0 && k.Hits >= 0 && k.SharedTokens >= 0 && k.PromotedBlocks >= 0 &&
		k.DemotedBlocks >= 0 && k.EvictedBlocks >= 0 && k.TransferTime >= 0 && k.Hits <= k.Lookups,
		"negative or inconsistent kv counters %+v", k)
	check(out, promptShareCached(w) <= 1, "cached prompt share %v > 1", promptShareCached(w))
}

// promptShareCached is the share of prompt tokens served from cached blocks.
func promptShareCached(w workCounts) float64 {
	if d := w.kv.SharedTokens + w.prefillTokens; d > 0 {
		return float64(w.kv.SharedTokens) / float64(d)
	}
	return 0
}

// cpuNow is the process's CPU time so far: user plus system, all threads.
// Chunks of progress are timed with it rather than the wall clock because
// the kernel leaves out time the hypervisor stole from a virtual CPU, and
// on a shared host such pauses, not the simulator, otherwise set the tail.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func check(out *outcome, ok bool, format string, args ...any) {
	if !ok {
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
	}
}

// digest hashes a run's exported simulated results.
func digest(data []byte, routed []int) string {
	h := sha256.New()
	h.Write(data)
	for _, n := range routed {
		fmt.Fprintf(h, ",%d", n)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
