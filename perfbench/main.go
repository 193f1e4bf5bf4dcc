// Command perfbench is the repository benchmark. It runs one workload
// through the simulator's public package APIs, checks the simulated
// results, and prints every metric with its unit; the last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet-tiered-day --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1 is
// the per-layer run: it measures untraced for half the time, then records
// spans and a CPU profile for the other half, and prints the per-layer
// metrics with the tracing overhead. README.md describes the workloads and
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/papi-sim/papi/internal/stats"
)

// minSetups is how many times an end-to-end run sets up its workload at
// least, so setup_s is a median even when few timed runs fit.
const minSetups = 25

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "host seconds of timed runs to measure")
	trace := fs.Int("trace", 0, "0 for the end-to-end metrics, 1 for the traced per-layer run")
	outDir := fs.String("out", filepath.Join(".bench_build", "trace"), "directory the traced run writes spans and the CPU profile to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME [--seed N] [--seconds S > 0] [--trace 0|1]")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var rep *report
	if *trace == 1 {
		rep, err = tracedRun(w, *seed, *seconds, *outDir)
	} else {
		rep, err = endToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runs collects the setups and timed runs of one measurement.
type runs struct {
	setups []setupTimes
	outs   []*outcome
	mem    []memDelta
}

// memDelta is the Go runtime's allocation and GC activity over one run.
type memDelta struct {
	allocMB, mallocs, gcCycles, gcPauseMS float64
}

// measure sets up and runs w, each run on a fresh setup, until the timed
// runs add up to seconds of host time.
func (rs *runs) measure(w workloadDef, seed int64, seconds float64, tr *tracer) error {
	var total time.Duration
	for len(rs.outs) == 0 || total.Seconds() < seconds {
		// Return the last run's memory to the OS, so each setup starts
		// from the same resident set and max_rss_mb is one run's peak.
		debug.FreeOSMemory()
		var st setupTimes
		inst, err := w.setup(seed, tr, &st)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		rs.setups = append(rs.setups, st)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, err := inst.run(tr)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("%s run: %w", w.name, err)
		}
		rs.outs = append(rs.outs, out)
		rs.mem = append(rs.mem, memDelta{
			allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
			mallocs:   float64(m1.Mallocs - m0.Mallocs),
			gcCycles:  float64(m1.NumGC - m0.NumGC),
			gcPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		})
		total += out.host
	}
	return nil
}

// reqPerHostS is the median simulated-request throughput of the runs.
func (rs *runs) reqPerHostS() float64 {
	return medianOf(rs.outs, func(o *outcome) float64 { return float64(o.completed) / o.host.Seconds() })
}

// report is one invocation's result: correctness tallies, the digest of the
// simulated results, notes for the reader, and the metrics in print order.
type report struct {
	header    string
	attempted int
	failed    int
	notes     []string
	metrics   []metric
}

type metric struct {
	name, unit string
	value      float64
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// tally checks every run against the first and counts failures: requests
// not completed, plus each run that failed a correctness check or whose
// simulated results differ from the first run's.
func (r *report) tally(all []*outcome) {
	ref := all[0]
	for i, o := range all {
		r.attempted += o.attempted
		r.failed += o.attempted - o.completed
		fails := o.failures
		if o.digest != ref.digest || o.sim != ref.sim {
			fails = append(fails, fmt.Sprintf("digest %s differs from run 0's %s", o.digest, ref.digest))
		}
		if len(fails) > 0 {
			r.failed++
			for _, f := range fails {
				r.notes = append(r.notes, fmt.Sprintf("run %d failed: %s", i, f))
			}
		}
	}
}

func (r *report) print(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintln(&b, r.header)
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "  %-30s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  # %s\n", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// endToEnd measures w untraced and reports the end-to-end metrics.
func endToEnd(w workloadDef, seed int64, seconds float64) (*report, error) {
	var rs runs
	if err := rs.measure(w, seed, seconds, newTracer(false)); err != nil {
		return nil, err
	}
	for len(rs.setups) < minSetups {
		debug.FreeOSMemory()
		var st setupTimes
		if _, err := w.setup(seed, newTracer(false), &st); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		rs.setups = append(rs.setups, st)
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}

	first := rs.outs[0]
	r := &report{header: fmt.Sprintf("perfbench %s seed %d: %d timed runs, %d setups, digest %s",
		w.name, seed, len(rs.outs), len(rs.setups), first.digest)}
	r.tally(rs.outs)
	// Quantiles per run, then the median over runs, so that a stall of the
	// host that hits one run does not set the reported tail.
	r.notes = append(r.notes, fmt.Sprintf("host_us_per_req: quantiles of each run's %d chunks of progress, median over %d runs",
		len(first.chunkUS), len(rs.outs)))

	r.add("setup_s", "s", medianOf(rs.setups, func(st setupTimes) float64 { return (st.gen + st.build).Seconds() }))
	r.add("sim_req_per_host_s", "req/s", rs.reqPerHostS())
	r.add("host_us_per_req_p50", "us", medianOf(rs.outs, func(o *outcome) float64 { return stats.Percentile(o.chunkUS, 50) }))
	r.add("host_us_per_req_p99", "us", medianOf(rs.outs, func(o *outcome) float64 { return stats.Percentile(o.chunkUS, 99) }))
	r.add("max_rss_mb", "MB", rss)
	r.add("completed_frac", "ratio", 1-float64(r.failed)/float64(r.attempted))
	s := first.sim
	r.add("sim_ttft_p50_ms", "ms", s.ttftP50*1e3)
	r.add("sim_ttft_p99_ms", "ms", s.ttftP99*1e3)
	r.add("sim_tpot_p99_ms", "ms", s.tpotP99*1e3)
	r.add("sim_tokens_per_sim_s", "tok/s", s.tokensPerSimS)
	r.add("sim_j_per_token", "J/tok", s.joulesPerToken)
	r.add("sim_slo_attain", "ratio", s.sloAttain)
	return r, nil
}

// tracedRun measures w untraced for half the time, then traced with a CPU
// profile for the other half, and reports the per-layer metrics. It writes
// the spans, their per-name summary and the profile to outDir.
func tracedRun(w workloadDef, seed int64, seconds float64, outDir string) (*report, error) {
	var base, traced runs
	if err := base.measure(w, seed, seconds/2, newTracer(false)); err != nil {
		return nil, err
	}
	tr := newTracer(true)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	err := traced.measure(w, seed, seconds/2, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	shares, samples, err := cpuSplit(prof.Bytes())
	if err != nil {
		return nil, err
	}

	all := append(append([]*outcome(nil), base.outs...), traced.outs...)
	first := all[0]
	r := &report{header: fmt.Sprintf("perfbench %s seed %d (traced): %d untraced + %d traced runs, digest %s",
		w.name, seed, len(base.outs), len(traced.outs), first.digest)}
	r.tally(all)
	if err := writeTrace(outDir, w.name, seed, tr.spans, shares, prof.Bytes()); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("spans and CPU profile written to %s", outDir))

	wk := first.work
	hostS := medianOf(base.outs, func(o *outcome) float64 { return o.host.Seconds() })
	fleet := func(v float64) float64 {
		if w.fleet {
			return v
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	pulls := stats.Quantiles(gapsUS(tr.spans, "cluster.pull", "cluster.run"), 50, 99)
	steps := stats.Quantiles(durationsUS(tr.spans, "serving.step"), 50, 99)
	bd := wk.breakdown
	decode := bd.Total().Seconds()

	r.add("workload.gen_s", "s", medianOf(base.setups, func(st setupTimes) float64 { return st.gen.Seconds() }))
	r.add("cluster.new_s", "s", fleet(medianOf(base.setups, func(st setupTimes) float64 { return st.build.Seconds() })))
	r.add("cluster.run_s", "s", fleet(hostS))
	r.add("cluster.pulls", "count", float64(wk.pulls))
	r.add("cluster.pull_us_p50", "us", pulls[0])
	r.add("cluster.pull_us_p99", "us", pulls[1])
	r.add("cluster.routed_max_over_mean", "ratio", wk.routedMaxOverMean)
	r.add("serving.steps", "count", float64(wk.steps))
	r.add("serving.step_us_p50", "us", steps[0])
	r.add("serving.step_us_p99", "us", steps[1])
	r.add("serving.iters", "count", float64(wk.iters))
	r.add("serving.iters_per_step", "iter/step", ratio(float64(wk.iters), float64(wk.iterSteps)))
	r.add("serving.host_ns_per_iter", "ns", ratio(hostS*1e9, float64(wk.iters)))
	r.add("serving.tokens_per_iter", "tok/iter", ratio(float64(wk.tokens), float64(wk.iters)))
	r.add("serving.prefill_tokens", "count", float64(wk.prefillTokens))
	r.add("serving.reprefill_tokens", "count", float64(wk.reprefillTokens))
	r.add("serving.preemptions", "count", float64(wk.preemptions))
	r.add("sched.reschedules", "count", float64(wk.reschedules))
	r.add("kv.lookups", "count", float64(wk.kv.Lookups))
	r.add("kv.hit_ratio", "ratio", ratio(float64(wk.kv.Hits), float64(wk.kv.Lookups)))
	r.add("kv.prompt_share_cached", "ratio", promptShareCached(wk))
	r.add("kv.promoted_blocks", "count", float64(wk.kv.PromotedBlocks))
	r.add("kv.demoted_blocks", "count", float64(wk.kv.DemotedBlocks))
	r.add("kv.evicted_blocks", "count", float64(wk.kv.EvictedBlocks))
	r.add("kv.transfer_s", "s", wk.kv.TransferTime.Seconds())
	r.add("model.fc_time_share", "ratio", ratio(bd.FC.Seconds(), decode))
	r.add("pim.attn_time_share", "ratio", ratio(bd.Attention.Seconds(), decode))
	r.add("interconnect.comm_time_share", "ratio", ratio(bd.Communication.Seconds(), decode))
	r.add("go.alloc_mb", "MB", medianOf(base.mem, func(m memDelta) float64 { return m.allocMB }))
	r.add("go.mallocs", "count", medianOf(base.mem, func(m memDelta) float64 { return m.mallocs }))
	r.add("go.gc_cycles", "count", medianOf(base.mem, func(m memDelta) float64 { return m.gcCycles }))
	r.add("go.gc_pause_ms", "ms", medianOf(base.mem, func(m memDelta) float64 { return m.gcPauseMS }))
	for _, l := range cpuLayers {
		r.add("cpu."+l, "ratio", shares[l])
	}
	untraced, tracedRate := base.reqPerHostS(), traced.reqPerHostS()
	r.add("trace.untraced_req_per_host_s", "req/s", untraced)
	r.add("trace.traced_req_per_host_s", "req/s", tracedRate)
	r.add("trace.overhead", "ratio", untraced/tracedRate-1)
	r.add("trace.spans", "count", float64(len(tr.spans)))
	r.add("trace.cpu_samples", "count", float64(samples))
	return r, nil
}

// writeTrace writes the traced run's spans with their per-name summary and
// CPU split as <workload>.spans.json, and its profile as <workload>.cpu.pprof.
func writeTrace(dir, name string, seed int64, spans []span, shares map[string]float64, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string                  `json:"workload"`
		Seed     int64                   `json:"seed"`
		Summary  map[string]*spanSummary `json:"summary"`
		CPU      map[string]float64      `json:"cpu"`
		Spans    []span                  `json:"spans"`
	}{name, seed, summarizeSpans(spans), shares, spans})
	if err != nil {
		return err
	}
	return errors.Join(
		os.WriteFile(filepath.Join(dir, name+".spans.json"), data, 0o644),
		os.WriteFile(filepath.Join(dir, name+".cpu.pprof"), prof, 0o644))
}

// maxRSSMB is the process's peak resident set (VmHWM), in MB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}

// medianOf is the median of f over xs: the middle value, or the mean of the
// two middle values.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = f(x)
	}
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
