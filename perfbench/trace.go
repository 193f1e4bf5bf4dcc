package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the program. Parent is
// the index of the enclosing span, -1 at the top level.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a tracer that is off records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.epoch))})
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// instant records a zero-length span: a point of progress.
func (t *tracer) instant(name string) { t.end(t.begin(name)) }

// spanSummary is the per-name roll-up of a trace: how many spans, their
// total duration, and their self time (duration minus the time covered by
// child spans).
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarizeSpans(spans []span) map[string]*spanSummary {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanSummary{}
	for i, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += float64(s.End-s.Start) / 1e6
		sum.SelfMS += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// durationsUS returns the durations of the spans named name, in µs.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// gapsUS returns the host time between successive spans named name inside
// each span named within, in µs.
func gapsUS(spans []span, name, within string) []float64 {
	var out []float64
	prev := map[int32]int64{}
	for _, s := range spans {
		if s.Name != name || s.Parent < 0 || spans[s.Parent].Name != within {
			continue
		}
		if p, ok := prev[s.Parent]; ok {
			out = append(out, float64(s.Start-p)/1e3)
		}
		prev[s.Parent] = s.Start
	}
	return out
}

// ---- CPU profile split ------------------------------------------------

// cpuLayers are the buckets the traced run splits CPU samples into:
// the program's internal packages by name, the Go runtime's collector and
// scheduler, the benchmark's own code, and everything else.
var cpuLayers = []string{
	"cluster", "serving", "sched", "kv", "stats", "sim", "pim", "gpu", "model", "energy", "workload",
	"runtime_gc", "runtime_sched", "bench", "other",
}

const (
	internalPrefix = "github.com/papi-sim/papi/internal/"
	// benchPkg is this package's import path, which its symbols carry in a
	// test binary; in the benchmark binary they are "main".
	benchPkg = "github.com/papi-sim/papi/perfbench"
)

// cpuSplit parses a gzipped pprof CPU profile and returns each layer's
// share of the samples (summing to 1) and the sample count.
//
// A sample goes to runtime_gc when any frame on its stack is collector
// work (background marking, assists, sweeping). Otherwise its frames are
// walked from the leaf to the first frame of a listed layer or of the
// benchmark, which takes the sample; runtime, standard-library and helper
// package frames (units, design, ...) on the way pass through, so a memmove
// or an allocation is charged to the layer that asked for it. Passing a channel, park or lock frame on the way makes the
// sample runtime_sched instead.
func cpuSplit(gz []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.str(p.funcName[fn]))
			}
		}
		byLayer[layerOf(stack)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = float64(byLayer[l]) / float64(max(total, 1))
	}
	return shares, total, nil
}

// layerOf attributes one leaf-first stack of function names.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime_gc"
		}
	}
	sched := false
	for _, fn := range stack {
		pkg := pkgOf(fn)
		switch {
		case strings.HasPrefix(pkg, internalPrefix):
			layer := strings.TrimPrefix(pkg, internalPrefix)
			if !slices.Contains(cpuLayers, layer) {
				continue // a helper package: charge its caller
			}
			if sched {
				return "runtime_sched"
			}
			return layer
		case pkg == "main" || pkg == benchPkg:
			if sched {
				return "runtime_sched"
			}
			return "bench"
		case isSched(fn):
			sched = true
		}
	}
	if sched {
		return "runtime_sched"
	}
	return "other"
}

// pkgOf returns the import path of a Go symbol name such as
// "github.com/x/y/internal/serving.(*Stepper).Step".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

var gcPrefixes = []string{
	"gc", "markroot", "scanobject", "scanblock", "scanstack", "scanframe", "greyobject",
	"bgsweep", "bgscavenge", "sweepone", "wbBuf", "deductSweepCredit", "findObject",
	"(*gcWork)", "(*gcControllerState)", "(*gcBits)", "(*mspan).sweep", "(*sweepLocked)",
	"(*mheap).reclaim", "(*scavengerState)", "(*gcCPULimiterState)",
}

func isGC(fn string) bool {
	base, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range gcPrefixes {
		if strings.HasPrefix(base, p) {
			return true
		}
	}
	return false
}

var schedFuncs = map[string]bool{
	"chansend": true, "chansend1": true, "chanrecv": true, "chanrecv1": true, "chanrecv2": true,
	"selectgo": true, "send": true, "recv": true, "closechan": true,
	"gopark": true, "goparkunlock": true, "park_m": true, "schedule": true, "findRunnable": true,
	"goready": true, "ready": true, "wakep": true, "startm": true, "stopm": true, "handoffp": true,
	"runqput": true, "runqget": true, "runqgrab": true, "runqsteal": true, "stealWork": true,
	"lock": true, "lock2": true, "unlock": true, "unlock2": true, "lockWithRank": true, "unlockWithRank": true,
	"futex": true, "futexsleep": true, "futexwakeup": true, "notesleep": true, "notewakeup": true,
	"semacquire1": true, "semrelease1": true, "mcall": true, "mPark": true, "usleep": true,
	"osyield": true, "procyield": true, "netpoll": true, "gosched_m": true, "goschedImpl": true,
	"execute": true, "gogo": true, "resetspinning": true, "acquirep": true, "releasep": true,
}

func isSched(fn string) bool {
	if base, ok := strings.CutPrefix(fn, "runtime."); ok {
		return schedFuncs[base]
	}
	if base, ok := strings.CutPrefix(fn, "sync."); ok {
		return strings.Contains(base, "Lock") || strings.Contains(base, "Wait") || strings.Contains(base, "lockSlow")
	}
	return strings.HasPrefix(fn, "internal/sync.")
}

// ---- minimal profile.proto decoder ------------------------------------

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location → function ids, innermost inlined frame first
	funcName map[uint64]int64    // function → string-table index of its name
	strs     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// parseProfile decodes the fields of a gzipped profile.proto message that
// the CPU split needs: samples, locations, functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var values []int64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { values = append(values, int64(x)) })
				}
				return nil
			})
			if len(values) > 0 {
				s.count = values[0] // sample count; values[1] is CPU ns
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks a protobuf message, calling f with each field number and
// either its varint value or its length-delimited bytes (b == nil for
// varints). Fixed-width fields are skipped.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (b != nil) or
// not.
func eachVarint(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		b = b[n:]
	}
	return nil
}
