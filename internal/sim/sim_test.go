package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/papi-sim/papi/internal/units"
)

func TestZeroValueUsable(t *testing.T) {
	var e Engine
	ran := false
	e.After(units.Seconds(1), func(units.Seconds) { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event did not fire")
	}
	if e.Now() != 1 {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(units.Seconds(3), func(units.Seconds) { order = append(order, 3) })
	e.At(units.Seconds(1), func(units.Seconds) { order = append(order, 1) })
	e.At(units.Seconds(2), func(units.Seconds) { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOAmongTies(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(units.Seconds(5), func(units.Seconds) { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-broken order = %v, want FIFO", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	hits := 0
	var chain func(units.Seconds)
	chain = func(now units.Seconds) {
		hits++
		if hits < 5 {
			e.After(units.Seconds(1), chain)
		}
	}
	e.After(units.Seconds(1), chain)
	end := e.Run()
	if hits != 5 {
		t.Fatalf("chain fired %d times, want 5", hits)
	}
	if end != 5 {
		t.Fatalf("final time %v, want 5s", end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(units.Seconds(2), func(units.Seconds) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(units.Seconds(1), func(units.Seconds) {})
}

func TestAtSeqInPastPanics(t *testing.T) {
	e := New()
	e.At(units.Seconds(2), func(units.Seconds) {})
	e.Run()
	base := e.Reserve(1)
	defer func() {
		if recover() == nil {
			t.Fatal("AtSeq in the past should panic")
		}
	}()
	e.AtSeq(units.Seconds(1), base+1, func(units.Seconds) {})
}

func TestAtSeqUnreservedPanics(t *testing.T) {
	e := New()
	base := e.Reserve(2)
	defer func() {
		if recover() == nil {
			t.Fatal("AtSeq with a number Reserve never handed out should panic")
		}
	}()
	e.AtSeq(units.Seconds(1), base+3, func(units.Seconds) {})
}

// Property: a sorted event series posted lazily under reserved sequence
// numbers — each event posting its successor — pops in exactly the order of
// scheduling the whole series up front with At, including exact ties with
// events scheduled before the reservation, after it, and from inside
// callbacks at the current instant.
func TestReservedSeqMatchesUpFront(t *testing.T) {
	run := func(seed int64, lazy bool) []int {
		rng := rand.New(rand.NewSource(seed))
		// Integer instants over a short span make exact ties the common case.
		instant := func() units.Seconds { return units.Seconds(rng.Intn(8)) }
		e := New()
		var log []int
		background := func(label int) {
			at, delay := instant(), units.Seconds(rng.Intn(2))
			e.At(at, func(now units.Seconds) {
				log = append(log, label)
				e.At(now+delay, func(units.Seconds) { log = append(log, -label) })
			})
		}
		for i := 1; i <= 15; i++ {
			background(i)
		}
		series := make([]units.Seconds, 40)
		for k := range series {
			series[k] = instant()
		}
		sort.Slice(series, func(i, j int) bool { return series[i] < series[j] })
		const seriesLabel = 1000
		if lazy {
			base := e.Reserve(len(series))
			var post func(k int)
			post = func(k int) {
				e.AtSeq(series[k], base+uint64(k)+1, func(units.Seconds) {
					log = append(log, seriesLabel+k)
					if k+1 < len(series) {
						post(k + 1)
					}
				})
			}
			post(0)
		} else {
			for k, at := range series {
				e.At(at, func(units.Seconds) { log = append(log, seriesLabel+k) })
			}
		}
		for i := 16; i <= 30; i++ {
			background(i)
		}
		e.Run()
		return log
	}
	for seed := int64(1); seed <= 50; seed++ {
		upFront, lazy := run(seed, false), run(seed, true)
		if len(upFront) != 100 || !reflect.DeepEqual(upFront, lazy) {
			t.Fatalf("seed %d: lazy order diverged\n up front: %v\n     lazy: %v", seed, upFront, lazy)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay should panic")
		}
	}()
	e.After(units.Seconds(-1), func(units.Seconds) {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.At(units.Seconds(at), func(units.Seconds) { fired = append(fired, at) })
	}
	e.RunUntil(units.Seconds(3))
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1,2,3", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	// RunUntil past the queue advances the clock to the deadline.
	e.RunUntil(units.Seconds(10))
	if e.Now() != 10 || e.Pending() != 0 {
		t.Fatalf("clock %v pending %d, want 10 / 0", e.Now(), e.Pending())
	}
}

func TestRunSteps(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(units.Seconds(float64(i)), func(units.Seconds) {})
	}
	if n := e.RunSteps(3); n != 3 {
		t.Fatalf("RunSteps = %d, want 3", n)
	}
	if n := e.RunSteps(10); n != 2 {
		t.Fatalf("RunSteps = %d, want remaining 2", n)
	}
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", e.Fired())
	}
}

// Property: for any set of timestamps, the engine fires events in
// non-decreasing time order and the clock equals the max timestamp at the end.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []units.Seconds
		for _, r := range raw {
			at := units.Seconds(float64(r) / 8)
			e.At(at, func(now units.Seconds) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		if len(raw) > 0 {
			max := units.Seconds(0)
			for _, r := range raw {
				if s := units.Seconds(float64(r) / 8); s > max {
					max = s
				}
			}
			return e.Now() == max
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — two engines fed the same schedule fire identically.
func TestDeterminism(t *testing.T) {
	build := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var log []float64
		for i := 0; i < 200; i++ {
			at := units.Seconds(rng.Float64() * 100)
			id := float64(i)
			e.At(at, func(now units.Seconds) { log = append(log, float64(now)+id/1000) })
		}
		e.Run()
		return log
	}
	a, b := build(42), build(42)
	if len(a) != len(b) {
		t.Fatal("different event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
