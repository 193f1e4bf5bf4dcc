package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/workload"
)

// poolItems returns n distinct replicas whose IDs index their position.
func poolItems(n int) []*Replica {
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = &Replica{ID: i}
	}
	return reps
}

// onHelper reports whether the calling goroutine is one of the pool's
// helpers rather than the dispatching caller.
func onHelper() bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*shardPool).help") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestShardPoolExactlyOnce: across back-to-back dispatches of random batch
// sizes, every item runs exactly once per dispatch, and no item of a
// dispatch runs after that dispatch returned — the claim discipline that
// lets a helper wake late without anyone waiting for it.
func TestShardPoolExactlyOnce(t *testing.T) {
	const maxBatch = 64
	dispatches := 10_000
	if testing.Short() {
		dispatches = 1_000
	}
	reps := poolItems(maxBatch)
	for _, workers := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var counts [maxBatch]atomic.Int32
			var live atomic.Bool
			var late atomic.Int64
			p := newShardPool(workers, func(rep *Replica) {
				if !live.Load() {
					late.Add(1)
				}
				if rep.ID%7 == 0 {
					runtime.Gosched()
				}
				counts[rep.ID].Add(1)
			})
			defer p.close()
			rng := rand.New(rand.NewSource(int64(workers)))
			for d := 0; d < dispatches; d++ {
				n := 2 + rng.Intn(maxBatch-1)
				live.Store(true)
				p.dispatch(reps[:n])
				live.Store(false)
				for i := range counts {
					want := int32(0)
					if i < n {
						want = 1
					}
					if got := counts[i].Swap(0); got != want {
						t.Fatalf("dispatch %d (batch %d): item %d ran %d times, want %d", d, n, i, got, want)
					}
				}
			}
			if n := late.Load(); n > 0 {
				t.Fatalf("%d items ran after their dispatch returned", n)
			}
		})
	}
}

// TestShardPoolPanicReraised: a panicking item is re-raised on the caller by
// dispatch, and only once every other item of the batch has finished —
// whether the panic happened on the caller or on a helper. The pool stays
// usable afterwards.
func TestShardPoolPanicReraised(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		name     string
		onHelper bool
	}{{"caller", false}, {"helper", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var panicked atomic.Bool
			var finished atomic.Int64
			// started closes when the panicking side has claimed an item.
			// The other side holds its items until then, so the panic lands
			// on the wanted side whichever way the claims race.
			started := make(chan struct{})
			p := newShardPool(2, func(rep *Replica) {
				if onHelper() == tc.onHelper {
					if panicked.CompareAndSwap(false, true) {
						close(started)
						panic("boom")
					}
				} else {
					<-started
				}
				time.Sleep(200 * time.Microsecond)
				finished.Add(1)
			})
			defer p.close()
			reps := poolItems(n)
			func() {
				defer func() {
					v := recover()
					if v != "boom" {
						t.Fatalf("dispatch re-raised %v, want the item panic", v)
					}
					if got := finished.Load(); got != n-1 {
						t.Fatalf("panic re-raised after %d of %d other items finished", got, n-1)
					}
				}()
				p.dispatch(reps)
			}()
			finished.Store(0)
			p.dispatch(reps)
			if got := finished.Load(); got != n {
				t.Fatalf("dispatch after a panic finished %d of %d items", got, n)
			}
		})
	}
}

// BenchmarkShardBarrier drives a 32-replica PAPI/OPT-30B tiered fleet with
// Shards = GOMAXPROCS over a preloaded 20k-request tiered-diurnal stream,
// its day compressed 20× so that a barrier finds most replicas due. Every
// distinct arrival instant is one barrier, and the final drain one more, so
// ns/barrier is the fleet's cost per synchronization with the pool's
// handoff included.
func BenchmarkShardBarrier(b *testing.B) {
	const (
		requests = 20_000
		compress = 20.0
	)
	sc, err := workload.ScenarioByName(workload.ScenarioTieredDiurnal)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := sc.Requests(requests, 1)
	if err != nil {
		b.Fatal(err)
	}
	barriers := 1
	for i := range reqs {
		reqs[i].Arrival /= compress
		if i == 0 || reqs[i].Arrival != reqs[i-1].Arrival {
			barriers++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		c, err := NewByName("PAPI", model.OPT30B(), Options{
			Replicas: 32,
			MaxBatch: 8,
			Router:   LeastOutstanding(),
			Serving:  serving.DefaultOptions(1),
			Shards:   runtime.GOMAXPROCS(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		i := 0
		b.StartTimer()
		f, err := c.RunSeq(func() (workload.Request, bool) {
			if i == len(reqs) {
				return workload.Request{}, false
			}
			i++
			return reqs[i-1], true
		})
		if err != nil {
			b.Fatal(err)
		}
		if f.Completed != requests {
			b.Fatalf("completed %d of %d", f.Completed, requests)
		}
	}
	b.ReportMetric(float64(barriers), "barriers/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*barriers), "ns/barrier")
}
