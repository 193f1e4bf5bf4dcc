package serving

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/papi-sim/papi/internal/core"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/workload"
)

// checkPendingAgainst asserts the stepper's queue equals the naive model,
// that intHint is a valid all-batch-prefix bound, and that every backing
// array slot outside the live window is nil.
func checkPendingAgainst(t *testing.T, s *Stepper, want []*request, backing []*request, step int) {
	t.Helper()
	if len(s.pending) != len(want) {
		t.Fatalf("step %d: len %d, want %d", step, len(s.pending), len(want))
	}
	for k := range want {
		if s.pending[k] != want[k] {
			t.Fatalf("step %d: pending[%d] = request %d, want %d", step, k, s.pending[k].ID, want[k].ID)
		}
	}
	if s.intHint < 0 || s.intHint > len(s.pending) {
		t.Fatalf("step %d: intHint %d out of [0, %d]", step, s.intHint, len(s.pending))
	}
	for k := 0; k < s.intHint; k++ {
		if s.pending[k].Class != workload.ClassBatch {
			t.Fatalf("step %d: intHint %d but pending[%d] is interactive", step, s.intHint, k)
		}
	}
	// Locate the live window inside the original backing array: removal
	// never reallocates, so pending is always a sub-slice of it.
	live := -1
	if len(s.pending) > 0 {
		for k := range backing {
			if &backing[k] == &s.pending[0] {
				live = k
				break
			}
		}
		if live < 0 {
			t.Fatalf("step %d: pending left its backing array", step)
		}
	}
	for k, r := range backing {
		if r != nil && (live < 0 || k < live || k >= live+len(s.pending)) {
			t.Fatalf("step %d: vacated slot %d still holds request %d", step, k, r.ID)
		}
	}
}

// TestRemovePendingMatchesSplice drives removePending with random indices
// over mixed-class queues and checks it against the plain order-preserving
// splice after every removal. The picks are biased toward the head, the
// tail and either side of the midpoint on top of uniform indices, and every
// trial drains its queue through the one-element case.
func TestRemovePendingMatchesSplice(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		naive := make([]*request, n)
		for k := range naive {
			c := workload.ClassInteractive
			if rng.Intn(3) > 0 {
				c = workload.ClassBatch
			}
			naive[k] = &request{Request: workload.Request{ID: k, Class: c}}
		}
		s := &Stepper{pending: append([]*request(nil), naive...)}
		backing := s.pending
		// Start from an arbitrary valid bound: lazily advanced partway.
		s.firstInteractive()
		s.intHint = rng.Intn(s.intHint + 1)
		checkPendingAgainst(t, s, naive, backing, 0)

		for step := 1; len(naive) > 0; step++ {
			m := len(naive)
			var i int
			switch rng.Intn(6) {
			case 0:
				i = 0
			case 1:
				i = m - 1
			case 2:
				i = (m - 1) / 2 // head side of the midpoint (or on it)
			case 3:
				i = m / 2 // tail side of the midpoint (or on it)
			case 4:
				// The phase-one admission site removes at the advanced bound.
				if i = s.firstInteractive(); i == m {
					i = rng.Intn(m)
				}
			default:
				i = rng.Intn(m)
			}
			s.removePending(i)
			naive = append(naive[:i], naive[i+1:]...)
			checkPendingAgainst(t, s, naive, backing, step)
			if s.firstInteractive() > len(s.pending) {
				t.Fatalf("step %d: firstInteractive past the queue", step)
			}
		}
	}
}

// BenchmarkStreamAdmission drains preloaded all-interactive Poisson streams
// through NewStreamStepper at two depths. Every admission takes the head of
// a queue holding the rest of the stream, so ns/req stays flat across the
// sizes only while removal from the head is O(1); a queue that shifts on
// every admission grows ns/req with the stream length.
func BenchmarkStreamAdmission(b *testing.B) {
	for _, n := range []int{15_000, 60_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			reqs := workload.CreativeWriting().Poisson(n, 2, 1)
			e, err := New(core.NewPAPI(0), model.LLaMA65B(), DefaultOptions(4))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				st, err := e.NewStreamStepper(reqs, 16)
				if err != nil {
					b.Fatal(err)
				}
				for {
					info, err := st.Step()
					if err != nil {
						b.Fatal(err)
					}
					if info.Kind == StepDrained {
						break
					}
				}
				if res := st.Finalize(); len(res.Requests) != n {
					b.Fatalf("completed %d of %d", len(res.Requests), n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
		})
	}
}
