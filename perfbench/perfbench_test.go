package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestShardedFleetMatchesSerial pins the sharded fleet driver to the serial
// one at benchmark scale: fleet-tiered-day gives the same digest and the
// same modelled metrics with one shard and with one per core.
func TestShardedFleetMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fleet workload twice")
	}
	run := func(shards int) *outcome {
		var st setupTimes
		inst, err := setupFleet(1, shards, newTracer(false), &st)
		if err != nil {
			t.Fatal(err)
		}
		out, err := inst.run(newTracer(false))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.failures) > 0 {
			t.Fatalf("%d shards: %v", shards, out.failures)
		}
		return out
	}
	serial, sharded := run(1), run(max(2, runtime.GOMAXPROCS(0)))
	if serial.digest != sharded.digest || serial.sim != sharded.sim {
		t.Fatalf("sharded run differs from serial: digest %s vs %s, sim %+v vs %+v",
			sharded.digest, serial.digest, sharded.sim, serial.sim)
	}
}

// TestOutputContract runs every workload, untraced and traced, and checks
// the last output line against BENCHMARK.json: the JSON keys, a correct
// result, and exactly the declared metrics with their units.
func TestOutputContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
		for trace, want := range [][]decl{bench.EndToEnd, bench.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.01",
				"--trace", []string{"0", "1"}[trace], "--out", t.TempDir()}
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 ||
				got.Failed == nil || *got.Failed != 0 {
				t.Errorf("%v: not a correct result:\n%s", args, stdout.String())
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json declares %d", args, len(got.Metrics), len(want))
			}
			cpu := 0.0
			for _, d := range want {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%v: metric %s: got %+v, want unit %q", args, d.Name, m, d.Unit)
					continue
				}
				if strings.HasPrefix(d.Name, "cpu.") {
					cpu += *m.Value
				}
			}
			if trace == 1 && (cpu < 0.999 || cpu > 1.001) {
				t.Errorf("%v: cpu.* shares sum to %v, want 1", args, cpu)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	const in = internalPrefix
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", in + "serving.(*Stepper).admit", in + "serving.(*Stepper).Step", "main.main"}, "serving"},
		{[]string{"runtime.mallocgc", "runtime.growslice", in + "kv.(*Store).Admit"}, "kv"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", in + "kv.(*Store).Admit"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.chanrecv", "runtime.chanrecv2", in + "cluster.(*shardPool).worker"}, "runtime_sched"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime_sched"},
		{[]string{"sort.insertionSortLessFunc", "sort.Float64s", in + "stats.(*Sketch).compactFrom"}, "stats"},
		{[]string{"time.Now", "main.(*fleetInstance).run.func1", in + "cluster.(*Cluster).RunSeq.func2"}, "bench"},
		{[]string{in + "units.Seconds.Scale", in + "serving.(*Engine).priceIteration"}, "serving"},
		{[]string{"runtime._ExternalCode"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
