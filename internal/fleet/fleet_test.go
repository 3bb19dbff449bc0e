package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// fakeSim returns deterministic hash-derived iteration times, so the
// property tests exercise the scheduler without paying for real simulations.
func fakeSim(_ context.Context, jobs []runner.Job) ([]core.Result, error) {
	out := make([]core.Result, len(jobs))
	for i, j := range jobs {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%d", j.Design.Name, j.Workload, j.Strategy, j.Batch, j.Workers, j.SeqLen, j.Precision)
		out[i] = core.Result{IterationTime: units.Seconds(0.001 + float64(h.Sum64()%997)/100)}
	}
	return out, nil
}

// randomTrace builds a seeded random trace over cheap CNN/RNN workloads plus
// occasional pool-stressing BERT points.
func randomTrace(seed int64, n int) []Job {
	rng := rand.New(rand.NewSource(seed))
	workloads := []string{"AlexNet", "ResNet", "RNN-GRU", "RNN-LSTM-2", "BERT-Large"}
	jobs := make([]Job, n)
	for i := range jobs {
		w := workloads[rng.Intn(len(workloads))]
		j := Job{
			Workload: w,
			Arrival:  units.Seconds(float64(rng.Intn(600))),
			Iters:    1 + rng.Intn(50),
			Devices:  1 << rng.Intn(4), // 1,2,4,8: every dim in the suite splits evenly
			Batch:    64 << rng.Intn(4),
		}
		if w == "BERT-Large" {
			j.SeqLen = 512
			j.Precision = train.Mixed
		}
		if rng.Intn(3) == 0 {
			j.Strategy = train.ModelParallel
		}
		if rng.Intn(4) == 0 {
			j.Deadline = j.Arrival + units.Seconds(float64(60+rng.Intn(2000)))
		}
		jobs[i] = j
	}
	return NormalizeTrace(jobs)
}

func testCluster() Cluster {
	return Cluster{Name: "mix", Pods: []PodSpec{
		{Kind: "DC-DLA", Count: 2},
		{Kind: "MC-DLA(B)", Count: 1},
	}}
}

func podCapacity(t *testing.T, kind string) units.Bytes {
	t.Helper()
	d, err := core.DesignFor(kind, accel.Default(), PodWorkers)
	if err != nil {
		t.Fatal(err)
	}
	c := cost.Default().PoolCapacity(d)
	if c <= 0 {
		t.Fatalf("pod kind %s has no pool", kind)
	}
	return c
}

// TestSchedulerInvariants is the property harness: over seeded random
// traces, every admitted job completes exactly once, no pod's resident
// footprint or device allocation ever exceeds its capacity, per-job times
// are monotone, and total busy device-time is bounded by the fleet's
// device-seconds.
func TestSchedulerInvariants(t *testing.T) {
	cluster := testCluster()
	caps := map[string]units.Bytes{
		"DC-DLA":    podCapacity(t, "DC-DLA"),
		"MC-DLA(B)": podCapacity(t, "MC-DLA(B)"),
	}
	for _, tc := range []struct {
		seed int64
		n    int
	}{
		{seed: 1, n: 10}, {seed: 2, n: 25}, {seed: 3, n: 40},
		{seed: 4, n: 60}, {seed: 5, n: 80}, {seed: 42, n: 120},
	} {
		t.Run(fmt.Sprintf("seed%d_n%d", tc.seed, tc.n), func(t *testing.T) {
			trace := randomTrace(tc.seed, tc.n)
			res, err := Run(context.Background(), cluster, trace, cost.Default(), fakeSim)
			if err != nil {
				t.Fatal(err)
			}

			// Completion exactly once: the outcome partition covers the trace.
			admitted := 0
			for i, o := range res.Outcomes {
				if o.Admitted == (o.Refused != "") {
					t.Fatalf("job %d: admitted=%v with refusal %q", i, o.Admitted, o.Refused)
				}
				if o.Admitted {
					admitted++
				}
			}
			if admitted != res.Completed {
				t.Fatalf("admitted %d jobs but completed %d", admitted, res.Completed)
			}
			if admitted+res.Refused != len(trace) {
				t.Fatalf("admitted %d + refused %d != %d jobs", admitted, res.Refused, len(trace))
			}

			// Monotone per-job times.
			for i, o := range res.Outcomes {
				if !o.Admitted {
					continue
				}
				if o.Start < o.Job.Arrival || o.Finish < o.Start {
					t.Fatalf("job %d: non-monotone times arrival=%v start=%v finish=%v", i, o.Job.Arrival, o.Start, o.Finish)
				}
				if got := o.Start - o.Job.Arrival; got != o.QueueDelay {
					t.Fatalf("job %d: queue delay %v, want %v", i, o.QueueDelay, got)
				}
			}

			// Capacity sweep: replay every pod's resident set at each start
			// event; [start, finish) intervals must respect bytes and devices.
			byPod := map[string][]Outcome{}
			for _, o := range res.Outcomes {
				if o.Admitted {
					byPod[o.Pod] = append(byPod[o.Pod], o)
				}
			}
			for pod, jobs := range byPod {
				kind := pod[:strings.LastIndex(pod, "/")]
				capacity, ok := caps[kind]
				if !ok {
					t.Fatalf("unknown pod kind in placement %q", pod)
				}
				for _, at := range jobs {
					var bytes units.Bytes
					var dev int
					for _, o := range jobs {
						if o.Start <= at.Start && at.Start < o.Finish {
							bytes += o.Footprint
							dev += o.Job.Devices
						}
					}
					if bytes > capacity {
						t.Fatalf("pod %s over pool at t=%v: %v > %v", pod, at.Start, bytes, capacity)
					}
					if dev > PodWorkers {
						t.Fatalf("pod %s over devices at t=%v: %d > %d", pod, at.Start, dev, PodWorkers)
					}
				}
			}

			// Busy-time bound: Σ devices × service ≤ pods × devices × makespan.
			bound := units.Time(float64(res.TotalDevices) * res.Makespan.Seconds())
			if res.BusyDeviceTime > bound {
				t.Fatalf("busy device-time %v exceeds fleet bound %v", res.BusyDeviceTime, bound)
			}
			if res.Utilization < 0 || res.Utilization > 1 {
				t.Fatalf("utilization %v outside [0,1]", res.Utilization)
			}
		})
	}
}

// TestRunDeterministic pins run-to-run determinism of the whole result.
func TestRunDeterministic(t *testing.T) {
	trace := randomTrace(7, 50)
	a, err := Run(context.Background(), testCluster(), trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), testCluster(), trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs diverged")
	}
}

// TestRefusals pins the permanent-refusal reasons: an over-wide job and a
// job whose footprint exceeds every pool are named, everything else runs.
func TestRefusals(t *testing.T) {
	cluster := Cluster{Name: "dc", Pods: []PodSpec{{Kind: "DC-DLA", Count: 1}}}
	trace := NormalizeTrace([]Job{
		{Name: "wide", Workload: "AlexNet", Devices: PodWorkers + 1, Iters: 1},
		{Name: "huge", Workload: "BERT-Large", Devices: 8, Batch: 1024, SeqLen: 512, Precision: train.FP32, Iters: 1},
		{Name: "ok", Workload: "AlexNet", Devices: 2, Iters: 1},
	})
	res, err := Run(context.Background(), cluster, trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refused != 1 || !strings.Contains(res.Outcomes[0].Refused, "devices") {
		t.Fatalf("wide job not refused for devices: %+v", res.Outcomes[0])
	}
	// The 441 GB fp32 BERT job fits the 768 GB DC pool, so only the wide job
	// is refused here; against a smaller-pooled cluster it must be refused too.
	if !res.Outcomes[1].Admitted {
		t.Fatalf("huge-but-fitting job refused: %+v", res.Outcomes[1])
	}
	if !res.Outcomes[2].Admitted || res.Outcomes[2].Finish <= 0 {
		t.Fatalf("ok job did not complete: %+v", res.Outcomes[2])
	}
}

// TestPooledAdmissionGap reproduces the acceptance criterion with real
// footprints: a working set above 768 GB is refused by the device-centric
// pod and admitted by the memory-centric pod's 10 TB DIMM pool.
func TestPooledAdmissionGap(t *testing.T) {
	trace := NormalizeTrace([]Job{
		{Name: "gpt2", Workload: "GPT-2", Devices: 8, SeqLen: 1024, Precision: train.Mixed, Iters: 2},
	})
	dc, err := Run(context.Background(), Cluster{Name: "dc", Pods: []PodSpec{{Kind: "DC-DLA", Count: 1}}},
		trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Run(context.Background(), Cluster{Name: "mc", Pods: []PodSpec{{Kind: "MC-DLA(B)", Count: 1}}},
		trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Refused != 1 || !strings.Contains(dc.Outcomes[0].Refused, "pool") {
		t.Fatalf("DC pod admitted the 2 TB GPT-2 job: %+v", dc.Outcomes[0])
	}
	if mc.Completed != 1 {
		t.Fatalf("MC pod refused the GPT-2 job: %+v", mc.Outcomes[0])
	}
}

// TestDeadlines pins the miss accounting: a deadline tighter than the
// service time is missed, a loose one is met.
func TestDeadlines(t *testing.T) {
	cluster := Cluster{Name: "dc", Pods: []PodSpec{{Kind: "DC-DLA", Count: 1}}}
	trace := NormalizeTrace([]Job{
		{Name: "tight", Workload: "AlexNet", Devices: 2, Iters: 1000, Deadline: units.Seconds(0.0001)},
		{Name: "loose", Workload: "AlexNet", Devices: 2, Iters: 1, Deadline: units.Seconds(1e9)},
	})
	res, err := Run(context.Background(), cluster, trace, cost.Default(), fakeSim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 1 || !res.Outcomes[0].Missed || res.Outcomes[1].Missed {
		t.Fatalf("deadline accounting wrong: %+v", res.Outcomes)
	}
}

// TestRunErrors pins the scheduler's input validation.
func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	m := cost.Default()
	ok := NormalizeTrace([]Job{{Workload: "AlexNet", Iters: 1}})
	cases := []struct {
		name    string
		cluster Cluster
		trace   []Job
		sim     Simulator
		want    string
	}{
		{"no pods", Cluster{Name: "x"}, ok, fakeSim, "no pods"},
		{"bad count", Cluster{Name: "x", Pods: []PodSpec{{Kind: "DC-DLA", Count: 0}}}, ok, fakeSim, "count must be positive"},
		{"bad kind", Cluster{Name: "x", Pods: []PodSpec{{Kind: "Z-DLA", Count: 1}}}, ok, fakeSim, "unknown design"},
		{"empty trace", testCluster(), nil, fakeSim, "empty trace"},
		{"nil sim", testCluster(), ok, nil, "nil simulator"},
		{"bad workload", testCluster(), NormalizeTrace([]Job{{Workload: "NoNet", Iters: 1}}), fakeSim, "NoNet"},
		// MC-DLA(S) folds its rings for eight devices only: a smaller job
		// on such a pod is an error naming the job, not a panic.
		{"unbuildable pod", Cluster{Name: "x", Pods: []PodSpec{{Kind: "MC-DLA(S)", Count: 1}}},
			NormalizeTrace([]Job{{Name: "small", Workload: "AlexNet", Iters: 1, Devices: 4}}), fakeSim, `job "small": invalid workers value "4"`},
		{"sim error", testCluster(), ok, func(context.Context, []runner.Job) ([]core.Result, error) {
			return nil, fmt.Errorf("boom")
		}, "boom"},
		{"sim short", testCluster(), ok, func(_ context.Context, jobs []runner.Job) ([]core.Result, error) {
			return make([]core.Result, len(jobs)+1), nil
		}, "results"},
		{"sim zero time", testCluster(), ok, func(_ context.Context, jobs []runner.Job) ([]core.Result, error) {
			return make([]core.Result, len(jobs)), nil
		}, "nonpositive iteration time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(ctx, tc.cluster, tc.trace, m, tc.sim)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRunHonorsCancellation pins that the event loop stops once the context
// is cancelled: a client that disconnects after the simulations land must
// not keep the scheduler replaying the trace.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim := func(ctx context.Context, jobs []runner.Job) ([]core.Result, error) {
		out, err := fakeSim(ctx, jobs)
		cancel() // the client goes away after the simulations finish
		return out, err
	}
	res, err := Run(ctx, testCluster(), randomTrace(1, 50), cost.Default(), sim)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancellation = %v, %v; want context.Canceled", res, err)
	}
}

// TestFootprintAccounting pins the model-parallel weight sharding and the
// device multiplier against the run report's accounting.
func TestFootprintAccounting(t *testing.T) {
	dp, err := train.BuildSeq("AlexNet", 512, 4, train.DataParallel, 0, train.FP32)
	if err != nil {
		t.Fatal(err)
	}
	j := Job{Workload: "AlexNet", Devices: 4, Batch: 512, Precision: train.FP32}
	want := units.Bytes(4 * (dp.Graph.TotalWeightBytes()*train.FP32.MasterScale() + dp.Graph.StashBytes()))
	if got := Footprint(j, dp); got != want {
		t.Fatalf("dp footprint %v, want %v", got, want)
	}
	mp, err := train.BuildSeq("AlexNet", 512, 4, train.ModelParallel, 0, train.FP32)
	if err != nil {
		t.Fatal(err)
	}
	jm := j
	jm.Strategy = train.ModelParallel
	wantMP := units.Bytes(4 * (mp.Graph.TotalWeightBytes()*train.FP32.MasterScale()/4 + mp.Graph.StashBytes()))
	if got := Footprint(jm, mp); got != wantMP {
		t.Fatalf("mp footprint %v, want %v", got, wantMP)
	}
}

// TestArrivalScanMatchesFullRescan is the oracle for the arrival-only
// admission scan: on synthetic and random traces of several sizes, over
// single-kind and mixed clusters, Run's Result equals, by value, the one a
// full rescan of the wait queue at every event gives.
func TestArrivalScanMatchesFullRescan(t *testing.T) {
	clusters := []Cluster{
		{Name: "dc", Pods: []PodSpec{{Kind: "DC-DLA", Count: 1}}},
		{Name: "mix", Pods: []PodSpec{{Kind: "DC-DLA", Count: 2}, {Kind: "MC-DLA(B)", Count: 1}}},
		{Name: "three", Pods: []PodSpec{{Kind: "HC-DLA", Count: 1}, {Kind: "MC-DLA(B)", Count: 2}, {Kind: "DC-DLA(O)", Count: 1}}},
	}
	traces := map[string][]Job{}
	for _, n := range []int{1, 20, 200, 1000} {
		traces[fmt.Sprintf("synthetic-%d", n)] = SyntheticTrace(n)
	}
	for _, n := range []int{50, 400} {
		traces[fmt.Sprintf("random-%d", n)] = randomTrace(int64(n), n)
	}
	ctx := context.Background()
	m := cost.Default()
	waited := false
	for name, tr := range traces {
		for _, c := range clusters {
			got, err := run(ctx, c, tr, m, fakeSim, buildSchedule, false)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, c.Name, err)
			}
			want, err := run(ctx, c, tr, m, fakeSim, buildSchedule, true)
			if err != nil {
				t.Fatalf("%s on %s (full rescan): %v", name, c.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: arrival-only scan differs from the full rescan", name, c.Name)
			}
			waited = waited || got.MaxQueueDelay > 0
		}
	}
	if !waited {
		t.Fatal("no job ever waited: the traces never reach the arrival-only scan")
	}
}
