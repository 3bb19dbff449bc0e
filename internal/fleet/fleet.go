package fleet

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// PodWorkers is the device count of one pod: the paper's 8-device node.
const PodWorkers = 8

// PodSpec is a homogeneous group of pods of one design point.
type PodSpec struct {
	// Kind names the design (a core.DesignFor name: "DC-DLA", "HC-DLA",
	// "MC-DLA(B)", ...).
	Kind string `json:"kind"`
	// Count is the number of pods of this kind.
	Count int `json:"count"`
}

// Cluster is a fleet: an ordered list of pod groups. Order matters — the
// scheduler's first-fit scan visits pods in spec order, so the same cluster
// always yields the same placement.
type Cluster struct {
	Name string    `json:"name"`
	Pods []PodSpec `json:"pods"`
}

// TotalPods reports the cluster's pod count.
func (c Cluster) TotalPods() int {
	n := 0
	for _, p := range c.Pods {
		n += p.Count
	}
	return n
}

// Validate rejects unusable clusters before any simulation is spent.
func (c Cluster) Validate() error {
	if len(c.Pods) == 0 {
		return fmt.Errorf("fleet: cluster %q has no pods", c.Name)
	}
	for _, p := range c.Pods {
		if p.Count <= 0 {
			return fmt.Errorf("fleet: cluster %q: pod kind %q: count must be positive, got %d", c.Name, p.Kind, p.Count)
		}
		if _, err := core.DesignFor(p.Kind, accel.Default(), PodWorkers); err != nil {
			return fmt.Errorf("fleet: cluster %q: %v", c.Name, err)
		}
	}
	return nil
}

// Simulator supplies per-job iteration times: it receives one runner.Job per
// distinct (trace job × pod kind) simulation point and returns results in
// job order. The experiments package plugs its memoizing engine here, so
// fleet runs share the process-wide and durable caches; tests plug analytic
// fakes.
type Simulator func(ctx context.Context, jobs []runner.Job) ([]core.Result, error)

// Outcome is one trace job's fate, in trace order.
type Outcome struct {
	Job Job `json:"job"`
	// Admitted reports whether the job ever ran; refused jobs carry the
	// reason instead.
	Admitted bool   `json:"admitted"`
	Refused  string `json:"refused,omitempty"`
	// Pod is the placement ("MC-DLA(B)/0") of an admitted job.
	Pod string `json:"pod,omitempty"`
	// Start / Finish bracket the job's service; QueueDelay = Start−Arrival.
	Start      units.Time `json:"start_s"`
	Finish     units.Time `json:"finish_s"`
	QueueDelay units.Time `json:"queue_delay_s"`
	// Service is Iters × the pod kind's simulated iteration time.
	Service units.Time `json:"service_s"`
	// Footprint is the job's resident pool demand (all its devices).
	Footprint units.Bytes `json:"footprint_bytes"`
	// Missed reports a deadline job finishing past its deadline.
	Missed bool `json:"missed"`
}

// Result is one cluster's full fleet simulation.
type Result struct {
	Cluster      Cluster   `json:"cluster"`
	TotalDevices int       `json:"total_devices"`
	Outcomes     []Outcome `json:"outcomes"`

	Completed int `json:"completed"`
	Refused   int `json:"refused"`
	Missed    int `json:"missed"`

	// Makespan is the last completion time (trace start is 0).
	Makespan units.Time `json:"makespan_s"`
	// AvgQueueDelay / MaxQueueDelay summarize admitted jobs' waiting.
	AvgQueueDelay units.Time `json:"avg_queue_delay_s"`
	MaxQueueDelay units.Time `json:"max_queue_delay_s"`
	// BusyDeviceTime is Σ devices × service over completed jobs;
	// Utilization normalizes it by TotalDevices × Makespan.
	BusyDeviceTime units.Time `json:"busy_device_time_s"`
	Utilization    float64    `json:"utilization"`

	// CostUSD is the cluster bill of materials (Σ pod BOM totals);
	// JobsPerDay and JobsPerDayPerKUSD are the fleet figures of merit.
	CostUSD           float64 `json:"cost_usd"`
	JobsPerDay        float64 `json:"jobs_per_day"`
	JobsPerDayPerKUSD float64 `json:"jobs_per_day_per_kusd"`
}

// pod is the scheduler's mutable per-pod state.
type pod struct {
	name      string
	capacity  units.Bytes // pool bytes; math.MaxInt64 for an unbounded pool
	freeBytes units.Bytes
	freeDev   int
}

// running is one in-service job.
type running struct {
	jobIdx int // index into the trace (outcome order)
	podIdx int
	finish units.Time
}

// simPoint is the simulation identity of one trace job on one pod kind.
func simPoint(j Job, kind string) string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d", kind, j.Workload, j.Strategy, j.Batch, j.Devices, j.SeqLen, j.Precision)
}

// Footprint reports the job's resident pool demand: every device stashes its
// checkpointed feature maps and holds its resident weight copies (master
// scale; sharded across devices under model parallelism), mirroring the run
// report's accounting.
func Footprint(j Job, s *train.Schedule) units.Bytes {
	weights := s.Graph.TotalWeightBytes() * j.Precision.MasterScale()
	if j.Strategy == train.ModelParallel && j.Devices > 0 {
		weights /= int64(j.Devices)
	}
	perDevice := weights + s.Graph.StashBytes()
	return units.Bytes(int64(j.Devices) * perDevice)
}

// Run simulates trace on cluster: an event-driven virtual clock over
// arrivals and completions, FIFO first-fit admission with backfill under
// each pod's device and memory-pool constraints, service times from the
// injected Simulator (one simulation per distinct trace-point × pod-kind,
// prefetched before the loop so the loop itself is pure bookkeeping).
//
// A job that cannot fit even an empty pod — more devices than a pod has, or
// a footprint above every pod's pool — is refused at arrival; everything
// else is guaranteed to complete. The virtual clock never reads wall time.
func Run(ctx context.Context, cluster Cluster, trace []Job, m cost.Model, sim Simulator) (*Result, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("fleet: cluster %q: empty trace", cluster.Name)
	}
	if sim == nil {
		return nil, fmt.Errorf("fleet: cluster %q: nil simulator", cluster.Name)
	}
	trace = NormalizeTrace(trace)

	// Pod state and cluster bill. A zero pool (the oracle's fictional
	// infinite memory) schedules as unbounded.
	var pods []pod
	var clusterUSD float64
	for _, spec := range cluster.Pods {
		d, err := core.DesignFor(spec.Kind, accel.Default(), PodWorkers)
		if err != nil {
			return nil, fmt.Errorf("fleet: cluster %q: %v", cluster.Name, err)
		}
		capacity := m.PoolCapacity(d)
		if capacity <= 0 {
			capacity = units.Bytes(math.MaxInt64)
		}
		clusterUSD += m.Price(d).Total() * float64(spec.Count)
		for i := 0; i < spec.Count; i++ {
			pods = append(pods, pod{
				name:      fmt.Sprintf("%s/%d", spec.Kind, i),
				capacity:  capacity,
				freeBytes: capacity,
				freeDev:   PodWorkers,
			})
		}
	}

	// Footprints (one schedule build per distinct workload point) and the
	// prefetched simulation grid (one runner job per distinct trace-point ×
	// pod-kind, in first-appearance order so the grid is deterministic).
	footprints := make([]units.Bytes, len(trace))
	scheds := map[string]*train.Schedule{}
	var grid []runner.Job
	gridIdx := map[string]int{}
	for i, j := range trace {
		if j.Devices > PodWorkers {
			continue // refused at arrival; never simulated
		}
		sk := simPoint(j, "")
		s, ok := scheds[sk]
		if !ok {
			var err error
			s, err = train.BuildSeq(j.Workload, j.Batch, j.Devices, j.Strategy, j.SeqLen, j.Precision)
			if err != nil {
				return nil, fmt.Errorf("fleet: job %q: %v", j.Name, err)
			}
			scheds[sk] = s
		}
		footprints[i] = Footprint(j, s)
		for _, spec := range cluster.Pods {
			pk := simPoint(j, spec.Kind)
			if _, ok := gridIdx[pk]; ok {
				continue
			}
			d, err := core.DesignFor(spec.Kind, accel.Default(), j.Devices)
			if err != nil {
				return nil, fmt.Errorf("fleet: cluster %q: job %q: %v", cluster.Name, j.Name, err)
			}
			gridIdx[pk] = len(grid)
			grid = append(grid, runner.Job{
				Design: d, Workload: j.Workload, Strategy: j.Strategy,
				Batch: j.Batch, Workers: j.Devices, SeqLen: j.SeqLen,
				Precision: j.Precision, Tag: "fleet",
			})
		}
	}
	results, err := sim(ctx, grid)
	if err != nil {
		return nil, fmt.Errorf("fleet: cluster %q: %v", cluster.Name, err)
	}
	if len(results) != len(grid) {
		return nil, fmt.Errorf("fleet: cluster %q: simulator returned %d results for %d jobs", cluster.Name, len(results), len(grid))
	}
	iterTime := func(jobIdx, podIdx int) (units.Time, error) {
		kind := podKind(cluster, podIdx)
		gi, ok := gridIdx[simPoint(trace[jobIdx], kind)]
		if !ok {
			return 0, fmt.Errorf("fleet: cluster %q: no simulation for job %q on %s", cluster.Name, trace[jobIdx].Name, kind)
		}
		t := results[gi].IterationTime
		if t <= 0 {
			return 0, fmt.Errorf("fleet: cluster %q: nonpositive iteration time for job %q on %s", cluster.Name, trace[jobIdx].Name, kind)
		}
		return t, nil
	}

	// Arrival order: stable by arrival time, trace order on ties.
	order := make([]int, len(trace))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return trace[order[a]].Arrival < trace[order[b]].Arrival
	})

	maxPool := units.Bytes(0)
	for _, p := range pods {
		if p.capacity > maxPool {
			maxPool = p.capacity
		}
	}

	res := &Result{
		Cluster:      cluster,
		TotalDevices: len(pods) * PodWorkers,
		Outcomes:     make([]Outcome, len(trace)),
		CostUSD:      clusterUSD,
	}
	for i, j := range trace {
		res.Outcomes[i] = Outcome{Job: j, Footprint: footprints[i]}
	}

	// The event loop. Completions at time t free resources before arrivals
	// at t queue, and admission runs after both, so a departing job's pod is
	// immediately reusable within the same instant.
	var (
		now     units.Time
		arrived int
		queue   []int // waiting job indices, FIFO
		active  []running
	)
	for arrived < len(order) || len(active) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fleet: cluster %q: %w", cluster.Name, err)
		}
		next := units.Time(math.Inf(1))
		if arrived < len(order) {
			next = trace[order[arrived]].Arrival
		}
		for _, r := range active {
			next = units.MinTime(next, r.finish)
		}
		if next < now {
			return nil, fmt.Errorf("fleet: cluster %q: virtual clock regressed from %v to %v", cluster.Name, now, next)
		}
		now = next

		// Completions at now, in trace order for determinism.
		var done []int
		rest := active[:0]
		for _, r := range active {
			if r.finish == now {
				done = append(done, r.jobIdx)
				pods[r.podIdx].freeDev += trace[r.jobIdx].Devices
				pods[r.podIdx].freeBytes += footprints[r.jobIdx]
			} else {
				rest = append(rest, r)
			}
		}
		active = rest
		sort.Ints(done)
		for _, ji := range done {
			o := &res.Outcomes[ji]
			o.Finish = now
			if o.Job.Deadline > 0 && o.Finish > o.Job.Deadline {
				o.Missed = true
				res.Missed++
			}
			res.Completed++
			res.BusyDeviceTime += units.Time(float64(o.Job.Devices) * o.Service.Seconds())
			res.Makespan = units.MaxTime(res.Makespan, o.Finish)
		}

		// Arrivals at now. Jobs that fit no empty pod are refused for good.
		for arrived < len(order) && trace[order[arrived]].Arrival == now {
			ji := order[arrived]
			arrived++
			j := trace[ji]
			o := &res.Outcomes[ji]
			switch {
			case j.Devices > PodWorkers:
				o.Refused = fmt.Sprintf("needs %d devices; pods have %d", j.Devices, PodWorkers)
			case footprints[ji] > maxPool:
				o.Refused = fmt.Sprintf("footprint %v exceeds largest pod pool %v", footprints[ji], maxPool)
			default:
				queue = append(queue, ji)
				continue
			}
			res.Refused++
		}

		// First-fit admission with backfill: the FIFO queue is scanned in
		// order, each job against pods in cluster order.
		rest2 := queue[:0]
		for _, ji := range queue {
			j := trace[ji]
			placed := -1
			for pi := range pods {
				if pods[pi].freeDev >= j.Devices && pods[pi].freeBytes >= footprints[ji] {
					placed = pi
					break
				}
			}
			if placed < 0 {
				rest2 = append(rest2, ji)
				continue
			}
			it, err := iterTime(ji, placed)
			if err != nil {
				return nil, err
			}
			pods[placed].freeDev -= j.Devices
			pods[placed].freeBytes -= footprints[ji]
			service := units.Time(float64(j.Iters) * it.Seconds())
			o := &res.Outcomes[ji]
			o.Admitted = true
			o.Pod = pods[placed].name
			o.Start = now
			o.QueueDelay = now - j.Arrival
			o.Service = service
			active = append(active, running{jobIdx: ji, podIdx: placed, finish: now + service})
		}
		queue = rest2
	}

	// Summary metrics over admitted jobs.
	admitted := 0
	var delaySum units.Time
	for _, o := range res.Outcomes {
		if !o.Admitted {
			continue
		}
		admitted++
		delaySum += o.QueueDelay
		res.MaxQueueDelay = units.MaxTime(res.MaxQueueDelay, o.QueueDelay)
	}
	if admitted > 0 {
		res.AvgQueueDelay = units.Time(delaySum.Seconds() / float64(admitted))
	}
	if span := res.Makespan.Seconds(); span > 0 {
		res.Utilization = res.BusyDeviceTime.Seconds() / (float64(res.TotalDevices) * span)
		res.JobsPerDay = float64(res.Completed) / (span / 86400)
	}
	res.JobsPerDayPerKUSD = cost.PerfPerDollar(res.JobsPerDay, res.CostUSD)
	return res, nil
}

// podKind maps a flat pod index back to its spec's design name.
func podKind(c Cluster, podIdx int) string {
	for _, spec := range c.Pods {
		if podIdx < spec.Count {
			return spec.Kind
		}
		podIdx -= spec.Count
	}
	return ""
}
