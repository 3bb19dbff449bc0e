package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/cost"
	"github.com/memcentric/mcdla/internal/fleet"
	"github.com/memcentric/mcdla/internal/report"
)

// FleetPods is the default iso-cost budget anchor: the shared budget is what
// FleetPods pods of the most expensive requested design cost.
const FleetPods = 2

// FleetDesigns returns the default cluster contenders: the device-centric
// and host-centric baselines against the paper's headline memory-centric
// point.
func FleetDesigns() []string { return []string{"DC-DLA", "HC-DLA", "MC-DLA(B)"} }

// FleetClusters sizes one single-kind cluster per design under a shared
// iso-cost budget: the budget buys `pods` pods of the most expensive design,
// and every other design gets as many pods as that budget affords (at least
// one), so the comparison is dollars-for-dollars rather than pods-for-pods.
// This validation is the single gate for both the CLI and HTTP surfaces.
func FleetClusters(pods int, designs []string) ([]fleet.Cluster, error) {
	if pods < 1 {
		return nil, fmt.Errorf("experiments: fleet pod count must be positive, got %d", pods)
	}
	if len(designs) == 0 {
		designs = FleetDesigns()
	}
	m := cost.Default()
	prices := make([]float64, len(designs))
	maxPrice := 0.0
	for i, name := range designs {
		d, err := core.DesignFor(name, accel.Default(), fleet.PodWorkers)
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet: %v", err)
		}
		prices[i] = m.Price(d).Total()
		if prices[i] > maxPrice {
			maxPrice = prices[i]
		}
	}
	budget := float64(pods) * maxPrice
	clusters := make([]fleet.Cluster, len(designs))
	for i, name := range designs {
		count := 1
		if prices[i] > 0 {
			count = int(budget / prices[i])
			if count < 1 {
				count = 1
			}
		}
		clusters[i] = fleet.Cluster{Name: name, Pods: []fleet.PodSpec{{Kind: name, Count: count}}}
	}
	return clusters, nil
}

// Fleet runs the trace against every cluster on the shared engine, so
// overlapping simulation points across clusters (and across requests on the
// HTTP service) are paid for once, and every cluster's footprints read the
// engine's memoized schedules.
func Fleet(ctx context.Context, trace []fleet.Job, clusters []fleet.Cluster) ([]*fleet.Result, error) {
	m := cost.Default()
	results := make([]*fleet.Result, len(clusters))
	for i, c := range clusters {
		r, err := fleet.RunWith(ctx, c, trace, m, submit, schedule)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	return results, nil
}

// FleetReport renders the fleet comparison: the iso-cost headline table
// (jobs/day/$ is the fleet version of the paper's perf-per-dollar argument),
// one per-job outcome table per cluster, and notes naming the jobs the
// memory-centric clusters admit that the first (device-centric baseline)
// cluster must refuse for pool capacity.
func FleetReport(results []*fleet.Result) *report.Report {
	rep := &report.Report{
		Name:  "fleet",
		Title: "Fleet simulation (ROADMAP §5): iso-cost multi-job clusters",
	}
	if len(results) == 0 {
		return rep
	}
	njobs := len(results[0].Outcomes)

	head := report.NewTable("cluster", "pods", "cost", "admitted", "refused", "completed", "missed",
		"makespan", "avg queue", "util", "jobs/day", "jobs/day/$1k")
	for _, r := range results {
		admitted := 0
		for _, o := range r.Outcomes {
			if o.Admitted {
				admitted++
			}
		}
		head.AddRow(
			report.Str(r.Cluster.Name),
			report.Int(r.Cluster.TotalPods()),
			report.Num(fmt.Sprintf("$%.0f", r.CostUSD), r.CostUSD),
			report.Int(admitted),
			report.Int(r.Refused),
			report.Int(r.Completed),
			report.Int(r.Missed),
			report.Time(r.Makespan),
			report.Time(r.AvgQueueDelay),
			report.Pct(r.Utilization),
			report.Numf("%.1f", r.JobsPerDay),
			report.Numf("%.3f", r.JobsPerDayPerKUSD),
		)
	}
	rep.Sections = append(rep.Sections, report.Section{
		Heading: fmt.Sprintf("Iso-cost comparison (%d-job trace)", njobs),
		Table:   head,
		Notes:   admissionNotes(results),
	})

	for _, r := range results {
		t := report.NewTable("job", "workload", "dev", "footprint", "placement", "start", "finish", "queue", "deadline")
		for _, o := range r.Outcomes {
			placement := o.Pod
			if !o.Admitted {
				placement = "refused: " + o.Refused
			}
			deadline := "-"
			if o.Job.Deadline > 0 {
				if o.Missed {
					deadline = "MISSED"
				} else if o.Admitted {
					deadline = "met"
				} else {
					deadline = "refused"
				}
			}
			t.AddRow(
				report.Str(o.Job.Name),
				report.Str(o.Job.Workload),
				report.Int(o.Job.Devices),
				report.Bytes(o.Footprint),
				report.Str(placement),
				report.Time(o.Start),
				report.Time(o.Finish),
				report.Time(o.QueueDelay),
				report.Str(deadline),
			)
		}
		rep.Sections = append(rep.Sections, report.Section{
			Heading: fmt.Sprintf("Cluster %s (%d pods, $%.0f)", r.Cluster.Name, r.Cluster.TotalPods(), r.CostUSD),
			Table:   t,
		})
	}
	return rep
}

// admissionNotes names the jobs each later cluster admits that the first
// cluster refuses — the pooled-memory packability claim, made visible.
func admissionNotes(results []*fleet.Result) []string {
	base := results[0]
	var notes []string
	for _, r := range results[1:] {
		var jobs []string
		for i, o := range r.Outcomes {
			if o.Admitted && !base.Outcomes[i].Admitted {
				jobs = append(jobs, o.Job.Name)
			}
		}
		if len(jobs) > 0 {
			notes = append(notes, fmt.Sprintf("%s admits %s; %s refuses them (pool capacity).",
				r.Cluster.Name, strings.Join(jobs, ", "), base.Cluster.Name))
		}
	}
	if len(notes) == 0 {
		notes = append(notes, fmt.Sprintf("No admission gap vs %s on this trace.", base.Cluster.Name))
	}
	return notes
}
